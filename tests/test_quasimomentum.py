import cmath
import dataclasses
import math

import numpy as np
import pytest

from nanoband._rootfind import SOLVE_XTOL, _comb_k, _edge_slack
from nanoband.potential import make_potential
from nanoband.quasimomentum import (k_eval, verify_deep_asymptotics,
                                    verify_kprime_squared)
from nanoband.spectrum import (MagneticConfig, _xi_eff, band_structure,
                               bare_cosh_heights, xi)


def test_k_value_in_first_band(zero_q):
    cfg = MagneticConfig(a=0.0)
    k = k_eval(zero_q, cfg, (math.pi / 3) ** 2)
    assert abs(k.imag) < 1e-14
    assert abs(k.real - math.acos(-0.6875)) < 1e-12


def test_k_eval_rejects_a_structure_of_another_potential_or_sector(
        two_step, structure_factory):
    # with the edges of another structure k would be read off the wrong
    # comb: a wrong value at some lambda, an error at others
    cfg = MagneticConfig(a=0.9)
    lams = np.linspace(0.5, 60.0, 600)
    for q, other in ((two_step.shifted(3.0), cfg),
                     (two_step, MagneticConfig(a=0.3)),
                     (two_step, MagneticConfig(a=0.9, N=2, j=1))):
        bs = structure_factory(q, other, 20)
        for lam in (lams, 30.0):
            with pytest.raises(ValueError, match="structure of"):
                k_eval(two_step, cfg, lam, bs)
    # a label and a field strength B only name the inputs
    named = MagneticConfig.from_field(2.0, 3)
    bs = structure_factory(two_step, named, 20)
    relabeled = make_potential(two_step, label="renamed")
    assert [repr(k) for k in k_eval(relabeled, MagneticConfig(
        a=named.a, N=3), lams, bs).tolist()] \
        == [repr(k) for k in k_eval(two_step, named, lams, bs).tolist()]


def test_k_at_edges_and_critical(two_step, structure_factory):
    cfg = MagneticConfig(a=0.9)
    bs = structure_factory(two_step, cfg, 6)
    assert abs(k_eval(two_step, cfg, bs.minus[0], bs=bs) - math.pi) < 1e-6
    k_crit = k_eval(two_step, cfg, bs.critical[0], bs=bs)
    assert abs(k_crit.real - math.pi) < 1e-12
    assert abs(k_crit.imag - bs.heights[0]) < 1e-12
    k2 = k_eval(two_step, cfg, bs.critical[1], bs=bs)
    assert abs(k2 - (2 * math.pi + 1j * bs.heights[1])) < 1e-12


def test_cos_of_k_reproduces_discriminant(two_step, structure_factory):
    cfg = MagneticConfig(a=math.pi / 5)
    bs = structure_factory(two_step, cfg, 14)
    lam = bs.lambda0 - 3.0
    while lam < bs.minus[13]:
        k = k_eval(two_step, cfg, lam, bs=bs)
        v, _ = xi(two_step, cfg, lam)
        assert abs(cmath.cos(k) - v) < 1e-10 * max(1.0, abs(v))
        lam += 0.37


def test_k_monotone_on_bands_and_gap_profile(two_step, structure_factory):
    cfg = MagneticConfig(a=0.9)
    bs = structure_factory(two_step, cfg, 4)
    lo, hi = bs.band(2)
    samples = [k_eval(two_step, cfg, lo + (hi - lo) * i / 40, bs=bs).real
               for i in range(1, 40)]
    assert all(a < b for a, b in zip(samples, samples[1:]))
    # on a gap, Im k rises to the critical point then falls
    glo, ghi = bs.gap(2)
    ims = [k_eval(two_step, cfg, glo + (ghi - glo) * i / 20, bs=bs).imag
           for i in range(1, 20)]
    top = max(range(len(ims)), key=lambda i: ims[i])
    assert all(a < b for a, b in zip(ims[:top], ims[1:top + 1]))
    assert all(a > b for a, b in zip(ims[top:], ims[top + 1:]))
    assert max(ims) <= bs.heights[1] + 1e-12


def test_free_height_alternation(zero_q, structure_factory):
    cfg = MagneticConfig(a=math.pi / 5)
    bs = structure_factory(zero_q, cfg, 12)
    ch_even, ch_odd = bare_cosh_heights(cfg.c_abs)
    for n in range(1, 13):
        ref = ch_even if n % 2 == 0 else ch_odd
        assert abs(math.cosh(bs.heights[n - 1]) - ref) < 1e-10


def test_heights_stay_order_one(two_step, structure_factory):
    # the nanotube comb is only bounded (heights approach the bare
    # alternating values instead of decaying like the Hill comb)
    cfg = MagneticConfig(a=math.pi / 5)
    bs = structure_factory(two_step, cfg, 40)
    ch_even, ch_odd = bare_cosh_heights(cfg.c_abs)
    bare_max = math.acosh(max(ch_even, ch_odd))
    tail = bs.heights[19:]
    assert max(tail) < 1.5 * bare_max
    assert min(tail) > 0.25 * math.acosh(min(ch_even, ch_odd))
    far = [abs(math.cosh(bs.heights[n - 1])
               - (ch_even if n % 2 == 0 else ch_odd)) for n in (10, 40)]
    assert far[1] < far[0]


def test_real_part_vanishes_below_spectrum(two_step):
    # the comb convention forces k into the imaginary axis on the ray
    # below the spectrum; any real additive constant is excluded
    cfg = MagneticConfig(a=0.9)
    for y in (3.0, 10.0, 50.0):
        k = k_eval(two_step, cfg, -y * y)
        assert k.real == 0.0
        assert k.imag > 2.0 * y


def test_deep_asymptotics_constant_free_case(zero_q):
    rep = verify_deep_asymptotics(zero_q, MagneticConfig(a=0.0),
                                  [25.0, 50.0, 100.0, 200.0])
    assert rep.resolved == "log(9/(8c))"
    assert abs(rep.const_fit - math.log(9.0 / 8.0)) < 1e-10
    assert abs(rep.shift) < 1e-12


@pytest.mark.parametrize("a", [math.pi / 3, math.pi / 5])
def test_deep_asymptotics_c_dependence_probe(two_step, a):
    # the candidate readings differ in their c-dependence; the fit picks
    # log(9/(8c)) at every phase, rejecting the doubled and c^2 variants
    cfg = MagneticConfig(a=a)
    rep = verify_deep_asymptotics(two_step, cfg, [50.0, 100.0, 200.0])
    assert rep.resolved == "log(9/(8c))"
    target = math.log(9.0 / (8.0 * cfg.c_abs))
    assert abs(rep.const_fit - target) < 1e-4
    others = [v for name, v in rep.candidates if name != rep.resolved]
    assert all(abs(rep.const_fit - v) > 100 * abs(rep.const_fit - target)
               for v in others)


def test_deep_asymptotics_residual_decay(two_step):
    cfg = MagneticConfig(a=math.pi / 5)
    rep = verify_deep_asymptotics(two_step, cfg, [10.0, 20.0, 40.0, 80.0])
    assert rep.residuals[0] > rep.residuals[-1]
    assert rep.decay_exponent < -1.5


def test_kprime_squared_free_case(zero_q):
    rep = verify_kprime_squared(zero_q, MagneticConfig(a=0.0),
                                [-1e4, -1e3])
    assert abs(rep.recovered_q0) < 1e-3
    assert rep.target_q0 == 0.0


def test_kprime_squared_recovers_mean(two_step_mean_one):
    rep = verify_kprime_squared(two_step_mean_one, MagneticConfig(a=math.pi / 5),
                                [-1e4, -1e3])
    assert rep.target_q0 == 1.0
    assert rep.relative_error < 0.05


def test_kprime_squared_shift_covariance(two_step):
    # shifting the potential by a constant moves the recovered limit by
    # exactly that constant (the combination tracks the raw mean)
    cfg = MagneticConfig(a=0.9)
    base = verify_kprime_squared(two_step, cfg, [-1e4])
    shifted = verify_kprime_squared(two_step.shifted(2.0), cfg, [-1e4])
    assert abs((shifted.recovered_q0 - base.recovered_q0) - 2.0) < 1e-3


def test_kprime_squared_rejects_nonnegative_points(zero_q):
    with pytest.raises(ValueError):
        verify_kprime_squared(zero_q, MagneticConfig(a=0.0), [-5.0, 1.0])



@pytest.mark.parametrize("a", [0.9, 2.0])
def test_array_k_eval_equals_scalar_bit_for_bit(two_step, structure_factory,
                                                 a):
    # a grid below the spectrum, through bands and gaps, plus every exact
    # edge and critical point; a = 2.0 has c_j < 0
    cfg = MagneticConfig(a=a)
    bs = structure_factory(two_step, cfg, 8)
    grid = np.concatenate((
        np.linspace(bs.lambda0 - 20.0, bs.minus[6], 157),
        [bs.lambda0], bs.minus[:7], bs.plus[:7], bs.critical[:7]))
    ks = k_eval(two_step, cfg, grid, bs=bs)
    assert ks.dtype == complex and ks.shape == grid.shape
    ref = [complex(k_eval(two_step, cfg, x, bs=bs)) for x in grid.tolist()]
    assert [repr(k) for k in ks.tolist()] == [repr(k) for k in ref]
    # without a structure, one deep enough for the whole array is built
    assert [repr(k) for k in k_eval(two_step, cfg, grid).tolist()] \
        == [repr(k) for k in ref]


def test_asymptotics_checks_match_pointwise_xi(two_step):
    # one array xi call gives the values of the per-lambda formulas
    cfg = MagneticConfig(a=math.pi / 5, N=3, j=1)
    lams = [-1e4, -3e3, -500.0]
    rep = verify_kprime_squared(two_step, cfg, lams)
    ref = []
    for lam in sorted(lams):
        v, d1, _ = _xi_eff(two_step, cfg, lam)
        ref.append(lam * lam * (d1 * d1 / (1.0 - v * v) - 1.0 / lam))
    assert list(rep.values) == ref
    ys = [20.0, 50.0, 100.0]
    deep = verify_deep_asymptotics(two_step, cfg, ys)
    qn = two_step.shifted(deep.shift)
    ref = [_comb_k("below", 0, _xi_eff(qn, cfg, -y * y)[0]).imag - 2.0 * y
           - qn.q0 / y for y in ys]
    assert list(deep.const_estimates) == ref


def test_k_eval_at_every_near_pure_point_edge(two_step):
    # at c = 1e-4, xi ~ 1/c is steep: the structure's own edges sit
    # up to ~1e-11 off the comb, beyond the 1e-12 clamp tolerance but
    # within the edge resolution |xi'| SOLVE_XTOL max(1, |lam|)
    cfg = MagneticConfig(a=math.acos(1e-4))
    bs = band_structure(two_step, cfg, 5)
    assert not any(bs.degenerate)
    k0 = k_eval(two_step, cfg, bs.lambda0, bs)
    assert k0.imag == 0.0 and 0.0 <= k0.real < 1e-5
    offside = 0
    for n in range(1, 6):
        for edge in (bs.minus[n - 1], bs.plus[n - 1]):
            v, d1 = xi(two_step, cfg, edge)
            offside += abs(abs(v) - 1.0) > 1e-12
            assert abs(abs(v) - 1.0) <= 1e-12 + _edge_slack(edge, d1)
            k = k_eval(two_step, cfg, edge, bs)
            assert k.real == math.pi * n and 0.0 <= k.imag < 1e-5
    assert offside  # the clamp tolerance alone would refuse some edge
    edges = np.array([bs.lambda0, *bs.minus, *bs.plus])
    assert [repr(k) for k in k_eval(two_step, cfg, edges, bs).tolist()] \
        == [repr(complex(k_eval(two_step, cfg, x, bs)))
            for x in edges.tolist()]


def test_k_eval_refuses_values_beyond_the_edge_resolution(two_step):
    # points r solver resolutions into gap 1, on a structure whose band 1
    # is stretched over them: xi is off the band by about r times the
    # slack; half a resolution is accepted, three are refused
    cfg = MagneticConfig(a=math.acos(1e-4))
    bs = band_structure(two_step, cfg, 5)
    edge = bs.minus[0]
    res = SOLVE_XTOL * max(1.0, abs(edge))
    for r, ok in ((0.5, True), (3.0, False)):
        lam = edge + r * res
        moved = dataclasses.replace(bs, minus=(lam + 1e-9, *bs.minus[1:]))
        assert moved.locate(lam) == ("band", 1)
        if ok:
            assert k_eval(two_step, cfg, lam, moved) == math.pi
        else:
            with pytest.raises(ValueError, match="off the comb branch"):
                k_eval(two_step, cfg, lam, moved)
    # the slack only widens the accepted range
    assert _comb_k("band", 1, 1.0 + 2e-12, 1e-9) == 0.0
    with pytest.raises(ValueError):
        _comb_k("band", 1, 1.0 + 2e-12)
    with pytest.raises(ValueError):
        _comb_k("band", 1, 1.0 + 2e-9, 1e-9)
    for slack in (0.0, -1.0, math.nan):
        assert _comb_k("gap", 2, 1.0 - 5e-13, slack) == 2.0 * math.pi


@pytest.mark.parametrize("lam, named", [
    (math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf"),
    (np.array([1.0, math.nan]), "nan")])
def test_k_eval_names_a_lambda_that_is_not_finite(two_step, lam, named):
    # a plain ValueError at entry, not an overflow, a conversion error or
    # a lambda "above the structure"
    with pytest.raises(ValueError) as err:
        k_eval(two_step, MagneticConfig(a=0.9), lam)
    assert type(err.value) is ValueError
    assert str(err.value) == f"lambda must be finite, got {named}"


@pytest.mark.parametrize("check, values, message", [
    (verify_kprime_squared, [math.nan], "test lambdas must be finite, got nan"),
    (verify_kprime_squared, [-1e4, math.nan],
     "test lambdas must be finite, got nan"),
    (verify_kprime_squared, [], "test lambdas must be negative, and one "
     "at least"),
    (verify_deep_asymptotics, [math.nan], "y values must be finite, got nan"),
    (verify_deep_asymptotics, [50.0, math.inf],
     "y values must be finite, got inf")])
def test_asymptotics_checks_name_a_value_that_is_not_finite(
        two_step, check, values, message):
    with pytest.raises(ValueError) as err:
        check(two_step, MagneticConfig(a=0.9), values)
    assert type(err.value) is ValueError and str(err.value) == message

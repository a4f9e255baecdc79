import cmath
import math

import numpy as np
import pytest

from nanoband.masses import (bare_mass, fit_tail,
                             verify_mass_asymptotics, verify_mass_series,
                             verify_partial_fraction, verify_trace_identity)
from nanoband.potential import make_potential
from nanoband.spectrum import (MagneticConfig, bare_edge, bare_edge_z, d2F0,
                               gap_phase_even, gap_phase_odd)
from nanoband.verifier import check_height_mass_gap, check_merged_band_bound
from oracles import mass_from_curvature


def test_bare_mass_closed_values():
    # c = 1/2: phase_even = arccos(-1/9)/2, lowest mass (9/4) sin(2p)/p
    c = 0.5
    p0 = gap_phase_even(c)
    ref0 = (9.0 / (8.0 * c)) * math.sin(2.0 * p0) / p0
    assert abs(bare_mass(c, 0, +1) - ref0) < 1e-14
    ref2 = (9.0 / (8.0 * c)) * math.sin(2.0 * p0) / (math.pi + p0)
    assert abs(bare_mass(c, 2, +1) - ref2) < 1e-14
    assert abs(bare_mass(c, 2, -1) + (9.0 / (8.0 * c)) * math.sin(2.0 * p0)
               / (math.pi - p0)) < 1e-14


def test_bare_mass_degenerate_gaps_vanish():
    assert bare_mass(1.0, 2, +1) == pytest.approx(0.0, abs=1e-15)
    assert bare_mass(0.5, 3, -1) == pytest.approx(0.0, abs=1e-15)


def test_bare_mass_sinc_limit_at_full_c():
    # c -> 1: phase_even -> 0 and the lowest mass tends to 9/4
    assert abs(bare_mass(1.0, 0, +1) - 2.25) < 1e-12


def test_bare_mass_rejects_missing_edge():
    with pytest.raises(ValueError):
        bare_mass(0.5, 0, -1)


def _scalar_bare_z(c, n, sign):
    """The zero-potential edge z one gap at a time (n >= 1): the reference
    for the array form."""
    phase = (gap_phase_even(c), gap_phase_odd(c))[n % 2]
    return 0.5 * math.pi * n + (phase if sign > 0 else -phase)


def _scalar_bare_mass(c, n, sign):
    z = _scalar_bare_z(c, n, sign)
    return (9.0 * (1.0 if n % 2 == 0 else -1.0) / (8.0 * c)) \
        * math.sin(2.0 * z) / z


@pytest.mark.parametrize("c", [1.0, 0.9, 0.5, 1e-4])
def test_array_bare_forms_equal_scalar_formulas(c):
    ns = range(1, 3001)
    for sign in (+1, -1):
        for array_form, scalar_form in ((bare_edge_z, _scalar_bare_z),
                                        (bare_mass, _scalar_bare_mass)):
            want = repr([scalar_form(c, n, sign) for n in ns])
            assert repr(array_form(c, np.array(ns), sign).tolist()) == want
            assert repr([array_form(c, n, sign) for n in ns]) == want


def test_computed_masses_match_bare_for_zero_potential(zero_q, mass_factory):
    for a in (0.2, math.pi / 3, 1.3):
        c = math.cos(a)
        mt = mass_factory(zero_q, MagneticConfig(a=a), 20)
        assert abs(mt.mu0 - bare_mass(c, 0, +1)) < 1e-8
        for n in range(1, 21):
            assert abs(mt.plus[n - 1] - bare_mass(c, n, +1)) < 1e-8
            assert abs(mt.minus[n - 1] - bare_mass(c, n, -1)) < 1e-8


def test_mass_signs_and_pair_decay(zero_q, mass_factory, structure_factory):
    cfg = MagneticConfig(a=math.pi / 5)
    bs = structure_factory(zero_q, cfg, 40)
    mt = mass_factory(zero_q, cfg, 40)
    assert mt.mu0 > 0
    for n in range(1, 41):
        if bs.degenerate[n - 1]:
            assert mt.plus[n - 1] == 0.0 and mt.minus[n - 1] == 0.0
            continue
        assert mt.plus[n - 1] > 0
        assert mt.minus[n - 1] < 0
        assert mt.pair_sum(n) < 0
    # pair sums decay like 1/n^2: n^2 * pair stays bounded (the even and
    # odd subsequences carry different constants, so compare tail vs head)
    scaled = [n * n * abs(mt.pair_sum(n)) for n in range(10, 41)]
    assert max(scaled[15:]) <= 1.2 * max(scaled[:15])


def test_mass_against_curvature_fit_oracle(zero_q, two_step,
                                           structure_factory, mass_factory):
    cfg = MagneticConfig(a=math.pi / 3)
    bs = structure_factory(zero_q, cfg, 8)
    mt = mass_factory(zero_q, cfg, 8)
    for n, sign in ((0, +1), (2, +1), (2, -1)):
        fit = mass_from_curvature(zero_q, cfg, bs, n, sign)
        exact = mt.mu0 if n == 0 else \
            (mt.plus if sign > 0 else mt.minus)[n - 1]
        assert abs(fit - exact) <= 1e-4 * abs(exact)
    cfg2 = MagneticConfig(a=0.9)
    bs2 = structure_factory(two_step, cfg2, 8)
    mt2 = mass_factory(two_step, cfg2, 8)
    for n, sign in ((1, +1), (3, -1)):
        fit = mass_from_curvature(two_step, cfg2, bs2, n, sign)
        exact = (mt2.plus if sign > 0 else mt2.minus)[n - 1]
        assert abs(fit - exact) <= 1e-4 * abs(exact)


def test_trace_identity_free_cases(zero_q, mass_factory):
    for a in (0.0, math.pi / 3):
        mt = mass_factory(zero_q, MagneticConfig(a=a), 200)
        rep = verify_trace_identity(mt)
        assert rep.residual < 1e-3
        assert abs(rep.partial_sum - 2.0) < 0.05


def test_trace_identity_two_step(two_step, mass_factory):
    mt = mass_factory(two_step, MagneticConfig(a=math.pi / 5), 200)
    rep = verify_trace_identity(mt)
    assert rep.residual < 1e-3


def test_trace_bookkeeping_without_bottom_term(zero_q, mass_factory):
    # dropping the lowest mass must shift the sum by exactly that mass
    mt = mass_factory(zero_q, MagneticConfig(a=math.pi / 3), 200)
    full = verify_trace_identity(mt)
    import dataclasses
    headless = dataclasses.replace(mt, mu0=0.0)
    rep = verify_trace_identity(headless)
    assert abs((full.extrapolated - rep.extrapolated) - mt.mu0) < 1e-9


def test_trace_requires_enough_entries(zero_q, mass_factory):
    mt = mass_factory(zero_q, MagneticConfig(a=0.9), 10)
    for n_max in (50, 0, -1):
        with pytest.raises(ValueError, match=rf"n_max={n_max} outside"):
            verify_trace_identity(mt, n_max)


def test_partial_fraction_identity(zero_q, structure_factory, mass_factory):
    cfg = MagneticConfig(a=math.pi / 3)
    bs = structure_factory(zero_q, cfg, 500)
    mt = mass_factory(zero_q, cfg, 500)
    checks = verify_partial_fraction(mt, bs, [-5.0, -20.0, -100.0])
    for chk in checks:
        assert chk.residual_rel < 1e-3


def test_partial_fraction_deep_limit(two_step, structure_factory,
                                     mass_factory):
    # at lambda = -1e4 both sides approach 1/lambda within 1e-2 relative
    cfg = MagneticConfig(a=math.pi / 5)
    bs = structure_factory(two_step, cfg, 500)
    mt = mass_factory(two_step, cfg, 500)
    chk, = verify_partial_fraction(mt, bs, [-1e4])
    assert chk.residual_rel < 1e-3
    assert abs(chk.direct - 1.0 / -1e4) <= 1e-2 * abs(1.0 / -1e4)


def test_partial_fraction_rejects_points_near_edges(zero_q,
                                                    structure_factory,
                                                    mass_factory):
    cfg = MagneticConfig(a=math.pi / 3)
    bs = structure_factory(zero_q, cfg, 20)
    mt = mass_factory(zero_q, cfg, 20)
    with pytest.raises(ValueError):
        verify_partial_fraction(mt, bs, [bs.lambda0 + 0.01])


_PF_LAMS = [-5.0, -20.0]


@pytest.mark.parametrize("read", [
    lambda mt, bs: verify_partial_fraction(mt, bs, _PF_LAMS),
    lambda mt, bs: verify_mass_series(mt, bs, 1, +1),
    lambda mt, bs: verify_mass_asymptotics(mt, bs, range(1, 11)),
    lambda mt, bs: check_height_mass_gap(bs, mt),
    lambda mt, bs: check_merged_band_bound(bs, mt)],
    ids=["partial_fraction", "mass_series", "mass_asymptotics",
         "height_mass_gap", "merged_band_bound"])
@pytest.mark.parametrize("other", ["potential", "sector", "deeper",
                                   "shallower"])
def test_readers_reject_a_mass_table_of_another_structure(
        two_step, zero_q, structure_factory, mass_factory, read, other):
    cfg = MagneticConfig(a=0.9)
    bs = structure_factory(two_step, cfg, 20)
    read(mass_factory(two_step, cfg, 20), bs)
    mt = {"potential": lambda: mass_factory(zero_q, cfg, 20),
          "sector": lambda: mass_factory(two_step, MagneticConfig(a=1.1), 20),
          "deeper": lambda: mass_factory(two_step, cfg, 40),
          "shallower": lambda: mass_factory(two_step, cfg, 10)}[other]()
    with pytest.raises(ValueError, match="mass table"):
        read(mt, bs)


def test_readers_take_the_mass_table_of_a_renamed_structure(
        two_step, structure_factory, mass_factory):
    # a label and a field strength B name the inputs of a structure; the
    # table of the same pieces and sector phase is its mass table
    named = MagneticConfig.from_field(2.0, 3)
    bs = structure_factory(two_step, MagneticConfig(a=named.a, N=3), 20)
    mt = mass_factory(make_potential(two_step, label="renamed"), named, 20)
    verify_partial_fraction(mt, bs, _PF_LAMS)
    assert check_height_mass_gap(bs, mt).checked


def test_mass_series_rejects_an_edge_outside_the_structure(
        two_step, structure_factory, mass_factory):
    cfg = MagneticConfig(a=0.9)
    bs = structure_factory(two_step, cfg, 5)
    mt = mass_factory(two_step, cfg, 5)
    for n in (-1, 6):
        with pytest.raises(ValueError, match=rf"n={n} outside 0\.\.5"):
            verify_mass_series(mt, bs, n, +1)
    verify_mass_series(mt, bs, 5, +1)


def test_mass_series_rejects_a_term_count_below_one(
        two_step, structure_factory, mass_factory):
    # m_max = 0 must not pass for None (every term)
    cfg = MagneticConfig(a=0.9)
    bs = structure_factory(two_step, cfg, 5)
    mt = mass_factory(two_step, cfg, 5)
    for m_max in (0, -2):
        with pytest.raises(ValueError, match=rf"m_max={m_max} must be >= 1"):
            verify_mass_series(mt, bs, 1, +1, m_max)
    assert verify_mass_series(mt, bs, 1, +1, 1).m_terms == 1


def test_mass_series_even_edges(zero_q, structure_factory, mass_factory):
    # c = 1/2: odd gaps degenerate, their coinciding edges enter twice
    cfg = MagneticConfig(a=math.pi / 3)
    bs = structure_factory(zero_q, cfg, 4000)
    mt = mass_factory(zero_q, cfg, 4000)
    for sign in (+1, -1):
        rep = verify_mass_series(mt, bs, 2, sign)
        assert rep.residual < 1e-4
    rep0 = verify_mass_series(mt, bs, 0, +1)
    assert rep0.residual < 1e-4


def test_mass_series_odd_edge(two_step, structure_factory, mass_factory):
    cfg = MagneticConfig(a=0.9)
    bs = structure_factory(two_step, cfg, 4000)
    mt = mass_factory(two_step, cfg, 4000)
    rep = verify_mass_series(mt, bs, 1, +1)
    assert rep.residual < 1e-3
    rep = verify_mass_series(mt, bs, 3, -1)
    assert rep.residual < 1e-3


def test_mass_series_rejects_degenerate_edge(zero_q, structure_factory,
                                             mass_factory):
    cfg = MagneticConfig(a=math.pi / 3)
    bs = structure_factory(zero_q, cfg, 4000)
    mt = mass_factory(zero_q, cfg, 4000)
    with pytest.raises(ValueError):
        verify_mass_series(mt, bs, 1, -1)
    with pytest.raises(ValueError):
        verify_mass_series(mt, bs, 0, -1)


def test_mass_asymptotics_zero_potential_exact(zero_q, structure_factory,
                                               mass_factory):
    cfg = MagneticConfig(a=math.pi / 5)
    bs = structure_factory(zero_q, cfg, 30)
    mt = mass_factory(zero_q, cfg, 30)
    rep = verify_mass_asymptotics(mt, bs, range(5, 31))
    assert max(abs(r) for r in rep.r_plus + rep.r_minus) < 1e-9
    assert max(abs(e) for e in rep.eps_plus + rep.eps_minus) < 1e-8


def test_mass_asymptotics_translation_invariance(structure_factory,
                                                 mass_factory):
    # constant potential: spectrum shifts, eps vanishes, masses are bare
    q = make_potential([(1.0, 2.5)], label="const")
    cfg = MagneticConfig(a=math.pi / 5)
    bs = structure_factory(q, cfg, 20)
    mt = mass_factory(q, cfg, 20)
    rep = verify_mass_asymptotics(mt, bs, range(1, 21))
    assert max(abs(e) for e in rep.eps_plus + rep.eps_minus) < 1e-8
    assert max(abs(r) for r in rep.r_plus + rep.r_minus) < 1e-8


def test_mass_asymptotics_two_step_bounded(two_step, structure_factory,
                                           mass_factory):
    cfg = MagneticConfig(a=math.pi / 5)
    bs = structure_factory(two_step, cfg, 60)
    mt = mass_factory(two_step, cfg, 60)
    rep = verify_mass_asymptotics(mt, bs, range(20, 61))
    assert rep.bounded_ratio < 10.0
    assert not rep.weak_even_correction


def test_curvature_correction_scale():
    # d2F0 at the bare edge carries the expected 1/n^2 falloff
    c = math.cos(math.pi / 5)
    vals = [abs(d2F0(bare_edge(c, n, +1))) * n * n for n in range(5, 40)]
    assert max(vals) < 3.0 * min(vals)


def test_d2F0_matches_finite_difference():
    # central difference of F0' = -(9/8) sin(2 sqrt(lam)) / sqrt(lam) on
    # both sides of lam = 0 (the complex root gives the sinh branch)
    def dF0(lam):
        z = cmath.sqrt(lam)
        return (-(9.0 / 8.0) * cmath.sin(2.0 * z) / z).real

    for lam in (-30.0, -1.0, -1e-5, 5e-5, 2.0, 400.0):
        h = 1e-6 * max(1.0, abs(lam))
        fd = (dF0(lam + h) - dF0(lam - h)) / (2.0 * h)
        assert abs(d2F0(lam) - fd) < 1e-6 * max(1.0, abs(fd)), lam


def test_fit_tail_recovers_limit():
    ns = list(range(1, 201))
    sums = [5.0 - 3.0 / n for n in ns]
    assert abs(fit_tail(ns, sums) - 5.0) < 1e-12


def _loop_sums(first, terms, scale=1.0):
    ns, sums, acc = [], [], first
    for n, t in enumerate(terms, 1):
        acc += t
        ns.append(n)
        sums.append(scale * acc)
    return ns, sums


def _loop_checks(bs, mt, lams, edges):
    """The three series checks summed term by term in Python floats."""
    out = []
    ns, sums = _loop_sums(mt.mu0, [mt.plus[n] + mt.minus[n]
                                   for n in range(bs.n_max)])
    ext = fit_tail(ns, sums)
    out.append((sums[-1], ext, abs(ext - 2.0)))
    for lam in lams:
        terms = []
        for sp, sm, lp, lm in zip(mt.plus, mt.minus, bs.plus, bs.minus):
            a_n = 0.5 * (sp + sm) * (1.0 / (lam - lp) + 1.0 / (lam - lm))
            b_n = 0.5 * (sp - sm) * (1.0 / (lam - lp) - 1.0 / (lam - lm))
            terms.append(a_n + b_n)
        out.append(fit_tail(*_loop_sums(mt.mu0 / (lam - bs.lambda0), terms,
                                        0.5)))
    for n, sign, m_max in edges:
        target = bs.lambda0 if n == 0 else (bs.plus if sign > 0
                                            else bs.minus)[n - 1]
        odd = n % 2
        limit = bs.n_max // 2 if odd else (bs.n_max + 1) // 2
        m_stop = min(m_max, limit) if m_max else limit
        first = 1.0 / (bs.lambda0 - target) if odd else 0.0
        terms = [1.0 / (bs.minus[2 * m - 2 + odd] - target)
                 + 1.0 / (bs.plus[2 * m - 2 + odd] - target)
                 for m in range(1, m_stop + 1)]
        out.append((fit_tail(*_loop_sums(first, terms, 2.0)), m_stop))
    return out


@pytest.mark.parametrize("name, a", [("zero", 0.0), ("two-step", 0.9)])
def test_series_checks_equal_term_by_term_loops(name, a, structure_factory,
                                                mass_factory):
    # at c = 1 the even gaps of the zero potential are closed and enter
    # the odd-edge series as coinciding pairs
    q, cfg = make_potential(name), MagneticConfig(a=a)
    bs, mt = structure_factory(q, cfg, 41), mass_factory(q, cfg, 41)
    lams = (3.3, 47.5, 250.3)
    edges = [(0, +1, None), (1, -1, None), (3, +1, 7), (5, -1, 100)]
    if name == "zero":
        assert all(bs.degenerate[1::2])
    else:
        edges += [(2, +1, None), (4, -1, 3), (40, +1, None)]
    tr = verify_trace_identity(mt)
    got = [(tr.partial_sum, tr.extrapolated, tr.residual)]
    got += [c.series for c in verify_partial_fraction(mt, bs, lams)]
    got += [(c.series, c.m_terms) for c in (
        verify_mass_series(mt, bs, n, sign, m_max)
        for n, sign, m_max in edges)]
    assert repr(got) == repr(_loop_checks(bs, mt, lams, edges))

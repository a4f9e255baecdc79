import math

import pytest

from nanoband import monodromy
from nanoband.potential import fourier_coeffs, make_potential
from nanoband.spectrum import (MagneticConfig, PurePointRegimeError,
                               band_structure, bare_cosh_heights, bare_edge,
                               bare_edge_z, flat_spectrum, gap_phase_even,
                               gap_phase_odd, xi)


def test_magnetic_config_basics():
    cfg = MagneticConfig(a=0.3, N=5, j=2)
    assert abs(cfg.a_j - (0.3 + 2 * math.pi / 5)) < 1e-15
    assert abs(cfg.c_j ** 2 + cfg.s_j ** 2 - 1.0) < 1e-15
    with pytest.raises(ValueError):
        MagneticConfig(a=0.1, N=0)


@pytest.mark.parametrize("make", [
    lambda: MagneticConfig(a=math.nan), lambda: MagneticConfig(a=math.inf),
    lambda: MagneticConfig(a=-math.inf, N=3, j=1),
    lambda: MagneticConfig.from_field(math.nan, 2),
    lambda: MagneticConfig.from_field(math.inf, 4, 1)],
    ids=["a=nan", "a=inf", "a=-inf", "B=nan", "B=inf"])
def test_non_finite_phase_is_rejected(make):
    with pytest.raises(ValueError, match="magnetic phase a must be finite"):
        make()


def test_magnetic_config_phase_is_cached_outside_the_fields():
    cfg = MagneticConfig(a=2.2, N=3, j=1)
    fresh = MagneticConfig(a=2.2, N=3, j=1)
    a_j = 2.2 + math.pi * 1 / 3
    assert (cfg.a_j, cfg.c_j, cfg.s_j, cfg.c_abs) \
        == (a_j, math.cos(a_j), math.sin(a_j), abs(math.cos(a_j)))
    assert cfg.c_j is cfg.c_j  # computed once
    assert cfg == fresh and hash(cfg) == hash(fresh)
    assert repr(cfg) == repr(fresh) \
        == "MagneticConfig(a=2.2, N=3, j=1, B=None)"
    with pytest.raises(AttributeError):
        cfg.a = 1.0


def test_magnetic_config_from_field():
    cfg = MagneticConfig.from_field(B=2.0, N=4, j=1)
    ref = (3.0 * 2.0 / 16.0) / math.tan(math.pi / 8)
    assert abs(cfg.a - ref) < 1e-15
    assert cfg.B == 2.0


@pytest.mark.parametrize("N", [0, -3])
def test_magnetic_config_from_field_rejects_a_bad_N(N):
    # the same error as the constructor's, not a division by zero
    with pytest.raises(ValueError, match="N must be a positive integer"):
        MagneticConfig.from_field(B=1.0, N=N)


def test_xi_free_values(zero_q):
    cfg = MagneticConfig(a=0.0)
    v, _ = xi(zero_q, cfg, (math.pi / 3) ** 2)
    assert abs(v - (-0.6875)) < 1e-12
    v, _ = xi(zero_q, cfg, (math.pi / 2) ** 2)
    assert abs(v - (-1.25)) < 1e-12


@pytest.mark.parametrize("a", [0.2, math.pi / 5, 1.2])
def test_xi_at_zero_matches_closed_form(zero_q, a):
    # xi(0) = (1 + s^2)/c = (2 - c^2)/c, the maximum over the real line
    cfg = MagneticConfig(a=a)
    c = cfg.c_j
    v, _ = xi(zero_q, cfg, 0.0)
    assert abs(v - (2.0 - c * c) / c) < 1e-12


def test_xi_free_grid_matches_closed_form(zero_q):
    cfg = MagneticConfig(a=math.pi / 5)
    c, s2 = cfg.c_j, cfg.s_j ** 2
    for i in range(1000):
        lam = -20.0 + 0.12 * i
        v, _ = xi(zero_q, cfg, lam)
        if lam >= 0:
            f0 = (9.0 * math.cos(2.0 * math.sqrt(lam)) - 1.0) / 8.0
        else:
            f0 = (9.0 * math.cosh(2.0 * math.sqrt(-lam)) - 1.0) / 8.0
        assert abs(v - (f0 + s2) / c) < 1e-11 * max(1.0, abs(v))


def test_xi_requires_nonzero_c(zero_q):
    with pytest.raises(PurePointRegimeError):
        xi(zero_q, MagneticConfig(a=math.pi / 2), 1.0)
    with pytest.raises(PurePointRegimeError):
        band_structure(zero_q, MagneticConfig(a=math.pi / 2), 3)


def test_free_structure_no_field(zero_q, structure_factory):
    # c = 1: phase_even = 0, the bottom sits at 0 and even gaps collapse
    bs = structure_factory(zero_q, MagneticConfig(a=0.0), 8)
    assert abs(bs.lambda0) < 1e-12
    ph1 = gap_phase_odd(1.0)
    assert abs(math.cos(2 * ph1) - 7.0 / 9.0) < 1e-15
    assert abs(bs.minus[0] - (math.pi / 2 - ph1) ** 2) < 1e-10
    assert abs(bs.plus[0] - (math.pi / 2 + ph1) ** 2) < 1e-10
    for n in range(1, 9):
        assert bs.degenerate[n - 1] == (n % 2 == 0)


def test_free_structure_half_c(zero_q, structure_factory):
    # c = 1/2: odd gaps collapse; even heights satisfy cosh h = 3.5
    bs = structure_factory(zero_q, MagneticConfig(a=math.pi / 3), 8)
    for n in range(1, 9):
        assert bs.degenerate[n - 1] == (n % 2 == 1)
        if n % 2 == 0:
            assert abs(math.cosh(bs.heights[n - 1]) - 3.5) < 1e-10
        else:
            assert bs.heights[n - 1] == 0.0
    assert abs(bs.heights[1] - math.acosh(3.5)) < 1e-12


def test_bare_closed_forms_internal_consistency():
    for c in (1.0, 0.9, 0.5, math.cos(0.45 * math.pi)):
        p0 = gap_phase_even(c)
        assert abs(math.cos(2 * p0) - (8.0 / 9.0) * (c * c + c - 7.0 / 8.0)) < 1e-14
        ch0, ch1 = bare_cosh_heights(c)
        assert ch0 >= 1.0 and ch1 >= 1.0
        assert bare_edge(c, 0, +1) == bare_edge_z(c, 0, +1) ** 2


def test_edge_labeling_and_interlacing(two_step, structure_factory):
    cfg = MagneticConfig(a=0.9)
    bs = structure_factory(two_step, cfg, 12)
    seq = [bs.lambda0]
    for n in range(1, 13):
        seq += [bs.minus[n - 1], bs.plus[n - 1]]
    assert all(a <= b + 1e-12 for a, b in zip(seq, seq[1:]))
    for n in range(1, 13):
        v, _ = xi(two_step, cfg, bs.minus[n - 1])
        assert abs(v - (-1.0) ** n) < 1e-10
        v, _ = xi(two_step, cfg, bs.plus[n - 1])
        assert abs(v - (-1.0) ** n) < 1e-10
        assert bs.minus[n - 1] - 1e-9 <= bs.critical[n - 1] \
            <= bs.plus[n - 1] + 1e-9
        t = (-1.0) ** n
        assert t * xi(two_step, cfg, bs.critical[n - 1])[0] >= 1.0 - 1e-12
    assert not bs.anomalies


def test_all_gaps_open_for_generic_c(two_step, three_step, zero_q,
                                     structure_factory):
    for q in (zero_q, two_step, three_step):
        bs = structure_factory(q, MagneticConfig(a=0.9), 20)
        assert not any(bs.degenerate)


def test_edge_asymptotics_shift_by_mean(two_step, three_step,
                                        structure_factory):
    # edge - bare edge - q0 shrinks with n (tested as a trend, not a rate)
    for q in (two_step, three_step):
        cfg = MagneticConfig(a=math.pi / 5)
        bs = structure_factory(q, cfg, 50)
        c = cfg.c_abs

        def resid(n):
            return max(abs(bs.minus[n - 1] - bare_edge(c, n, -1) - q.q0),
                       abs(bs.plus[n - 1] - bare_edge(c, n, +1) - q.q0))

        assert resid(50) < resid(10)


def test_half_c_gap_lengths_follow_cosine_coefficients(two_step,
                                                       structure_factory):
    # at c = 1/2 odd gaps open with half-length -> |q_tilde_cn|;
    # checked as a decreasing-residual trend
    cfg = MagneticConfig(a=math.pi / 3)
    bs = structure_factory(two_step, cfg, 45)
    resids = []
    for n in (5, 15, 45):
        half = 0.5 * bs.gap_length(n)
        target = abs(fourier_coeffs(two_step, n).q_tilde_c)
        resids.append(abs(half - target))
    assert resids[0] > resids[1] > resids[2]


def test_flat_spectrum_free_case(zero_q):
    fs = flat_spectrum(zero_q, MagneticConfig(a=0.7), 5)
    assert fs.f_locus == ()
    for n, mu in enumerate(fs.dirichlet, start=1):
        assert abs(mu - (math.pi * n) ** 2) < 1e-10


def test_flat_spectrum_pure_point_free_case(zero_q):
    # c = 0 adds the locus cos(2 sqrt(lambda)) = -7/9
    fs = flat_spectrum(zero_q, MagneticConfig(a=math.pi / 2), 4)
    zeta = 0.5 * math.acos(-7.0 / 9.0)
    expected = sorted((m * math.pi + s * zeta) ** 2
                      for m in range(0, 5) for s in (+1, -1)
                      if m * math.pi + s * zeta > 0)
    assert len(fs.f_locus) >= 6
    for got, ref in zip(fs.f_locus, expected):
        assert abs(got - ref) < 1e-9


def test_flat_spectrum_equals_dirichlet_for_generic_c(two_step):
    from nanoband.monodromy import dirichlet_spectrum
    fs = flat_spectrum(two_step, MagneticConfig(a=0.9), 4)
    assert fs.f_locus == ()
    assert fs.dirichlet == dirichlet_spectrum(two_step, 4)


def test_flat_bands_are_solved_on_first_read_and_once(two_step,
                                                      monkeypatch):
    calls = []
    solve = monodromy.dirichlet_spectrum

    def counted(q, n_max):
        calls.append((q, n_max))
        return solve(q, n_max)

    monkeypatch.setattr(monodromy, "dirichlet_spectrum", counted)
    bs = band_structure(two_step, MagneticConfig(a=0.9), 20)
    assert calls == []
    first, second = bs.flat_bands, bs.flat_bands
    assert calls == [(two_step, 20)] and first is second
    assert repr(first) == repr(solve(two_step, 20))


@pytest.mark.parametrize("read", [
    lambda bs, n: bs.band(n), lambda bs, n: bs.band_length(n),
    lambda bs, n: bs.gap(n), lambda bs, n: bs.gap_length(n)],
    ids=["band", "band_length", "gap", "gap_length"])
def test_band_and_gap_indices_outside_the_structure_are_rejected(
        two_step, structure_factory, read):
    # a python index would wrap (n = 0, -1) or run off the end (n = 6)
    bs = structure_factory(two_step, MagneticConfig(a=0.9), 5)
    for n in (0, -1, 6):
        with pytest.raises(ValueError, match=rf"n={n} outside 1\.\.5"):
            read(bs, n)
    read(bs, 1)
    read(bs, 5)


def test_merged_intervals_pairing_at_no_field(zero_q, structure_factory):
    # even gaps degenerate: bands merge pairwise through them
    bs = structure_factory(zero_q, MagneticConfig(a=0.0), 9)
    merged = bs.merged_intervals()
    counts = [n1 - n for n, n1, _, _ in merged]
    assert counts[0] == 1            # first band alone (gap 1 open)
    assert all(c == 2 for c in counts[1:])
    n, n1, lo, hi = merged[1]
    assert (n, n1) == (1, 3)
    assert abs(lo - bs.plus[0]) < 1e-12
    assert abs(hi - bs.minus[2]) < 1e-12


def test_merged_intervals_all_simple_for_generic_c(two_step,
                                                   structure_factory):
    bs = structure_factory(two_step, MagneticConfig(a=0.9), 6)
    assert all(n1 - n == 1 for n, n1, _, _ in bs.merged_intervals())


def test_locate_classification(two_step, structure_factory):
    bs = structure_factory(two_step, MagneticConfig(a=0.9), 6)
    assert bs.locate(bs.lambda0 - 5.0) == ("below", 0)
    mid_band = 0.5 * (bs.lambda0 + bs.minus[0])
    assert bs.locate(mid_band) == ("band", 1)
    assert bs.locate(bs.critical[2]) == ("gap", 3)
    with pytest.raises(ValueError):
        bs.locate(bs.plus[-1] + 1e3)


def _locate_by_scan(bs, lam):
    """The classification by a linear scan over the gaps."""
    if lam < bs.lambda0:
        return ("below", 0)
    for n in range(1, bs.n_max + 1):
        left = bs.lambda0 if n == 1 else bs.plus[n - 2]
        if left <= lam < bs.minus[n - 1]:
            return ("band", n)
        if bs.minus[n - 1] <= lam <= bs.plus[n - 1]:
            return ("gap", n)
    raise ValueError(lam)


@pytest.mark.parametrize("q, a", [("two-step", 0.9), ("zero", 0.0)])
def test_locate_bisection_agrees_with_a_linear_scan(q, a):
    # 130 gaps; at c = 1 the even gaps of the zero potential are closed
    bs = band_structure(make_potential(q), MagneticConfig(a=a), 130)
    assert (any(bs.degenerate) and not all(bs.degenerate)) == (q == "zero")
    edges = [bs.lambda0]
    for lo, hi in zip(bs.minus, bs.plus):
        edges += (lo, hi)
    points = (edges + list(bs.critical) + [bs.lambda0 - 1.0]
              + [0.5 * (x + y) for x, y in zip(edges, edges[1:])])
    for lam in points:
        assert bs.locate(lam) == _locate_by_scan(bs, lam), lam
    for lam in (bs.plus[-1] + 1e-9, math.inf, math.nan):
        with pytest.raises(ValueError):
            bs.locate(lam)


def test_negative_c_sector_uses_reflected_phase(two_step):
    # a_j in (pi/2, pi): c_j < 0; labeling runs at |c_j| and the spectrum
    # agrees with the reflected-phase structure point by point
    cfg_neg = MagneticConfig(a=2.0)
    cfg_ref = MagneticConfig(a=math.pi - 2.0)
    assert cfg_neg.c_j < 0
    b1 = band_structure(two_step, cfg_neg, 5)
    b2 = band_structure(two_step, cfg_ref, 5)
    assert b1.xi_sign == -1.0
    for x, y in zip(b1.minus + b1.plus, b2.minus + b2.plus):
        assert abs(x - y) < 1e-10

"""The array-state engine against the float lanes it replaces where the
lane rule `_rootfind._lockstep` says so (from _LOCKSTEP_GAPS lanes up
to 8 pieces, from 256 / pieces beyond): `transfer` on an array equals
`transfer` at each entry exactly, and structures, flat bands, Dirichlet
roots, flat spectra and masses built on arrays equal a
shallow float build gap for gap, and a float build of the same depth
entry for entry (`==`, not a tolerance), with the same errors, 64-piece
structures included.  Shallow structures and short evaluations of a
potential of few pieces never reach the array jet.  The scan runs on
arrays at every size and equals the float reference `reference_scan` of
tests/oracles.py lane for lane."""

import math
import random

import numpy as np
import pytest

from nanoband import _rootfind, monodromy
from nanoband._rootfind import (_LOCKSTEP_GAPS, _LOCKSTEP_WORK,
                                RootBracketError, _roots_all, _solve_all,
                                comb_roots)
from nanoband.masses import effective_masses
from nanoband.monodromy import dirichlet_spectrum, transfer
from nanoband.potential import make_potential
from nanoband.spectrum import (F_with_derivs, MagneticConfig, band_structure,
                               flat_spectrum)
from oracles import reference_scan

SHALLOW = 20
DEEP = _LOCKSTEP_GAPS + 30
WIDE = 549  # lanes of a phase many times _LOCKSTEP_GAPS


def _random_potential(rng, m, vmax=8.0):
    return make_potential([(rng.uniform(0.1, 1.0), rng.uniform(-vmax, vmax))
                           for _ in range(m)])


def _projection():
    return make_potential(
        lambda t: 5.0 * math.cos(2.0 * math.pi * t) + 2.0 * t, mesh=64)


@pytest.mark.parametrize("m", [1, 2, 3, 6, 64])
def test_batched_jet_equals_transfer(m):
    rng = random.Random(m)
    q = _random_potential(rng, m, vmax=30.0)
    vs = [v for _, v in q.pieces]
    lams = ([rng.uniform(-100.0, 3000.0) for _ in range(200)]
            + vs + [v + 1e-7 for v in vs] + [v - 1e-7 for v in vs])
    batches = [lams] + [[lam] for lam in lams[::25] + vs[:2]]
    for batch in batches:
        got = transfer(q, np.array(batch))
        for k, lam in enumerate(batch):
            want = transfer(q, lam)
            assert [[e[k] for e in mat] for mat in got] \
                == [list(mat) for mat in want], (m, lam)
    # an array of any shape gives entries of its shape
    grid = np.array(lams[:6]).reshape(2, 3)
    assert [[e.tolist() for e in mat] for mat in transfer(q, grid)] \
        == [[e.reshape(2, 3).tolist() for e in mat]
            for mat in transfer(q, grid.ravel())]


def _sectors(rng):
    yield MagneticConfig(a=2.2)  # c_j < 0
    for _ in range(3):
        cfg = MagneticConfig(a=rng.uniform(0.0, math.pi),
                             N=rng.randint(1, 6), j=rng.randint(0, 5))
        if 0.15 <= cfg.c_abs <= 0.9:
            yield cfg


@pytest.mark.parametrize("seed", [1, 2])
def test_lockstep_and_sequential_paths_agree(seed):
    rng = random.Random(seed)
    for cfg in _sectors(rng):
        q = _random_potential(rng, rng.randint(1, 4), vmax=6.0)
        deep = band_structure(q, cfg, DEEP)
        shallow = band_structure(q, cfg, SHALLOW)
        assert deep.lambda0 == shallow.lambda0
        for field in ("minus", "plus", "critical", "degenerate", "heights",
                      "flat_bands"):
            assert getattr(deep, field)[:SHALLOW] == getattr(shallow, field)
        assert not shallow.anomalies
        assert dirichlet_spectrum(q, DEEP)[:SHALLOW] == shallow.flat_bands
        m_deep = effective_masses(deep)
        m_shallow = effective_masses(shallow)
        assert m_deep.mu0 == m_shallow.mu0
        assert m_deep.plus[:SHALLOW] == m_shallow.plus
        assert m_deep.minus[:SHALLOW] == m_shallow.minus


def _cosine_comb(x):
    """f = 1.5 cos(pi x) with f', f'' on a float or an array: gap n has
    its critical point at x = n."""
    return (1.5 * np.cos(np.pi * x), -1.5 * np.pi * np.sin(np.pi * x),
            -1.5 * np.pi ** 2 * np.cos(np.pi * x))


def _windows(depth, bad=(), shift=None):
    """Critical windows (n - 1/2, n + 1/2) of gaps 1 .. depth + 1, as the
    arrays (lo, hi); those of gaps `bad` are too narrow to ever contain a
    zero of f', and gap `shift`'s window holds the critical point of gap
    shift + 1, which has the other parity."""
    n = np.arange(1, depth + 2)
    lo, hi = n - 0.5, n + 0.5
    narrow = np.isin(n, bad)
    lo[narrow], hi[narrow] = n[narrow] + 0.25 - 1e-6, n[narrow] + 0.25 + 1e-6
    if shift is not None:
        lo[shift - 1], hi[shift - 1] = shift + 0.5, shift + 1.5
    return lo, hi


def _comb(f, windows):
    """comb_roots of f, with f as its edge evaluator too, on the
    windows (lo, hi), every edge solve from its midpoint."""
    return comb_roots(f, f, *windows, 0.0,
                      np.full((windows[0].size - 1, 2), math.nan))


def _index_raised(windows):
    with pytest.raises(RootBracketError) as err:
        _comb(_cosine_comb, windows)
    return err.value


def test_unbracketable_windows_raise_the_lower_index_in_both_paths():
    bad = (7, 12, _LOCKSTEP_GAPS + 5)
    for depth in (SHALLOW, DEEP):
        assert _index_raised(_windows(depth, bad)).index == bad[0]


def test_lowest_edge_failures_name_index_0():
    # gap 1's window finds the maximum at x = 2, where f = 1.5 > 1: no
    # point left of it has f - 1 of the other sign; and a comb of
    # amplitude 1/2 never reaches f = 1 to the left at all
    def low(x):
        return tuple(v / 3.0 for v in _cosine_comb(x))

    for depth in (SHALLOW, DEEP):
        err = _index_raised(_windows(depth, shift=1))
        assert err.index == 0 and "lowest edge" in str(err)
        assert "no sign change" in str(err)
        with pytest.raises(RootBracketError) as exp:
            _comb(low, _windows(depth))
        assert exp.value.index == 0 and "lowest edge" in str(exp.value)


def test_mislabelled_critical_fails_the_gap_below_it():
    # critical k + 1 is found at x = k + 2, with the parity of critical k,
    # so the upper edge of gap k has no bracket
    k = 7
    for depth in (SHALLOW, DEEP):
        err = _index_raised(_windows(depth, shift=k + 1))
        assert err.index == k and "gap edge" in str(err)


def _scalar(monkeypatch):
    """Make every solve run one lane at a time and every evaluation on
    floats, whatever the piece count."""
    monkeypatch.setattr(_rootfind, "_lockstep", lambda points, pieces: False)


def _arrays(monkeypatch):
    """Make every search of one lane or more run on the array-state
    engine, and every evaluation on arrays, whatever the piece count."""
    monkeypatch.setattr(_rootfind, "_lockstep",
                        lambda points, pieces: points >= 1)


def _line(x):
    """f = x with f' = 1, on a float or an array."""
    return x, x * 0.0 + 1.0


def _shifted(v, n):
    """pick(v, n): the zero of lane n is at x = n + 0.3."""
    return v[0] - (n + 0.3), v[1]


def _raised(call):
    with pytest.raises(RootBracketError) as err:
        call()
    return type(err.value), str(err.value), err.value.index


def test_lockstep_raises_the_lowest_failing_lane_not_the_first_to_fail(
        monkeypatch):
    # scans: lanes 1 and 2 (naming indices 5 and 1) have no zero within
    # reach of their windows; lane 1 is raised
    lo = np.array([0.0, 1000.0, 2000.0, 3.0])
    idx = np.array([0, 5, 1, 3])
    assert _both(monkeypatch, lambda: _raised(lambda: _roots_all(
        _line, _line, _shifted, lo, lo + 1.0, lo + 0.5, "scan", idx))) \
        == ((RootBracketError, "scan (index 5)", 5),) * 2
    # solves: both edges of gap 7 fail (and an edge of gap 3 after them);
    # the lower edge of gap 7 is raised
    lo = np.array([0.0, 7.5, 7.6, 3.5])
    hi = np.array([1.0, 7.6, 7.7, 3.6])
    idx = np.array([0, 7, 7, 3])
    assert _both(monkeypatch, lambda: _raised(lambda: _solve_all(
        _line, _shifted, lo, hi, lo - (idx + 0.3), hi - (idx + 0.3), "edge",
        idx))) == ((RootBracketError,
                    "edge: no sign change on [7.5, 7.6] (index 7)", 7),) * 2
    lo = np.array([2.0, 0.0])
    idx = np.array([2, 0])
    _arrays(monkeypatch)
    assert _roots_all(_line, _line, _shifted, lo, lo + 1.0, lo + 0.5,
                      "scan", idx)[0].tolist() == [2.3, 0.3]


def _cube(x):
    return x * x * x, 3.0 * x * x


def _cube_root_at(v, n):
    """pick(v, n) for _cube: the zero of lane n is at x = n + 0.3."""
    c = n + 0.3
    return v[0] - c * c * c, v[1]


def test_lockstep_keeps_at_most_the_lane_window_live(monkeypatch):
    sizes = []

    def fbatch(x):
        sizes.append(x.size if isinstance(x, np.ndarray) else None)
        return _cube(x)

    # every fifth window starts right of its zero and is widened, and
    # the fifth before it starts on its zero; every lane is live from the
    # start, and each step passes all its live lanes to f in one call:
    # the ends of every window, the interior samples and the widened
    # samples of the widened fifth, then every lane of the solve but the
    # fifth whose bracket end is the zero, fewer and fewer
    count = 3 * WIDE + 7
    lo = np.arange(count, dtype=float) + 0.1 * (np.arange(count) % 5)
    idx = np.arange(count)
    deep, _ = _roots_all(fbatch, fbatch, _cube_root_at, lo, lo + 1.0,
                         lo + 0.5, "scan", idx)
    arrays = [n for n in sizes if n is not None]
    widened = (count + 4) // 5 - 1
    assert arrays[:3] == [2 * count, 7 * widened, 9 * widened]
    solve = arrays[3:]
    assert solve[0] == count - np.count_nonzero(idx % 5 == 3)
    assert solve == sorted(solve, reverse=True)
    # the last live lanes are evaluated on floats, never on small arrays
    assert min(arrays) >= _LOCKSTEP_GAPS and None in sizes
    _scalar(monkeypatch)
    assert deep.tolist() == _roots_all(_cube, _cube, _cube_root_at, lo,
                                       lo + 1.0, lo + 0.5, "scan",
                                       idx)[0].tolist()


def test_seeded_lanes_agree_on_both_engines(monkeypatch):
    # many lanes, each from its own start: near the root, off it,
    # outside the bracket, or none
    count = WIDE
    idx = np.arange(count)
    lo, hi = idx - 0.2, idx + 0.9
    c = idx + 0.3
    start = c + np.array([1e-9, 0.25, -0.4, 5.0, math.nan])[idx % 5]
    deep, scalar = _both(monkeypatch, lambda: _solve_all(
        _cube, _cube_root_at, lo, hi, lo ** 3 - c ** 3, hi ** 3 - c ** 3,
        "cube", idx, start)[0].tolist())
    assert deep == scalar
    assert np.allclose(deep, c, rtol=1e-12, atol=0.0)


def test_array_solve_passes_every_lane_to_its_first_eval():
    sizes = []

    def fbatch(x):
        sizes.append(x.size if isinstance(x, np.ndarray) else None)
        return _cube(x)

    count = WIDE
    idx = np.arange(count)
    lo, hi = idx - 0.2, idx + 0.9
    c = idx + 0.3
    _solve_all(fbatch, _cube_root_at, lo, hi, lo ** 3 - c ** 3,
               hi ** 3 - c ** 3, "cube", idx)
    # one array call of every lane per step while _LOCKSTEP_GAPS lanes or
    # more are live, the last few lanes on floats
    arrays = [n for n in sizes if n is not None]
    assert arrays[0] == count
    assert arrays == sorted(arrays, reverse=True)
    assert min(arrays) >= _LOCKSTEP_GAPS
    assert sizes[:len(arrays)] == arrays


def _sin(x):
    """(sin, cos) through math one point at a time, so an array gives the
    numbers of its entries bit for bit."""
    if isinstance(x, np.ndarray):
        return tuple(np.array(col) for col in zip(*map(_sin, x.tolist())))
    return math.sin(x), math.cos(x)


@pytest.mark.parametrize("size", [1, _LOCKSTEP_GAPS - 1, _LOCKSTEP_GAPS,
                                  WIDE])
def test_scan_array_equals_the_reference_scan_lane_for_lane(size):
    # lanes in turn: the ends bracket a zero of sin; the ends do not but
    # interior samples do (four periods); the window holds no zero and
    # is widened once, or several times; sin + 2 has no zero at all
    idx = np.arange(size)
    kind = idx % 5
    base = 0.37 * idx + 0.1
    k = np.pi * idx
    lo = np.choose(kind, [base, base, k + 0.5, k + 1.5, base])
    hi = np.choose(kind, [base + np.pi, base + 4.0 * np.pi, k + 2.5,
                          k + 1.6, base + 4.0 * np.pi])
    prefer = np.choose(kind, [base, base + idx % 13, k + 1.5, k + 1.55,
                              base])
    _check_scan(lo, hi, prefer, np.where(kind == 4, 2.0, 0.0))
    # contiguous windows, which share their ends: in turn the ends
    # bracket a zero; the window holds no zero and is widened; four
    # periods; sin + 2 again.  A widened lane follows a bracketed one,
    # so a bracket value written for one lane must not leak into the
    # other's end, also where g hands back the evaluated column itself;
    # and a shared end takes the shift of each lane
    ends = [0.1]
    for i in range(size):
        zero = math.pi * math.ceil(ends[-1] / math.pi)
        ends.append((zero + 0.3, 0.5 * (ends[-1] + zero),
                     ends[-1] + 4.0 * math.pi, zero + 0.3)[i % 4])
    ends = np.array(ends)
    kind = idx % 4
    lo, hi = ends[:-1], ends[1:]
    prefer = np.where(kind == 2, lo + idx % 13, 0.5 * (lo + hi))
    _check_scan(lo, hi, prefer, np.where(kind == 3, 2.0, 0.0))
    _check_scan(lo, hi, prefer, None)


def test_scan_array_shares_only_bitwise_equal_ends():
    # -0.0 == 0.0, but sin keeps the sign of zero: windows that meet at
    # -0.0 and 0.0 each evaluate their own end (the first brackets there)
    lo, hi = np.array([-4.0, 0.0]), np.array([-0.0, 4.0])
    _check_scan(lo, hi, 0.5 * (lo + hi), None)


def _check_scan(lo, hi, prefer, shift):
    """_scan_array of sin + shift on the windows [lo, hi] against
    reference_scan, lane for lane; from six lanes on, some lanes are
    widened, and some fail unless shift is None (sin itself, scanned
    as the evaluator's own array)."""
    idx = np.arange(lo.size)

    def g(v, n):
        return v[0] if shift is None else v[0] + shift[n]

    *got, failed = _rootfind._scan_array(_sin, g, lo, hi, prefer, idx)
    got = [col.tolist() for col in got]
    want_failed, widened = [], 0
    for i, a, b, p in zip(idx.tolist(), lo.tolist(), hi.tolist(),
                          prefer.tolist()):
        try:
            want = reference_scan(lambda x, i=i: float(g(_sin(x), i)), a, b,
                                  p, "scan", i)
        except RootBracketError as err:
            assert err.index == i
            want_failed.append(i)
            continue
        assert repr(tuple(col[i] for col in got)) == repr(want), i
        widened += not a <= want[0] <= want[1] <= b
    assert failed.tolist() == want_failed
    if lo.size > 5:
        assert widened and (want_failed or shift is None)


def test_scans_take_the_sign_change_nearest_the_guess(monkeypatch):
    # sin over four periods from 0.5 has the same sign at both ends: the
    # zero nearest each guess wins; the last lanes' windows hold no zero
    # and are widened first
    def sine(x):
        if isinstance(x, np.ndarray):
            return tuple(np.array(col) for col in zip(*map(sine,
                                                           x.tolist())))
        return math.sin(x), math.cos(x)

    lo = np.full(DEEP, 0.5)
    hi = lo + 4.0 * math.pi
    hi[-5:] = 2.5
    prefer = 0.5 + np.arange(DEEP) % 13
    prefer[-5:] = 1.5
    deep, scalar = _both(monkeypatch, lambda: _roots_all(
        sine, sine, lambda v, n: v, lo, hi, prefer, "sine",
        np.arange(DEEP))[0].tolist())
    assert deep == scalar
    assert len({round(x / math.pi) for x in deep}) >= 4


def test_flat_spectrum_lockstep_and_sequential_paths_agree():
    # 2 n_max + 1 critical lanes: 121 run in lockstep, 41 one at a time
    rng = random.Random(4)
    for q in (make_potential("two-step"), _random_potential(rng, 4, 6.0)):
        cfg = MagneticConfig(a=math.pi / 2)
        deep = flat_spectrum(q, cfg, 60)
        shallow = flat_spectrum(q, cfg, SHALLOW)
        assert deep.dirichlet[:SHALLOW] == shallow.dirichlet
        assert len(shallow.f_locus) >= SHALLOW
        assert deep.f_locus[:len(shallow.f_locus)] == shallow.f_locus


def test_effective_masses_equal_F_prime_at_each_edge():
    rng = random.Random(5)
    for cfg in _sectors(rng):
        q = _random_potential(rng, rng.randint(1, 4), vmax=6.0)
        bs = band_structure(q, cfg, SHALLOW)
        mt = effective_masses(bs)
        c = cfg.c_abs
        assert mt.mu0 == -F_with_derivs(q, bs.lambda0)[1] / c
        for n in range(1, SHALLOW + 1):
            t = -1.0 if n % 2 else 1.0
            if bs.degenerate[n - 1]:
                assert mt.plus[n - 1] == mt.minus[n - 1] == 0.0
                continue
            assert mt.plus[n - 1] == -t * F_with_derivs(q, bs.plus[n - 1])[1] / c
            assert mt.minus[n - 1] \
                == -t * F_with_derivs(q, bs.minus[n - 1])[1] / c


def _exact_comb(x):
    """_cosine_comb through math.cos and math.sin one point at a time, so
    an array gives the numbers of its entries bit for bit."""
    if isinstance(x, np.ndarray):
        return tuple(np.array(col) for col in zip(*map(_exact_comb,
                                                       x.tolist())))
    c, s = math.cos(math.pi * x), math.sin(math.pi * x)
    return 1.5 * c, -1.5 * math.pi * s, -1.5 * math.pi ** 2 * c


def _both(monkeypatch, build):
    """build() on the array engine and one lane at a time."""
    out = []
    for force in (_arrays, _scalar):
        with monkeypatch.context() as m:
            force(m)
            out.append(build())
    return tuple(out)


@pytest.mark.parametrize("seed", [1, 2])
def test_array_engine_equals_scalar_lanes_at_equal_depth(monkeypatch, seed):
    rng = random.Random(seed)
    potentials = [_random_potential(rng, m) for m in range(1, 7)]
    if seed == 1:
        potentials.append(_projection())
    sectors = list(_sectors(rng))
    for k, q in enumerate(potentials):
        cfg = sectors[k % len(sectors)]  # sectors[0] has c_j < 0

        def build():
            bs = band_structure(q, cfg, DEEP)
            return bs, bs.flat_bands, effective_masses(bs)

        deep, scalar = _both(monkeypatch, build)
        assert repr(deep) == repr(scalar), (seed, k)
    q = potentials[2]
    for build in (lambda: dirichlet_spectrum(q, DEEP),
                  lambda: flat_spectrum(q, MagneticConfig(a=math.pi / 2),
                                        60)):
        deep, scalar = _both(monkeypatch, build)
        assert repr(deep) == repr(scalar)


def test_array_engine_raises_the_scalar_errors(monkeypatch):
    def low(x):
        return tuple(v / 3.0 for v in _exact_comb(x))

    cases = [(_exact_comb, _windows(DEEP, (7, 12, _LOCKSTEP_GAPS + 5))),
             (_exact_comb, _windows(DEEP, shift=1)), (low, _windows(DEEP)),
             (_exact_comb, _windows(DEEP, shift=8))]
    for f, windows in cases:
        deep, scalar = _both(monkeypatch, lambda: _raised(
            lambda: _comb(f, windows)))
        assert deep == scalar


def test_masked_branches_stay_silent_and_exact(monkeypatch):
    # run under the suite's error::RuntimeWarning filter
    # f' = 0 exactly: at the first midpoint of [-1, 1] for odd lanes,
    # everywhere for even lanes (pure bisection, the polish stops at once)
    def cube(x):
        return x * x * x + 0.5, 3.0 * x * x

    def pick(v, n):
        return v[0], v[1] * (n % 2)

    lo = -np.ones(2 * DEEP)
    idx = np.arange(2 * DEEP)
    deep, scalar = _both(monkeypatch, lambda: _solve_all(
        cube, pick, lo, -lo, lo + 0.5, -lo + 0.5, "cube", idx)[0].tolist())
    assert deep == scalar
    assert abs(deep[0] + 0.5 ** (1 / 3)) < 1e-12

    # mu = lambda - v in the series window: the first Dirichlet window
    # starts at the value of the second piece
    v2 = 2.0 * (0.5 * math.pi) ** 2
    q = make_potential([(0.5, 0.0), (0.5, v2)])
    assert abs((0.5 * math.pi) ** 2 + q.q0 - v2) <= monodromy._SERIES_CUT
    deep, scalar = _both(monkeypatch, lambda: dirichlet_spectrum(q, DEEP))
    assert deep == scalar

    # degenerate gaps mixed with open ones: at c = 1 the even gaps of the
    # zero potential are closed
    def build():
        bs = band_structure(make_potential("zero"), MagneticConfig(a=0.0),
                            DEEP)
        return bs, bs.flat_bands

    deep, scalar = _both(monkeypatch, build)
    assert repr(deep) == repr(scalar)
    assert any(deep[0].degenerate) and not all(deep[0].degenerate)


@pytest.mark.parametrize("q", [make_potential([(1.0, 3.0)]), _projection()],
                         ids=["1-piece", "64-piece"])
def test_shallow_structures_never_build_an_array_jet(q, monkeypatch):
    # every phase of a 20-gap structure and its masses has fewer lanes
    # and points than _LOCKSTEP_GAPS, so at one piece the jet only ever
    # sees floats; at 64 pieces a phase goes to arrays from 256 / 64 = 4
    # lanes or points, so the jet sees arrays of 4 or more and floats
    # only below that (the last lanes of a solve, the lowest edge)
    sizes = []
    jet = monodromy.transfer

    def recorded(q, lam, order=2):
        sizes.append(lam.size if isinstance(lam, np.ndarray) else None)
        return jet(q, lam, order)

    monkeypatch.setattr(monodromy, "transfer", recorded)
    for cfg in (MagneticConfig(a=0.9), MagneticConfig(a=2.2)):
        effective_masses(band_structure(q, cfg, SHALLOW))
    flat_spectrum(q, MagneticConfig(a=math.pi / 2), SHALLOW)
    arrays = [n for n in sizes if n is not None]
    if len(q.pieces) == 1:
        assert not arrays
    else:
        assert min(arrays) * len(q.pieces) >= _LOCKSTEP_WORK
        # the critical phase of each structure and of the flat locus
        assert arrays.count(SHALLOW + 2) == 2
        assert arrays.count(2 * SHALLOW + 2) == 1
        assert None in sizes


def test_the_lane_rule_counts_pieces():
    # up to 8 pieces a phase goes to arrays from _LOCKSTEP_GAPS lanes;
    # beyond, the blocked jet costs about as much per call at any piece
    # count, and a phase goes to arrays from lanes * pieces >= 256
    for pieces in (1, 3, 6, 8):
        assert not _rootfind._lockstep(_LOCKSTEP_GAPS - 1, pieces)
        assert _rootfind._lockstep(_LOCKSTEP_GAPS, pieces)
    for pieces, lanes in ((9, 29), (16, 16), (32, 8), (64, 4), (65, 4)):
        assert not _rootfind._lockstep(lanes - 1, pieces)
        assert _rootfind._lockstep(lanes, pieces)


@pytest.mark.parametrize("force", [_scalar, _arrays])
def test_the_forcing_helpers_force_every_phase(force, monkeypatch):
    # _scalar: the 64-piece jet sees floats alone; _arrays: floats only
    # in the expansion before the lowest edge, whose one-lane solve is a
    # phase like any other
    sizes = []
    jet = monodromy.transfer
    scalar_steps = []

    def recorded(q, lam, order=2):
        if not scalar_steps:
            sizes.append(lam.size if isinstance(lam, np.ndarray) else None)
        return jet(q, lam, order)

    def scalar(fn):
        def wrapped(*args, **kwargs):
            scalar_steps.append(fn)
            try:
                return fn(*args, **kwargs)
            finally:
                scalar_steps.pop()
        return wrapped

    force(monkeypatch)
    monkeypatch.setattr(monodromy, "transfer", recorded)
    monkeypatch.setattr(_rootfind, "expand_left",
                        scalar(_rootfind.expand_left))
    effective_masses(band_structure(_projection(), MagneticConfig(a=0.9),
                                    SHALLOW))
    if force is _scalar:
        assert set(sizes) == {None}
    else:
        assert None not in sizes and min(sizes) == 1


def test_a_64_piece_structure_is_the_same_on_both_engines(monkeypatch):
    # a 20-gap structure, its masses, its Dirichlet roots and its flat
    # locus, on arrays and one lane at a time
    q = _projection()

    def build():
        bs = band_structure(q, MagneticConfig(a=0.4, N=4, j=3), SHALLOW)
        return (bs, effective_masses(bs), dirichlet_spectrum(q, SHALLOW),
                flat_spectrum(q, MagneticConfig(a=math.pi / 2), SHALLOW))

    deep, scalar = _both(monkeypatch, build)
    assert repr(deep) == repr(scalar)
    assert not deep[0].anomalies


def test_a_256_piece_structure_is_the_same_on_both_engines(monkeypatch):
    # from 256 pieces the lane rule sends even the one-lane phase of the
    # lowest edge to the array engine; the structure is that of the float
    # lanes
    q = make_potential(
        lambda t: 5.0 * math.cos(2.0 * math.pi * t) + 2.0 * t, mesh=256)
    cfg = MagneticConfig(a=0.9)
    solve = _rootfind._solve_array
    lanes = []

    def solve_array(f, pick, lo, hi, flo, fhi, index, *args):
        lanes.append(index.tolist())
        return solve(f, pick, lo, hi, flo, fhi, index, *args)

    def build():
        bs = band_structure(q, cfg, SHALLOW)
        return bs, bs.flat_bands

    with monkeypatch.context() as m:
        m.setattr(_rootfind, "_solve_array", solve_array)
        natural = build()
    assert [0] in lanes
    with monkeypatch.context() as m:
        _scalar(m)
        scalar = build()
    assert repr(natural) == repr(scalar)
    assert not natural[0].anomalies


@pytest.mark.parametrize("size", [1, _LOCKSTEP_GAPS - 1, _LOCKSTEP_GAPS,
                                  513])
def test_eval_on_floats_below_the_threshold_equals_one_array_call(size):
    q = make_potential("two-step")
    rng = np.random.default_rng(size)
    x = np.concatenate(([v for _, v in q.pieces], rng.uniform(
        -200.0, 4000.0, size)))[:size]
    calls = []

    def f(lam):
        calls.append(lam.size if isinstance(lam, np.ndarray) else None)
        return F_with_derivs(q, lam)

    got = _rootfind._eval(f, x)
    want = F_with_derivs(q, x)
    assert [[repr(v) for v in col.tolist()] for col in got] \
        == [[repr(v) for v in col.tolist()] for col in want]
    assert all(col.dtype == np.float64 for col in got)
    assert calls == ([None] * size if size < _LOCKSTEP_GAPS else [size])

"""The fused, order-aware monodromy jet against the tuple product it
replaced (`reference_jet` in tests/oracles.py, blocked as the jet is):
`transfer(q, lam, order)` is the first order + 1 matrices of the
reference bit for bit (`repr`), on floats and on arrays, also for piece
counts that leave a short last block.  Against the exact product of the
same float factors, the blocked product of a long potential errs on the
scale of the sequential one, below the solver's step tolerance.
Structures whose critical scan and edges are
evaluated with the order-1 evaluator `fdf` equal those evaluated with
the full jet; f at the critical points is the critical solve's own
value, and the point where the leftward expansion stops reaches the jet
once."""

import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from nanoband import _rootfind, monodromy, spectrum
from nanoband._rootfind import _BLOCK, _LOCKSTEP_GAPS, comb_roots
from nanoband.monodromy import transfer
from nanoband.potential import make_potential
from nanoband.quasimomentum import (k_eval, verify_deep_asymptotics,
                                    verify_kprime_squared)
from nanoband.spectrum import MagneticConfig, band_structure
from oracles import reference_jet, sequential_jet


def _bits(jet):
    """repr of a jet of floats or of arrays, exact to the last bit and
    to the sign of zero."""
    return repr([[np.asarray(e).tolist() for e in mat] for mat in jet])


def _lams(q, rng):
    """Spread points, the series window of every piece (mu = 0 and
    mu = -+1e-7), the negative axis to -1e4, and a point where the
    widest piece's cosh is still finite but the product overflows to
    inf and nan (more than one piece)."""
    vs = [v for _, v in q.pieces]
    deep = -(705.0 / max(w for w, _ in q.pieces)) ** 2
    return ([rng.uniform(-1e4, 3000.0) for _ in range(100)]
            + vs + [v + 1e-7 for v in vs] + [v - 1e-7 for v in vs]
            + [-1e4, -1e3, deep])


# 7 .. 9, 17 and 65 pieces end in a short block (of 7 pieces for 7,
# which is one block, and of 1 piece for the others)
@pytest.mark.parametrize("m", [1, 2, 3, 6, 7, 8, 9, 17, 64, 65])
def test_transfer_equals_reference_jet(m):
    rng = random.Random(m)
    q = make_potential([(rng.uniform(0.1, 1.0), rng.uniform(-30.0, 30.0))
                        for _ in range(m)])
    lams = _lams(q, rng)
    for lam in lams:
        want = reference_jet(q, lam)
        for order in (0, 1, 2):
            got = transfer(q, lam, order)
            assert _bits(got) == _bits(want[:order + 1]), (m, lam, order)
    arr = np.array(lams)
    with np.errstate(over="ignore", invalid="ignore"):
        want = reference_jet(q, arr)
        if m > 1:  # the overflow case is reached
            assert not all(np.isfinite(e[-1]) for mat in want for e in mat)
        for order in (0, 1, 2):
            got = transfer(q, arr, order)
            assert len(got) == order + 1
            assert _bits(got) == _bits(want[:order + 1]), (m, order)


def test_at_most_one_block_keeps_the_sequential_product():
    # the piece counts above leave short blocks for blocks of 8, and a
    # potential of up to 8 pieces keeps the bits of the jet before blocks
    assert _BLOCK == 8
    rng = random.Random(8)
    q = make_potential([(0.125, rng.uniform(-30.0, 30.0)) for _ in range(8)])
    lams = _lams(q, rng)
    with np.errstate(over="ignore", invalid="ignore"):
        for lam in (*lams, np.array(lams)):
            assert _bits(transfer(q, lam)) \
                == _bits(sequential_jet(q.pieces, lam))


def test_transfer_at_signed_zero():
    # a piece at v = 0 puts mu = +0.0 or -0.0 into the series window: in
    # the one block of one or two pieces, and in full and short blocks
    # of 9 and 65
    rng = random.Random(0)
    blocked = [make_potential([(1.0 / m, 0.0 if i % 8 == 0 else
                                rng.uniform(-5.0, 5.0)) for i in range(m)])
               for m in (9, 65)]
    for q in (make_potential("zero"), make_potential([(0.5, 0.0),
                                                      (0.5, 2.0)]),
              *blocked):
        for lam in (0.0, -0.0):
            want = reference_jet(q, lam)
            for order in (0, 1, 2):
                assert _bits(transfer(q, lam, order)) \
                    == _bits(want[:order + 1])
        arr = np.array([0.0, -0.0, 2.0])
        for order in (0, 1, 2):
            assert _bits(transfer(q, arr, order)) \
                == _bits(reference_jet(q, arr)[:order + 1])


def _exact_jet(q, lam):
    """(P, P', P'') of the float factors that the jet multiplies at the
    float lam (C, S and their derivatives from monodromy._factor, and
    -mu S and its derivatives rounded as the jet rounds them), multiplied
    without rounding."""
    one, zero = Fraction(1), Fraction(0)
    p, p1, p2 = (one, zero, zero, one), (zero,) * 4, (zero,) * 4
    for w, v in q.pieces:
        mu = lam - v
        c, s, c1, s1, c2, s2 = monodromy._factor(w, mu)
        t, t1, t2 = ((Fraction(x) for x in row) for row in (
            (c, s, -mu * s, c), (c1, s1, -s - mu * s1, c1),
            (c2, s2, -2.0 * s1 - mu * s2, c2)))
        t, t1, t2 = tuple(t), tuple(t1), tuple(t2)

        def mul(a, b):
            return (a[0] * b[0] + a[1] * b[2], a[0] * b[1] + a[1] * b[3],
                    a[2] * b[0] + a[3] * b[2], a[2] * b[1] + a[3] * b[3])

        cross = mul(t1, p1)
        p2 = tuple(x + y + 2 * z for x, y, z in zip(mul(t2, p), mul(t, p2),
                                                    cross))
        p1 = tuple(x + y for x, y in zip(mul(t1, p), mul(t, p1)))
        p = mul(t, p)
    return p, p1, p2


def _worst_error(jet, exact):
    """The largest normwise relative error of the three matrices."""
    return max(float(max(abs(Fraction(x) - y) for x, y in zip(got, want))
                     / max(abs(y) for y in want))
               for got, want in zip(jet, exact))


def test_blocked_and_sequential_jets_against_the_exact_product():
    # against the exact product of the same float factors, the blocked
    # jet and the sequential product (the jet before blocks) err by
    # worst errors of one size (4.0e-15 and 3.1e-15 here), and neither
    # is always the smaller: the blocked one stays within twice the
    # sequential one and below the 1e-14 relative that README names
    q = make_potential(lambda t: 3.0 * math.cos(2.0 * math.pi * t)
                       + math.sin(6.0 * math.pi * t) + t, mesh=64)
    rng = random.Random(64)
    blocked = sequential = 0.0
    for lam in [rng.uniform(-40.0, 3000.0) for _ in range(12)]:
        exact = _exact_jet(q, lam)
        blocked = max(blocked, _worst_error(transfer(q, lam), exact))
        sequential = max(sequential, _worst_error(
            sequential_jet(q.pieces, lam), exact))
    assert 0.0 < sequential
    assert 0.0 < blocked <= 2.0 * sequential
    assert blocked < 1e-14


@pytest.mark.parametrize("mu", [
    [3.0, 40.0, -2.5, 1e3, 0.7, 2e5],
    [-3.0, -40.0, -2.5e2, -2e-6, -0.7, -1e5],
    [1e-7, -1e-7, 0.0, -0.0, 5.0, -5.0, 1e-6, -1e-6, 2e-6, -2e-6],
], ids=["one-hyperbolic", "all-hyperbolic", "series-window"])
def test_factor_batch_equals_factor_lane_for_lane(mu):
    # the hyperbolic and the trigonometric lanes of an array go through
    # libm apart, each lane through the function _factor picks for it
    for w in (0.3, 1.0):
        for order in (0, 1, 2):
            got = monodromy._factor_batch(w, np.array(mu), order)
            assert [None if e is None else repr(e.tolist()) for e in got] \
                == [None if (e is None or k > 2 * order + 1)
                    else repr([monodromy._factor(w, m, order)[k]
                               for m in mu])
                    for k, e in enumerate(got)], (w, order)


def test_factor_batch_overflow_names_the_lowest_lambda():
    # cosh overflows at the two deepest lanes only, and not at the first
    q = make_potential([(1.0, 0.0)])
    lam = np.array([5.0, -6e5, -3.0, -8e5, -1e5])
    with pytest.raises(OverflowError):
        monodromy._factor(1.0, -6e5)
    monodromy._factor(1.0, -1e5)
    with pytest.raises(OverflowError):
        monodromy._factor_batch(1.0, lam)
    with pytest.raises(monodromy._JetOverflowError) as err:
        transfer(q, lam, 1)
    assert err.value.lam == -8e5 and "lambda=-800000.0" in str(err.value)


def _f_as_fdf(f, fdf, *args, **kwargs):
    return comb_roots(f, f, *args, **kwargs)


@pytest.mark.parametrize("depth", [20, 100])
def test_edges_from_order_one_equal_full_jet(depth, monkeypatch):
    # 20 gaps run one lane at a time (but the 64-piece projection), 100
    # gaps on the array-state engine
    assert (depth < _LOCKSTEP_GAPS) == (depth == 20)
    proj = make_potential(lambda t: 3.0 * math.cos(2.0 * math.pi * t)
                          + math.sin(6.0 * math.pi * t), mesh=64)
    cases = [(make_potential("two-step"), MagneticConfig(a=0.9)),
             (make_potential("three-step"), MagneticConfig(a=2.2)),
             (proj, MagneticConfig(a=0.4, N=4, j=3))]
    assert cases[1][1].c_j < 0 and cases[2][1].c_j < 0
    calls = []  # (lambda, order, inside a critical-point solve)
    critical = [False]
    jet = monodromy.transfer
    solve = _rootfind._solve_all

    def counted(q, lam, order=2):
        calls.extend((x, order, critical[-1])
                     for x in np.atleast_1d(lam).tolist())
        return jet(q, lam, order)

    def solve_all(f, pick, lo, hi, flo, fhi, what, *args, **kwargs):
        critical.append(what.endswith("critical point"))
        try:
            return solve(f, pick, lo, hi, flo, fhi, what, *args, **kwargs)
        finally:
            critical.pop()

    def build():
        calls.clear()
        structures = [band_structure(q, cfg, depth) for q, cfg in cases]
        return [repr((bs, bs.flat_bands)) for bs in structures], calls[:]

    monkeypatch.setattr(monodromy, "transfer", counted)
    monkeypatch.setattr(_rootfind, "_solve_all", solve_all)
    with_fdf, calls_fdf = build()
    monkeypatch.setattr(spectrum, "comb_roots", _f_as_fdf)
    without, calls_all = build()
    assert with_fdf == without
    # the same lambdas, call for call; with fdf only the critical-point
    # solves ask for order 2, and every other comb evaluation (the
    # critical scan, the lowest edge, the gap edges) moved from the full
    # jet to order 1; the Dirichlet roots of the flat bands take order 1
    # on both sides
    assert [x for x, _, _ in calls_fdf] == [x for x, _, _ in calls_all]
    assert all((order == 2) == crit for _, order, crit in calls_fdf)
    moved = [(o1, o2) for (_, o1, _), (_, o2, _) in zip(calls_fdf, calls_all)
             if o1 != o2]
    assert moved and set(moved) == {(1, 2)}
    assert len(moved) == (sum(o == 1 for _, o, _ in calls_fdf)
                          - sum(o == 1 for _, o, _ in calls_all))


@pytest.mark.parametrize("depth", [20, 100])
def test_the_first_scan_attempt_evaluates_each_window_end_once(
        depth, monkeypatch):
    # the critical windows of gaps 1 .. n_max + 1 share their ends: the
    # first call of the evaluator takes their n_max + 2 distinct ends
    calls = []
    evaluate = _rootfind._eval

    def recorded(f, x, pieces):
        calls.append(x.tolist())
        return evaluate(f, x, pieces)

    monkeypatch.setattr(_rootfind, "_eval", recorded)
    band_structure(make_potential("two-step"), MagneticConfig(a=0.9), depth)
    assert len(calls[0]) == len(set(calls[0])) == depth + 2


def _recorded(monkeypatch):
    """A Counter of (lambda, order) over every lambda the jet is asked
    for, floats and array entries alike."""
    seen = Counter()
    jet = monodromy.transfer

    def recorded(q, lam, order=2):
        seen.update((x, order) for x in np.atleast_1d(lam).tolist())
        return jet(q, lam, order)

    monkeypatch.setattr(monodromy, "transfer", recorded)
    return seen


@pytest.mark.parametrize("depth", [20, 100])
def test_f_at_the_critical_points_comes_from_their_solve(depth, monkeypatch):
    # F at a critical point is the critical solve's own value there, at
    # order 2: read from the step that ended on the point, or from one
    # more evaluation where the last polish step moved the root (back
    # onto a point of an earlier step, when the polish oscillates by an
    # ulp); never at order 1, and never after the critical solve
    lams = []
    jet = monodromy.transfer
    solve = _rootfind._solve_all
    solved = []

    def recorded(q, lam, order=2):
        lams.extend((x, order) for x in np.atleast_1d(lam).tolist())
        return jet(q, lam, order)

    def solve_all(f, pick, lo, hi, flo, fhi, what, *args, **kwargs):
        out = solve(f, pick, lo, hi, flo, fhi, what, *args, **kwargs)
        if what.endswith("critical point"):
            solved.append(len(lams))
        return out

    monkeypatch.setattr(monodromy, "transfer", recorded)
    monkeypatch.setattr(_rootfind, "_solve_all", solve_all)
    for q, cfg in ((make_potential("two-step"), MagneticConfig(a=0.9)),
                   (make_potential("three-step"), MagneticConfig(a=2.2))):
        lams.clear()
        solved.clear()
        bs = band_structure(q, cfg, depth)
        seen = Counter(lams)
        assert all(seen[x, 2] in (1, 2) and not seen[x, 1]
                   for x in bs.critical)
        after = {x for x, _ in lams[solved[0]:]}
        assert not after & set(bs.critical)
        if depth < _LOCKSTEP_GAPS:
            # one lane at a time: a lane's points are consecutive, and a
            # root the solve ended on is not sent to the jet again
            at = [i for i, (x, _) in enumerate(lams) if x in bs.critical]
            assert all(lams[i] != lams[i + 1] for i in at)


@pytest.mark.parametrize("kind", ["band structure", "flat spectrum"])
def test_the_lowest_anchor_reaches_the_jet_once(kind, monkeypatch):
    # the value found by expand_left serves the lowest-edge solve (or the
    # first flat-locus bracket) instead of a second evaluation
    found = []
    expand = _rootfind.expand_left

    def expand_left(*args, **kwargs):
        out = expand(*args, **kwargs)
        found.append(out[0])
        return out

    monkeypatch.setattr(_rootfind, "expand_left", expand_left)
    monkeypatch.setattr(spectrum, "expand_left", expand_left)
    seen = _recorded(monkeypatch)
    q = make_potential("two-step")
    if kind == "band structure":
        band_structure(q, MagneticConfig(a=0.9), 20)
    else:
        spectrum.flat_spectrum(q, MagneticConfig(a=math.pi / 2), 20)
    assert len(found) == 1
    assert sum(n for (x, _), n in seen.items() if x == found[0]) == 1


@pytest.mark.parametrize("depth", [20, 100])
def test_lambda0_does_not_reach_the_jet_after_its_solve(depth, monkeypatch):
    # f(lambda0) = 1, so the lower bracket value of gap 1's lower edge
    # needs no jet call at lambda0
    lams = []
    jet = monodromy.transfer
    solve = _rootfind._solve_all
    solved = []

    def recorded(q, lam, order=2):
        lams.extend(np.atleast_1d(lam).tolist())
        return jet(q, lam, order)

    def solve_all(f, pick, lo, hi, flo, fhi, what, *args, **kwargs):
        out = solve(f, pick, lo, hi, flo, fhi, what, *args, **kwargs)
        if what.endswith(": lowest edge"):  # where lambda0 is known
            solved.append(len(lams))
        return out

    monkeypatch.setattr(monodromy, "transfer", recorded)
    monkeypatch.setattr(_rootfind, "_solve_all", solve_all)
    bs = band_structure(make_potential("two-step"), MagneticConfig(a=0.9),
                        depth)
    assert not bs.degenerate[0] and len(solved) == 1
    assert bs.lambda0 not in lams[solved[0]:]


def test_silent_overflow_below_the_potential_raises_on_both_paths():
    # at -4e5 cosh is finite, but xi and xi' overflow to inf and nan: the
    # readers of xi raise instead of returning them, without a warning
    q, cfg = make_potential("zero"), MagneticConfig(a=0.9)
    arr = np.array([0.0, -4e5, -4.5e5])
    for call, named in ((lambda: spectrum.xi(q, cfg, -4e5), -4e5),
                        (lambda: spectrum.xi(q, cfg, arr), -4.5e5),
                        (lambda: k_eval(q, cfg, -4e5), -4e5),
                        (lambda: k_eval(q, cfg, arr), -4.5e5),
                        (lambda: verify_kprime_squared(q, cfg, [-4e5, -1e3]),
                         -4e5)):
        with pytest.raises(monodromy._JetOverflowError) as err:
            call()
        assert err.value.lam == named and f"lambda={named}" in str(err.value)
    with pytest.raises(monodromy._JetOverflowError):
        verify_deep_asymptotics(q, cfg, [10.0, 650.0])


def test_overflow_below_the_potential_names_lambda_on_both_paths():
    # w sqrt(-mu) > 710 overflows cosh: one ValueError naming the lambda,
    # the lowest one for an array
    q, cfg = make_potential("zero"), MagneticConfig(a=0.9)
    for lam, named in ((-7e5, -7e5), (np.array([0.0, -7e5, -8e5]), -8e5)):
        with pytest.raises(monodromy._JetOverflowError) as err:
            spectrum.xi(q, cfg, lam)
        assert isinstance(err.value, ValueError)
        assert err.value.lam == named and f"lambda={named}" in str(err.value)
    with pytest.raises(monodromy._JetOverflowError):
        transfer(make_potential("two-step"), np.array([-1e7]), 0)

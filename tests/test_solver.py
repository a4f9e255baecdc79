"""The safeguarded Newton solver: a Newton step that rounds back onto the
iterate ends the solve instead of bisecting the rest of the bracket, a
start point inside the bracket is where the solve begins (the midpoint
otherwise), and deep gap edges started at their seeds take few steps.
tests/test_lockstep.py checks that seeded lanes agree on both engines."""

import collections
import itertools
import math

import numpy as np
import pytest

from nanoband import _rootfind, monodromy
from nanoband._rootfind import _solve_all
from nanoband.potential import make_potential
from nanoband.spectrum import MagneticConfig, band_structure


class _Counted:
    """f = cos with f' = -sin, through math one point at a time (so an
    array gives the numbers of its entries bit for bit), recording every
    point it is asked for."""

    def __init__(self):
        self.points = []

    def __call__(self, x):
        if isinstance(x, np.ndarray):
            return tuple(np.array(col) for col in zip(*map(self, x.tolist())))
        self.points.append(x)
        return math.cos(x), -math.sin(x)


# _LOCKSTEP_GAPS for one lane on floats (the default) and on the
# array-state engine
ENGINES = [_rootfind._LOCKSTEP_GAPS, 1]


def _solve_cos(monkeypatch, gaps, start=None):
    """The zero of cos on [1, 2] through _solve_all: one lane, on the
    array engine when _LOCKSTEP_GAPS is `gaps` = 1, with the points
    evaluated."""
    monkeypatch.setattr(_rootfind, "_LOCKSTEP_GAPS", gaps)
    f = _Counted()
    lo, hi = np.array([1.0]), np.array([2.0])
    root, _ = _solve_all(f, lambda v, i: v, lo, hi, np.cos(lo), np.cos(hi),
                         "cos", np.array([1]), start)
    return root.tolist(), f.points


def test_converged_newton_step_ends_the_solve(monkeypatch):
    # Newton reaches pi/2 at the sixth point; the next step rounds back
    # onto it, and an open bracket test would bisect the rest of [1, 2]
    # down to the step tolerance instead (37 points in all)
    for gaps in ENGINES:
        root, points = _solve_cos(monkeypatch, gaps)
        assert root == [math.pi / 2]
        assert len(points) <= 10


@pytest.mark.parametrize("gaps", ENGINES)
def test_polish_stops_at_a_step_that_leaves_x_in_place(gaps, monkeypatch):
    # a Newton step that rounds back onto x ends the main loop, and the
    # first polish step reads the values at that x instead of evaluating
    # it once more; the polish stops at a step that leaves x in place,
    # so no lane sends one x to the evaluator twice in a row
    monkeypatch.setattr(_rootfind, "_LOCKSTEP_GAPS", gaps)
    k = np.arange(40)
    lo, hi = k * math.pi + 1.0, k * math.pi + 2.0
    f = _Counted()
    roots, _ = _solve_all(f, lambda v, i: v, lo, hi, np.cos(lo), np.cos(hi),
                          "cos", k + 1, None)
    lanes = [[] for _ in k]
    for x in f.points:  # the brackets are disjoint, and so are the lanes
        lanes[int((x - 1.0) // math.pi)].append(x)
    runs = [[len(list(run)) for _, run in itertools.groupby(xs)]
            for xs in lanes]
    assert all(xs[-1] == root for xs, root in zip(lanes, roots.tolist()))
    assert max(map(max, runs)) == 1


@pytest.mark.parametrize("gaps", ENGINES)
def test_start_inside_the_bracket_is_the_first_point(gaps, monkeypatch):
    for start, first in ((1.55, 1.55), (0.5, 1.5), (2.0, 1.5), (1.0, 1.5),
                         (math.nan, 1.5)):
        root, points = _solve_cos(monkeypatch, gaps, np.array([start]))
        assert root == [math.pi / 2]
        assert points[0] == first, start


def test_deep_gap_edges_take_few_evaluations(monkeypatch):
    # the edges ask the jet for order 1 and the critical points for order
    # 2, so the order-1 lambdas of a build are its edge evaluations
    edge_lams = []
    transfer = monodromy.transfer

    def counted(q, lam, order=2):
        if order == 1:
            edge_lams.append(np.size(lam))
        return transfer(q, lam, order)

    monkeypatch.setattr(monodromy, "transfer", counted)
    bs = band_structure(make_potential("two-step"), MagneticConfig(a=0.9),
                        2000)
    edges = 2 * len(bs.open_gaps())
    assert edges > 3000
    assert sum(edge_lams) / edges <= 6.0


@pytest.mark.parametrize("gaps", ENGINES)
def test_solves_return_the_evaluator_at_each_root(gaps, monkeypatch):
    # the zero of cos in [k pi + 1, k pi + 2] for 40 lanes: a third take
    # exact Newton steps and end on an evaluated point, a third read g'
    # doubled, so that Newton halves the distance and the last polish
    # step moves the root to a new point, and a third are told that
    # their lower end is the zero; f at every root is the evaluator's
    # value there bit for bit, and every root reaches it exactly once
    monkeypatch.setattr(_rootfind, "_LOCKSTEP_GAPS", gaps)
    calls = []
    evaluate = _rootfind._eval

    def recorded(f, x, pieces):
        calls.append(x.tolist())
        return evaluate(f, x, pieces)

    monkeypatch.setattr(_rootfind, "_eval", recorded)
    k = np.arange(40)
    lo, hi = k * math.pi + 1.0, k * math.pi + 2.0
    flo = np.where(k % 3 == 2, 0.0, np.cos(lo))
    f = _Counted()
    roots, vals = _solve_all(f, lambda v, i: (v[0], v[1] * (1 + (i % 3 == 1))),
                             lo, hi, flo, np.cos(hi), "cos", k, None)
    roots = roots.tolist()
    assert [repr((float(c), float(d))) for c, d in zip(*vals)] \
        == [repr((math.cos(x), -math.sin(x))) for x in roots]
    seen = collections.Counter(f.points)
    assert [seen[x] for x in roots] == [1] * k.size
    assert all(abs(x / (math.pi * (n + 0.5)) - 1.0) < 1e-12
               for n, x in zip(k.tolist(), roots) if n % 3 != 2)
    moved = [x for n, x in zip(k.tolist(), roots) if n % 3]
    if gaps == 1:  # the array engine: one _eval call of the missing roots
        assert calls[-1] == moved

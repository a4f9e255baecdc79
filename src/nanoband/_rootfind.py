"""Bracketed root finding and the comb structure of the modified discriminant.

Everything that turns a discriminant-like function f (with f(band edges)
alternating between +1 and -1) into labeled edges, critical points and
slit heights lives here; the nanotube's band structure (spectrum.py) is
its one comb, and the Dirichlet roots and the flat locus share its
scans and solves.  The result type CombRoots carries the band/gap
bookkeeping and is subclassed by spectrum.BandStructure; _comb_k maps a
discriminant value onto the comb (the quasimomentum branch) and
_depth_for says how many gaps cover a given lambda.

The two control algorithms exist once each.  The solve is rtsafe
(Numerical Recipes 9.4): Newton steps that land in the closed bracket,
so a converged iterate, which is itself a bracket end, ends the solve
instead of being bisected away, and bisection otherwise.  It starts
from a given point when that lies strictly inside the bracket and from
the midpoint otherwise; _solve_one runs it on floats.  The scan looks
for a sign change at the ends of a window, then at samples across it,
then in windows widened around a preferred point.  A structure
describes each phase of its search as arrays of brackets, one lane per
gap or edge, for one evaluator f that maps a float to a tuple of floats
and a float64 array to a tuple of arrays: _roots_all (the zero nearest
a guess, solved from the guess, which finds the critical points with
the pick _slope) and _solve_all (zeros on known brackets, from optional
starts).

Every scan runs all lanes of its phase at once on arrays (_scan_array).
One rule, _lockstep, picks floats or arrays for the rest, from the
number of points in hand and the piece count of the potential behind f
(`pieces`, which every phase passes down; 1 for an evaluator that is
no monodromy jet): from _LOCKSTEP_GAPS points up to _BLOCK pieces,
from _LOCKSTEP_WORK / pieces beyond, where the jet is a product of
blocks.
_solve_all runs a phase the rule leaves on floats one lane after
another through _solve_one, which calls f on floats, and a larger one
on _solve_array, which keeps every piece of solver state of every lane
of the phase in a float64 array, advances all live lanes with masked
numpy steps, one call of _eval per step, and drops lanes as they
finish.  _eval, which every evaluation of several points goes through,
calls f on floats where the rule says so and once on an array of all
the points otherwise; so every live lane of a deep step shares one
array jet, and the last few live lanes of a deep solve, and the ends
of a shallow scan, never build a small one.  The windows of a
scan that share their ends (every caller's do) evaluate each shared
end once.  _solve_array evaluates the same points and takes the same
branches as _solve_one, and the evaluators return the float numbers
bit for bit on arrays, so both ways give identical structures and
raise the same RootBracketError, that of the lowest failing lane.

comb_roots takes its inputs as arrays: the critical windows of every
gap and a start for every gap-edge solve.  Every root it returns
leaves through _solve_all together with the evaluator's values there:
the critical points, the lowest edge (a phase of one lane, index 0,
entered through solve_bracketed) and the gap edges, whose solves share
one edge function, _edge.  A root's values are those of the solve step
that evaluated it: the last one, or the one before when the last
polish step cycles back onto that point by an ulp.  A root that is a
bracket end, or that the last polish step moved to a new point, is
evaluated once more (on the array engine, in one _eval call of every
such root of the phase).  Only the critical-point solve reads f''.
The edge evaluator fdf returns (f, f') alone, the same numbers as the
first two of f: the critical scan reads the sign of f' from it, and the
lowest edge and the gap edges are solved with it, so the structures ask
the monodromy jet for order 2 in the critical solve alone.  f at the
critical points, which sets the heights and the edge brackets, is the
critical solve's value, and f' at the edges, kept as CombRoots.slopes
for the effective masses, is the edge solves' value: neither costs an
evaluation of its own.  The point where the leftward expansion for the
lowest edge stops is evaluated once: its value is a bracket end of its
phase.  band_structure passes the zero-potential edges shifted by q0 as
starts, which lie O(1/n) from the edges, so a deep edge takes 3-4
evaluations.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

# Degeneracy threshold on (-1)^n f(crit) - 1: below double-root resolution
# of the edge solver.  Gaps narrower than GAP_WIDTH_TOL * max(1, |lam|)
# are collapsed onto the critical point.
DEGENERACY_TOL = 1e-12
GAP_WIDTH_TOL = 1e-9
MAX_DOUBLINGS = 8
# _solve_one and _solve_array: relative step tolerance, iteration cap
# and the number of unguarded Newton steps that polish a converged root
SOLVE_XTOL = 1e-13
SOLVE_MAXITER = 100
POLISH_STEPS = 2
# _scan_array: samples across the interval per attempt
SCAN_SAMPLES = 9

# Domain slack allowed when clamping arccos/arccosh arguments onto the comb.
_CLAMP_TOL = 1e-12

# The lane rule (_lockstep): a solve phase runs on _solve_array, and
# _eval calls f on arrays, from _LOCKSTEP_GAPS lanes or points for a
# potential of up to _BLOCK pieces, and from lanes * pieces >=
# _LOCKSTEP_WORK beyond (evaluators that are no monodromy jet count as
# one piece).
#
# Up to _BLOCK pieces the jet steps through every piece on an array
# too, so an array call costs the per-piece numpy calls of the float
# path's pieces, and the break-even lane count does not depend on the
# count.
# Measured per phase (critical points, gap edges, Dirichlet roots) of
# structures 10-100 gaps deep at a = 0.9, process time, best of 5,
# 2-core machine, when the threshold picked the scan too, the array
# engine (its last lanes on floats) against the float lanes: for six
# potentials of 1-6 pieces, medians 1.6-1.9x slower at 20-21 lanes,
# 0.95-1.08x at 40-41, 0.67-0.80x at 60-61 and 0.48-0.63x at 100-101;
# so it breaks even near 40 lanes, and 60 puts every phase on the
# cheaper engine but those of 40-59 lanes, whose float lanes cost up to
# 1.35x.
#
# Beyond 8 pieces the jet is a product of blocks of _BLOCK = 8 pieces,
# which an array call takes in 8 steps and a few levels whatever the
# count, while a float lane still pays every piece: the break-even lane
# count falls as 1 / pieces.  Measured as a 20-gap band_structure with
# flat bands plus effective_masses at a = 0.9 and at (a, N, j) =
# (0.4, 4, 3), for projections of one smooth potential, process time,
# best of 5, 2-core machine, with every phase sent to arrays from T
# lanes; the T within 3% of the fastest, and the T of this rule:
#
#     pieces   fastest T (two runs)   rule
#          9   24-32                    29
#         12   24-32                    22
#         16   8-16, 12-16              16
#         24   6-16                     11
#         32   6-16, 8-16                8
#         48   4-16                      6
#         64   3-8                       4
#
# At 64 pieces the rule builds the structure in 18.8 ms against 50.4
# ms with every phase of it on floats (T = 60).  At 10 gaps (phases of
# 10-22 lanes) the rule keeps 9 pieces on floats, the fastest, costs 9%
# more than floats at 16 pieces, and is within 10% of the fastest T at
# 32 and 64 pieces (8-12 and 6).
_LOCKSTEP_GAPS = 60
_LOCKSTEP_WORK = 256
# monodromy.transfer multiplies a potential of more pieces than this as
# a product of blocks of this many consecutive pieces
_BLOCK = 8


def _lockstep(points: int, pieces: int) -> bool:
    """Whether `points` lanes or points of an evaluator over a potential
    of `pieces` pieces go to the array engine (see above)."""
    if pieces <= _BLOCK:
        return points >= _LOCKSTEP_GAPS
    return points * pieces >= _LOCKSTEP_WORK


class RootBracketError(RuntimeError):
    """A sign-change bracket could not be established after expansion."""

    def __init__(self, what: str, index: int | None = None):
        self.what = what
        self.index = index
        msg = what if index is None else f"{what} (index {index})"
        super().__init__(msg)


def _solve_one(f, pick, what, i, lo, hi, flo, fhi, start):
    """Safeguarded Newton/bisection solve of g(x) = 0 on [lo, hi], whose
    ends have the values flo, fhi, where pick(f(x), i) is (g(x), g'(x))
    for a float x (g' may be None: pure bisection); returns the root and
    f there.

    The solve starts at `start` if it lies strictly inside (lo, hi) and
    at the midpoint otherwise (nan: always the midpoint).  As in rtsafe
    (Numerical Recipes 9.4), a Newton step is taken when it lands in the
    closed current bracket [lo, hi] and makes decent progress, with
    bisection as the fallback.  The iterate itself is a bracket end, so
    a Newton step that rounds back onto it (a converged root) is
    accepted, not bisected away.  The main loop ends when the step drops
    below the relative tolerance SOLVE_XTOL, after which up to
    POLISH_STEPS unguarded Newton steps push the root to machine
    accuracy, stopping at a step that no longer moves it.  No point is
    evaluated twice in a row: the first polish step reads the values at
    the last iterate, and the last one evaluates nothing.  f at the root
    comes from the evaluation of that point: the last one, or the one
    before when the last polish step cycles back onto it; f is evaluated
    once more only when the root is a bracket end or the last polish
    step moved it to a new point.  The bracket sign invariant is
    maintained throughout the main loop.  A bracket without a sign
    change raises RootBracketError(what, i)."""
    if flo == 0.0:
        return lo, f(lo)
    if fhi == 0.0:
        return hi, f(hi)
    if (flo > 0) == (fhi > 0):
        raise RootBracketError(f"{what}: no sign change on [{lo}, {hi}]", i)
    lo_pos = flo > 0

    x = start if lo < start < hi else 0.5 * (lo + hi)
    fx, dfx = pick(v := f(x), i)
    dx_old = abs(hi - lo)
    dx = dx_old
    for _ in range(SOLVE_MAXITER):
        if fx == 0.0:
            return x, v
        if lo_pos == (fx > 0):
            lo = x
        else:
            hi = x
        take_bisect = (dfx is None or dfx == 0.0
                       or not (lo <= x - fx / dfx <= hi)
                       or abs(2.0 * fx) > abs(dx_old * dfx))
        dx_old = dx
        if take_bisect:
            dx = 0.5 * (hi - lo)
            x_new = lo + dx
        else:
            dx = fx / dfx
            x_new = x - dx
        tol = SOLVE_XTOL * max(1.0, abs(x_new))
        if x_new != x:  # (fx, dfx) at x are in hand otherwise
            x = x_new
            fx, dfx = pick(v := f(x), i)
        if abs(dx) < tol or hi - lo < tol:
            break
    prev = x, v  # the point evaluated before x, and f there
    for k in range(POLISH_STEPS):
        if not dfx:
            break
        step = fx / dfx
        if abs(step) > 1e-3 * max(1.0, abs(x)) or x - step == x:
            break
        if k == POLISH_STEPS - 1:
            # the last step evaluates nothing; f at the root is in hand
            # when it cycles back onto the point before x (by an ulp; a
            # nonzero float equal to another has its bits)
            x -= step
            return x, prev[1] if x == prev[0] != 0.0 else f(x)
        prev = x, v
        x -= step
        fx, dfx = pick(v := f(x), i)
    return x, v


def expand_left(f: Callable[[float], float], start: float, step: float,
                what: str = "leftward expansion") -> tuple[float, float]:
    """Walk left from `start` in geometrically growing steps until
    f(x) > 0; return x and f(x).  The walk looks for the bottom of a
    comb, so its RootBracketError names index 0."""
    s = step
    for _ in range(MAX_DOUBLINGS + 1):
        x = start - s
        v = f(x)
        if v > 0.0:
            return x, v
        s *= 2.0
    raise RootBracketError(what, 0)


def _solve_all(f: Callable, pick: Callable, lo, hi, flo, fhi, what: str,
               index, start=None, pieces: int = 1
               ) -> tuple[np.ndarray, tuple]:
    """The zero of g_i in each bracket [lo[i], hi[i]] whose ends have the
    values flo[i], fhi[i] (float64 arrays), where pick(f(x), index[i]) is
    (g_i(x), g_i'(x)) for the int array index; solved as _solve_one
    does from start[i] (a float64 array, or None: every lane from its
    midpoint), one lane at a time by _solve_one where the lane rule
    _lockstep leaves the lanes on floats for a potential of `pieces`
    pieces, and by _solve_array otherwise.  Returns the roots and f at
    them, as _eval returns it: on both engines the values of the step
    that evaluated the root, and one more evaluation for the roots that
    are a bracket end or that the last polish step moved to a new point
    (see _solve_one).  A bracket without a sign change raises
    RootBracketError(what, index[i]) for the lowest such i."""
    if start is None:
        start = np.full(lo.shape, math.nan)
    if not _lockstep(lo.size, pieces):
        out = [_solve_one(f, pick, what, *lane) for lane in zip(*(
            v.tolist() for v in (index, lo, hi, flo, fhi, start)))]
        return (np.array([x for x, _ in out]),
                tuple(map(np.array, zip(*(v for _, v in out)))))
    bad = np.flatnonzero((flo != 0.0) & (fhi != 0.0)
                         & ((flo > 0) == (fhi > 0)))
    if bad.size:
        i = bad[0]
        raise RootBracketError(f"{what}: no sign change on "
                               f"[{float(lo[i])}, {float(hi[i])}]",
                               int(index[i]))
    return _solve_array(f, pick, lo, hi, flo, fhi, index, start, pieces)


def solve_bracketed(fdf: Callable, lo: float, hi: float, flo: float,
                    fhi: float, what: str, pieces: int = 1
                    ) -> tuple[float, tuple]:
    """The lowest edge and fdf there: the zero of f - 1 (the edge
    function _edge at n = 0) on [lo, hi], whose ends have the values
    flo, fhi of f - 1, where fdf(x) is (f, f', ...); a one-lane
    _solve_all phase of index 0 from the midpoint.  It has a public name
    of its own because the per-layer tracer of perfbench/ times the
    package's public functions: rootfind.solve_calls and
    rootfind.solve_evals count these solves."""
    root, vals = _solve_all(fdf, _edge, *np.array([[lo], [hi], [flo], [fhi]]),
                            what, np.zeros(1, dtype=int), None, pieces)
    return float(root[0]), tuple(float(v[0]) for v in vals)


def _roots_all(scan: Callable, f: Callable, pick: Callable, lo, hi, prefer,
               what: str, index, pieces: int = 1) -> tuple[np.ndarray, tuple]:
    """The zero of g_i nearest prefer[i] in [lo[i], hi[i]] for each i,
    and f there (arguments and result as for _solve_all): _scan_array
    finds the brackets, reading pick(scan(x), index[i])[0], where the
    evaluator scan gives g_i as f does, and _solve_all solves them, each
    lane from prefer[i] if that lies inside its bracket.  If the scans of
    some lanes fail, the lowest one's RootBracketError is raised."""
    *bracket, failed = _scan_array(scan, lambda v, i: pick(v, i)[0], lo, hi,
                                   prefer, index, pieces)
    if failed.size:
        raise RootBracketError(what, int(index[failed[0]]))
    return _solve_all(f, pick, *bracket, what, index, prefer, pieces)


def _slope(v, i):
    """pick for a critical point, the zero of f': (f', f'') from the
    values v = (f, f', f'') of the solve, (f',) from the values (f, f')
    of a scan, which reads the first alone."""
    return v[1:]


def _eval(f, x, pieces: int = 1):
    """f at the points of the float64 array x, as a tuple of arrays: one
    float at a time where the lane rule _lockstep says so for a
    potential of `pieces` pieces, in one array call of f otherwise."""
    if not _lockstep(x.size, pieces):
        return tuple(map(np.array, zip(*map(f, x.tolist()))))
    return f(x)


# the sample positions of a scan as fractions i / (SCAN_SAMPLES - 1) of
# its span, applied as span * i / (SCAN_SAMPLES - 1) in that order
_SAMPLE_STEPS = np.arange(SCAN_SAMPLES, dtype=float)


def _scan_array(f, g, lo, hi, prefer, index, pieces: int = 1):
    """A sign-change subinterval of g_i on [lo[i], hi[i]] for every lane
    i of the float64 arrays lo, hi, prefer at once, where g(f(x), index)
    is the scanned function.

    The ends are tried first; a lane without a sign change there tries
    SCAN_SAMPLES points across its interval and, if still single-signed,
    is widened geometrically around prefer[i] (up to MAX_DOUBLINGS).
    Among several sign changes the one closest to prefer[i] wins.
    Returns the bracket arrays (lo, hi, g(lo), g(hi)) and the sorted
    positions of the lanes that found none.  The first attempt evaluates
    the ends in one _eval call and the interior samples of the lanes
    without a sign change in a second; later attempts take one call of
    all nine samples.  Contiguous windows, where each upper end equals
    the next lower end bit for bit (as from every caller of the
    package), share their ends: n lanes evaluate n + 1 points.  pieces
    goes to _eval.
    """
    # the upper ends follow the lower ones, from offset 1 when shared
    # (bitwise: == would merge -0.0 and 0.0)
    n = lo.size
    top = 1 if np.array_equal(lo[1:].view(np.int64),
                              hi[:-1].view(np.int64)) else n
    v = _eval(f, np.append(lo, hi[n - top:]), pieces)
    # copies: the bracket values are written in place below
    flo, fhi = (np.array(g(tuple(col[i:i + n] for col in v), index))
                for i in (0, top))
    out = [lo.copy(), hi.copy(), flo, fhi]
    live = np.flatnonzero((flo > 0) == (fhi > 0))
    a, b, p, ends = lo[live], hi[live], prefer[live], (flo[live], fhi[live])
    span = b - a
    inner = SCAN_SAMPLES - 2
    for attempt in range(MAX_DOUBLINGS + 1):
        if not live.size:
            break
        xs = a[:, None] + span[:, None] * _SAMPLE_STEPS / (SCAN_SAMPLES - 1)
        idx = np.repeat(index[live], inner)
        pts = xs[:, 1:-1].ravel()
        if attempt:
            idx = np.concatenate((index[live], index[live], idx))
            pts = np.concatenate((a, b, pts))
        v = g(_eval(f, pts, pieces), idx)
        if attempt:
            ends, v = (v[:live.size], v[live.size:2 * live.size]), \
                v[2 * live.size:]
        fs = np.column_stack((ends[0], v.reshape(-1, inner), ends[1]))
        pos = fs > 0
        change = pos[:, :-1] != pos[:, 1:]
        with np.errstate(over="ignore", invalid="ignore"):
            d = np.where(change,
                         np.abs(0.5 * (xs[:, :-1] + xs[:, 1:]) - p[:, None]),
                         np.inf)
        found = change.any(axis=1)
        rows = np.flatnonzero(found)
        best = d[rows].argmin(axis=1)
        for arr, vals, col in zip(out, (xs, xs, fs, fs), (0, 1, 0, 1)):
            arr[live[rows]] = vals[rows, best + col]
        keep = ~found
        live, p, span = live[keep], p[keep], span[keep]
        a, b = p - span, p + span
        span = span * 2.0
    return (*out, live)


def _solve_array(f, pick, lo, hi, flo, fhi, index, start, pieces):
    """_solve_one for every lane of the float64 arrays lo, hi, flo, fhi
    at once (each bracket has a sign change or a zero end), where
    pick(f(x), index) is (g, g'): one float64 array per piece of solver
    state, the same points and branches, one call of _eval (with
    `pieces`) per step for every live lane, and numpy's elementwise
    + - * /, abs and comparisons, which round as Python floats do.  A
    lane starts from start where that lies strictly inside (lo, hi) and
    from the midpoint elsewhere (nan for no start), and leaves the
    arrays when it finishes.  Each lane's step counter k counts
    Newton/bisection steps up to SOLVE_MAXITER and polish steps above
    it; a converged lane jumps to SOLVE_MAXITER, or one past it when its
    converging step left x in place and so took the first polish step
    too.  Divisions by g' = 0 are masked where Python would not reach
    them, and overflow to inf or nan stays silent as with floats.  Every
    step writes its points and f there into one of two slots, by its
    parity, so a lane's last two steps are in hand: a root equal to
    either point keeps f there (not at 0.0, which equals -0.0), and the
    other roots get f from one _eval call of them all at the end."""
    root = np.where(flo == 0.0, lo, hi)
    live = np.flatnonzero((flo != 0.0) & (fhi != 0.0))
    a, b, lo_pos = lo[live], hi[live], flo[live] > 0
    x = _start(a, b, start[live])
    dx = dx_old = np.abs(b - a)
    k = np.zeros(live.size, dtype=np.intp)
    slots, odd = [], 0  # [x, *f] per slot; x is nan where never written
    while live.size:
        v = _eval(f, x, pieces)
        slots = slots or [[np.full(lo.size, math.nan)]
                          + [np.empty(lo.size) for _ in v] for _ in range(2)]
        for col, c in zip(slots[odd], (x, *v)):
            col[live] = c
        odd ^= 1
        fx, dfx = pick(v, index[live])
        main = k < SOLVE_MAXITER
        with np.errstate(over="ignore", invalid="ignore"):
            nz = dfx != 0.0
            step = np.divide(fx, dfx, out=np.zeros_like(fx), where=nz)
            # Newton/bisection on [a, b]: lanes in the polish stage
            # compute this too, but never read their bracket again
            up = lo_pos == (fx > 0)
            a = np.where(up, x, a)
            b = np.where(up, b, x)
            newton = x - step
            halve = (~nz | ~((a <= newton) & (newton <= b))
                     | (np.abs(2.0 * fx) > np.abs(dx_old * dfx)))
            dx_old = dx
            dx = np.where(halve, 0.5 * (b - a), step)
            x_new = np.where(halve, a + dx, newton)
            tol = SOLVE_XTOL * np.fmax(1.0, np.abs(x_new))
            conv = (np.abs(dx) < tol) | (b - a < tol)
            # polish; a lane whose step no longer moves x would only
            # evaluate the same x again
            stop = (~nz | (np.abs(step) > 1e-3 * np.fmax(1.0, np.abs(x)))
                    | (newton == x))
        zero = main & (fx == 0.0)
        # a converging step that leaves x in place is also the first
        # polish step, from the values in hand
        carry = main & conv & (x_new == x) & ~zero
        polish = ~main | carry
        x = np.where(polish, np.where(stop, x, newton),
                     np.where(zero, x, x_new))
        k = np.where(main & conv, SOLVE_MAXITER + carry, k + 1)
        done = zero | (polish & (stop | (k >= SOLVE_MAXITER + POLISH_STEPS)))
        if done.any():
            root[live[done]] = x[done]
            keep = ~done
            live, a, b, lo_pos, x, dx, dx_old, k = (
                v[keep] for v in (live, a, b, lo_pos, x, dx, dx_old, k))
    miss, vals = np.ones(lo.size, dtype=bool), []
    for xs, *vs in slots:
        hit = miss & (root == xs) & (root != 0.0)
        vals = [np.where(hit, c, w) for c, w in zip(vs, vals or vs)]
        miss &= ~hit
    miss = np.flatnonzero(miss)
    v = _eval(f, root[miss], pieces)  # no call of f when nothing is missing
    vals = vals or [np.empty(lo.size) for _ in v]
    for col, c in zip(vals, v):
        col[miss] = c
    return root, tuple(vals)


def _start(lo, hi, start):
    """Where the solves of the brackets [lo, hi] begin (float64 arrays):
    start where it lies strictly inside, the midpoint elsewhere."""
    return np.where((lo < start) & (start < hi), start, 0.5 * (lo + hi))


@dataclass(frozen=True)
class CombRoots:
    """Labeled comb structure: edges, critical points and slit heights.

    minus/plus/critical/degenerate/heights are indexed by gap number
    n = 1..n_max (python index n-1); lambda0 is the lowest spectral point
    (the simple zero of f - 1 left of everything else).  heights[n-1] is
    arccosh((-1)^n f(critical[n-1])), clipped at 0.  Band n is
    [plus_{n-1}, minus_n] with plus_0 = lambda0.  slopes holds f' at the
    interlaced edges lambda0, minus_1, plus_1, minus_2, ... as their
    solves evaluated it, 0.0 at both edges of a degenerate gap; the
    effective masses are read from it.  heights and slopes are derived
    from the edges and criticals: dataclasses.replace carries them along
    unchanged.
    """

    lambda0: float
    minus: tuple[float, ...]
    plus: tuple[float, ...]
    critical: tuple[float, ...]
    degenerate: tuple[bool, ...]
    heights: tuple[float, ...]
    slopes: tuple[float, ...]
    anomalies: tuple[str, ...]

    @property
    def n_max(self) -> int:
        return len(self.minus)

    def _index(self, n: int) -> int:
        """n - 1 for a band or gap index n in 1..n_max; ValueError
        otherwise (a python index would wrap or run off the end)."""
        if not 1 <= n <= self.n_max:
            raise ValueError(f"n={n} outside 1..{self.n_max}")
        return n - 1

    def band(self, n: int) -> tuple[float, float]:
        """Spectral band sigma_n = [plus_{n-1}, minus_n] (1 <= n <= n_max)."""
        i = self._index(n)
        left = self.lambda0 if i == 0 else self.plus[i - 1]
        return left, self.minus[i]

    def band_length(self, n: int) -> float:
        lo, hi = self.band(n)
        return hi - lo

    def gap(self, n: int) -> tuple[float, float] | None:
        """Open gap gamma_n = (minus_n, plus_n), or None if degenerate."""
        i = self._index(n)
        if self.degenerate[i]:
            return None
        return self.minus[i], self.plus[i]

    def gap_length(self, n: int) -> float:
        i = self._index(n)
        return self.plus[i] - self.minus[i]

    def open_gaps(self) -> tuple[int, ...]:
        return tuple(n for n in range(1, self.n_max + 1)
                     if not self.degenerate[n - 1])

    def merged_intervals(self) -> tuple[tuple[int, int, float, float], ...]:
        """Maximal spectral intervals [plus_n, minus_n1] made of n1 - n
        bands joined through degenerate interior gaps.

        Only intervals bounded by open gaps (or the spectral bottom on
        the left, n = 0) within the computed range are reported.
        """
        out = []
        start = 0  # interval starts above gap `start` (0 = bottom)
        for g in range(1, self.n_max + 1):
            if not self.degenerate[g - 1]:
                lo = self.lambda0 if start == 0 else self.plus[start - 1]
                out.append((start, g, lo, self.minus[g - 1]))
                start = g
        return tuple(out)

    @cached_property
    def _edges(self) -> list[float]:
        """The interlaced edges lambda0, minus_1, plus_1, minus_2, ..."""
        return [self.lambda0, *itertools.chain(*zip(self.minus, self.plus))]

    def locate(self, lam: float) -> tuple[str, int]:
        """Classify lam: ('below', 0), ('band', n) with n >= 1, or ('gap', n).

        Edge points fall into the adjacent band/gap arbitrarily but
        consistently (closed gaps, half-open bands); values above the last
        computed gap raise.  A bisection over the interlaced edges.
        """
        if lam < self.lambda0:
            return ("below", 0)
        edges = self._edges
        if not lam <= edges[-1]:
            raise ValueError(f"lambda={lam} lies above the computed structure "
                             f"(n_max={self.n_max})")
        # the first edge at or above lam: minus_n (index 2n - 1) closes
        # band n unless lam is on it, plus_n (index 2n) closes gap n
        i = bisect.bisect_left(edges, lam, 1)
        if i % 2 and lam < edges[i]:
            return ("band", (i + 1) // 2)
        return ("gap", (i + 1) // 2)


def comb_roots(f: Callable, fdf: Callable, lo: np.ndarray, hi: np.ndarray,
               lambda0_seed: float, edge_seeds: np.ndarray,
               what: str = "comb", pieces: int = 1) -> CombRoots:
    """Compute edges/criticals of a comb discriminant.

    f(lam) returns (f, f', f''), on a float or a float64 array (see
    _solve_all).  Edges with index n satisfy f = (-1)^n; the critical
    point of gap n is the unique zero of f' in [minus_n, plus_n].  The
    float64 arrays lo and hi hold the windows [lo[n-1], hi[n-1]] that
    seed the search for that zero, each straddling gap n, clear of the
    adjacent criticals, for gaps n = 1 .. n_max + 1 (n_max = lo.size - 1;
    the extra gap is a right anchor).  Every critical point is found
    first, then the lowest edge, then both edges of every open gap
    together.  The critical scan and the edges read only (f, f'): fdf
    returns those two (the same numbers as the first two of f) and
    serves every evaluation but those of the critical solve, so an
    evaluator can skip f'' there.  edge_seeds is an
    (n_max, 2) array of guesses (minus_n, plus_n) at the edges of gap n
    in row n - 1: each edge solve starts there when the guess lies
    inside its bracket [crit_{n-1}, crit_n] or [crit_n, crit_{n+1}] and
    at its midpoint otherwise (a nan guess: always the midpoint), so it
    saves steps but cannot change which root is found.
    pieces, the piece count of the potential behind f and fdf, goes to
    the lane rule of every phase (_lockstep).
    """
    n_max = lo.size - 1
    # critical points for gaps 1 .. n_max+1, with f there (the solve's
    # own value): it sets the heights and the bracket ends of the edges;
    # the scan reads the sign of f' from fdf
    ns = np.arange(1, n_max + 2)
    crit, (fcrit, *_) = _roots_all(fdf, f, _slope, lo, hi, 0.5 * (lo + hi),
                                   f"{what}: critical point", ns, pieces)

    # lowest edge: the edge function at n = 0, f - 1, is zero on
    # (-inf, crit_1); a one-lane phase from the point the expansion found
    # and its value; its failures name index 0
    left, fleft = expand_left(lambda x: fdf(x)[0] - 1.0,
                              min(lambda0_seed, float(crit[0])) - 0.25, 0.5,
                              what=f"{what}: lowest edge")
    lam0, at0 = solve_bracketed(fdf, left, crit[0], fleft, fcrit[0] - 1.0,
                                f"{what}: lowest edge", pieces)

    # heights and degeneracy from d_n = (-1)^n f(crit_n) - 1
    t = _parity(ns)
    d = t[:-1] * fcrit[:-1] - 1.0
    heights = tuple(math.acosh(max(1.0 + x, 1.0)) for x in d.tolist())
    g = np.flatnonzero(d > DEGENERACY_TOL)  # open gaps, as n - 1

    # the edges of open gap n: zeros of (-1)^n f - 1 on [crit_{n-1},
    # crit_n] and [crit_n, crit_{n+1}] (crit_0 = lam0), all solved
    # together, the lower edge of a gap first; f(lam0) = 1 up to
    # rounding, and the solvers read only the sign of -f(lam0) - 1 and
    # whether it is zero
    below = np.concatenate(([lam0], crit)), np.concatenate(([1.0], fcrit))
    roots, at_roots = _solve_all(
        fdf, _edge, *(np.column_stack(pair).ravel() for pair in (
            (below[0][g], crit[g]), (crit[g], crit[g + 1]),
            (t[g] * below[1][g] - 1.0, d[g]),
            (d[g], t[g] * fcrit[g + 1] - 1.0))),
        f"{what}: gap edge", np.repeat(g + 1, 2), edge_seeds[g].ravel(),
        pieces)
    lo, hi = roots[0::2], roots[1::2]
    wide = ~(hi - lo < GAP_WIDTH_TOL * np.fmax(1.0, np.abs(lo)))
    escaped = wide & ~((lo - 1e-9 <= crit[g]) & (crit[g] <= hi + 1e-9))
    minus, plus = crit[:n_max].copy(), crit[:n_max].copy()
    minus[g[wide]], plus[g[wide]] = lo[wide], hi[wide]
    degenerate = np.ones(n_max, dtype=bool)
    degenerate[g[wide]] = False
    # f' at both edges of every open gap, from the edge solves
    slopes = np.zeros((n_max, 2))
    if g.size:  # (no lane, no values)
        slopes[g[wide]] = at_roots[1].reshape(-1, 2)[wide]

    notes = [(n, f"(-1)^{n} f at critical point {n} is {1.0 + d[n - 1]:.3e}"
                 " < 1") for n in (np.flatnonzero(d < -1e-9) + 1).tolist()]
    notes += [(n, f"critical point {n} escaped its closed gap")
              for n in (g[escaped] + 1).tolist()]
    return CombRoots(lam0, tuple(minus.tolist()), tuple(plus.tolist()),
                     tuple(crit[:n_max].tolist()),
                     tuple(degenerate.tolist()), heights,
                     (at0[1], *slopes.ravel().tolist()),
                     tuple(note for _, note in sorted(notes,
                                                      key=lambda p: p[0])))


def _parity(n):
    """(-1)^n as a float, for an int or elementwise for an int array."""
    return 1.0 - 2.0 * (n % 2)


def _edge(v, n):
    """(g, g') of the edge function g = (-1)^n f - 1 of edge index n (an
    int or an int array) from the evaluator's values v = (f, f', ...);
    at n = 0 it is f - 1 bit for bit."""
    t = _parity(n)
    return t * v[0] - 1.0, t * v[1]


def _comb_k(where: str, n: int, f: float, slack: float = 0.0) -> complex:
    """Quasimomentum on the comb from a discriminant value f at a point
    that CombRoots.locate placed at (where, n).

    Band n maps onto [pi(n-1), pi n] increasing, gap n onto the vertical
    slit pi n + i [0, h_n], and the ray below the spectrum onto the
    positive imaginary axis.  The arccos/arccosh argument is clamped to
    its domain; a clamp larger than _CLAMP_TOL + slack raises ValueError.
    A caller that knows f' passes the edge resolution _edge_slack as
    slack: a positive slack only widens the accepted range.
    """
    x = -f if n % 2 else f
    if where == "band":
        x = -x
        lo, hi = -1.0, 1.0
    else:
        lo, hi = 1.0, math.inf
    tol = _CLAMP_TOL + slack if slack > 0.0 else _CLAMP_TOL
    if not lo - tol <= x <= hi + tol:
        raise ValueError(f"discriminant value {f} is off the comb branch "
                         f"({where} {n}) beyond the clamp tolerance")
    x = min(max(x, lo), hi)
    if where == "band":
        return math.pi * (n - 1) + math.acos(x)
    return math.pi * n + 1j * math.acosh(x)


def _edge_slack(lam: float, df: float) -> float:
    """How far f may be off the comb at lam because the edges near lam
    are resolved only to the solver's step tolerance: |f'(lam)| times
    SOLVE_XTOL * max(1, |lam|).  Where f ~ 1/c is steep (c -> 0) this
    exceeds _CLAMP_TOL at the structure's own edges."""
    return abs(df) * SOLVE_XTOL * max(1.0, abs(lam))


def _depth_for(lam: float, q0: float) -> int:
    """Gap count whose structure reaches past lam (nanotube gaps sit near
    z = pi n / 2 with z = sqrt(lambda - q0))."""
    z = math.sqrt(max(lam - q0, 1.0))
    return max(2, int(math.ceil(2.0 * z / math.pi)) + 3)

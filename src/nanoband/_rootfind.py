"""Bracketed root finding and the comb structure shared by both discriminants.

Everything that turns a discriminant-like function f (with f(band edges)
alternating between +1 and -1) into labeled edges, critical points and
slit heights lives here.  Both the Hill discriminant and the nanotube's
modified discriminant reuse the same machinery; only the seed positions
differ.  The result type CombRoots carries the band/gap bookkeeping and
is subclassed by monodromy.HillSpectrum and spectrum.BandStructure;
_comb_k maps a discriminant value onto the comb (the quasimomentum
branch) and _depth_for says how many gaps cover a given lambda.

The two control algorithms (solve_bracketed and find_sign_change) each
exist once, as a private step generator that yields the points it wants
evaluated and receives the values.  A per-gap search ("lane") chains
them with `yield from`; _solve_lanes drives a structure's lanes with one
evaluator f, which maps a float to a tuple of floats and a float64 array
to a tuple of arrays.  Below _LOCKSTEP_GAPS gaps the lanes run one after
another on scalar points; from there on up to _LANES of them advance in
lockstep and share one call of f per solver step.  The evaluators return
the scalar numbers bit for bit on arrays, and lockstep changes only the
order in which points are evaluated, not which points: both ways give
identical structures and raise the same RootBracketError.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Degeneracy threshold on (-1)^n f(crit) - 1: below double-root resolution
# of the edge solver.  Gaps narrower than GAP_WIDTH_TOL * max(1, |lam|)
# are collapsed onto the critical point.
DEGENERACY_TOL = 1e-12
GAP_WIDTH_TOL = 1e-9
MAX_DOUBLINGS = 8
# solve_bracketed: relative step tolerance, iteration cap and the number
# of unguarded Newton steps that polish a converged root
SOLVE_XTOL = 1e-13
SOLVE_MAXITER = 100
POLISH_STEPS = 2
# find_sign_change: samples across the interval per attempt
SCAN_SAMPLES = 9

# Domain slack allowed when clamping arccos/arccosh arguments onto the comb.
_CLAMP_TOL = 1e-12

# Lockstep solving (see _solve_lanes) starts at this many gaps.  A
# structure with its masses, 1-6 pieces, best of 5: lockstep was 1.7-3x
# slower at 20 gaps, broke even near 70 and was 1.3-1.7x faster at 100.
_LOCKSTEP_GAPS = 100
# Live lanes in lockstep.  On a 2400-gap two-step comb, 64/256/1024/all
# live lanes took 0.87/0.52/0.61/0.60 s and raised the peak RSS by
# 1.4/1.8/3.4/6.5 MB (0.6 MB one lane at a time).
_LANES = 256


class RootBracketError(RuntimeError):
    """A sign-change bracket could not be established after expansion."""

    def __init__(self, what: str, index: int | None = None):
        self.what = what
        self.index = index
        msg = what if index is None else f"{what} (index {index})"
        super().__init__(msg)


def _run(steps, f: Callable):
    """Run a step generator to its return value, answering every point x
    it yields with f(x)."""
    try:
        x = next(steps)
        while True:
            x = steps.send(f(x))
    except StopIteration as stop:
        return stop.value


def _same(v):
    """The pick of callables that already return what the algorithm reads."""
    return v


def solve_bracketed(fdf: Callable[[float], tuple[float, float | None]],
                    lo: float, hi: float,
                    flo: float | None = None,
                    fhi: float | None = None) -> float:
    """Safeguarded Newton/bisection solve of f(x)=0 on a sign-change bracket.

    fdf(x) returns (f(x), f'(x)); the derivative may be None, in which
    case the solve is pure bisection.  Newton steps are taken while they
    stay inside the bracket and make decent progress, with bisection as
    the fallback; terminates when the step drops below the relative
    tolerance SOLVE_XTOL, after which POLISH_STEPS unguarded Newton steps
    push the root to machine accuracy.  The bracket sign invariant is
    maintained throughout the main loop.
    """
    return _run(_solve_steps(_same, lo, hi, flo, fhi), fdf)


def _solve_steps(pick, lo, hi, flo=None, fhi=None, what="bracketed solve",
                 index=None):
    """solve_bracketed as a step generator: yields x and reads fdf(x) as
    pick of the value sent back.  A bracket without a sign change raises
    RootBracketError(what, index)."""
    if flo is None:
        flo = pick((yield lo))[0]
    if fhi is None:
        fhi = pick((yield hi))[0]
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0) == (fhi > 0):
        raise RootBracketError(f"{what}: no sign change on [{lo}, {hi}]",
                               index)
    lo_pos = flo > 0

    x = 0.5 * (lo + hi)
    fx, dfx = pick((yield x))
    dx_old = abs(hi - lo)
    dx = dx_old
    for _ in range(SOLVE_MAXITER):
        if fx == 0.0:
            return x
        if lo_pos == (fx > 0):
            lo = x
        else:
            hi = x
        take_bisect = (dfx is None or dfx == 0.0
                       or not (lo < x - fx / dfx < hi)
                       or abs(2.0 * fx) > abs(dx_old * dfx))
        dx_old = dx
        if take_bisect:
            dx = 0.5 * (hi - lo)
            x_new = lo + dx
        else:
            dx = fx / dfx
            x_new = x - dx
        tol = SOLVE_XTOL * max(1.0, abs(x_new))
        if abs(dx) < tol or hi - lo < tol:
            x = x_new
            break
        x = x_new
        fx, dfx = pick((yield x))
    for _ in range(POLISH_STEPS):
        fx, dfx = pick((yield x))
        if not dfx:
            break
        step = fx / dfx
        if abs(step) > 1e-3 * max(1.0, abs(x)):
            break
        x -= step
    return x


def expand_left(f: Callable[[float], float], start: float, step: float,
                predicate: Callable[[float], bool],
                what: str = "leftward expansion") -> float:
    """Walk left from `start` in geometrically growing steps until
    predicate(f(x)) holds; return that x.  The walk looks for the bottom
    of a comb, so its RootBracketError names index 0."""
    s = step
    for _ in range(MAX_DOUBLINGS + 1):
        x = start - s
        if predicate(f(x)):
            return x
        s *= 2.0
    raise RootBracketError(what, 0)


def find_sign_change(f: Callable[[float], float], lo: float, hi: float,
                     prefer: float, what: str = "sign change scan",
                     index: int | None = None) -> tuple[float, float, float, float]:
    """Locate a sign-change subinterval of f on [lo, hi].

    Endpoints are tried first; on failure SCAN_SAMPLES points across the
    interval are tried and, if still single-signed, the interval is
    geometrically widened around `prefer` (up to MAX_DOUBLINGS).  Among
    several sign changes the one closest to `prefer` wins.
    """
    return _run(_scan_steps(_same, lo, hi, prefer, what, index), f)


def _scan_steps(pick, lo, hi, prefer, what="sign change scan", index=None):
    """find_sign_change as a step generator: yields x and reads f(x) as
    pick of the value sent back."""
    span = hi - lo
    for attempt in range(MAX_DOUBLINGS + 1):
        flo = pick((yield lo))
        fhi = pick((yield hi))
        if (flo > 0) != (fhi > 0):
            if attempt == 0:
                return lo, hi, flo, fhi
        xs = [lo + span * i / (SCAN_SAMPLES - 1) for i in range(SCAN_SAMPLES)]
        fs = [flo]
        for x in xs[1:-1]:
            fs.append(pick((yield x)))
        fs.append(fhi)
        best = None
        for i in range(SCAN_SAMPLES - 1):
            if (fs[i] > 0) != (fs[i + 1] > 0):
                mid = 0.5 * (xs[i] + xs[i + 1])
                d = abs(mid - prefer)
                if best is None or d < best[0]:
                    best = (d, xs[i], xs[i + 1], fs[i], fs[i + 1])
        if best is not None:
            return best[1], best[2], best[3], best[4]
        lo = prefer - span
        hi = prefer + span
        span *= 2.0
    raise RootBracketError(what, index)


def _root_in(pick, lo, hi, prefer, what, index):
    """Lane: the zero of g nearest `prefer` in [lo, hi] (widened as
    find_sign_change does), where pick maps an evaluator value to
    (g, g')."""
    blo, bhi, glo, ghi = yield from _scan_steps(lambda v: pick(v)[0], lo, hi,
                                                prefer, what, index)
    return (yield from _solve_steps(pick, blo, bhi, glo, ghi, what, index))


def _critical(lo, hi, prefer, what, index):
    """Lane: (x, f(x)) at the zero x of f' nearest `prefer` in [lo, hi],
    for an evaluator returning (f, f', f'')."""
    x = yield from _root_in(lambda v: (v[1], v[2]), lo, hi, prefer, what,
                            index)
    return x, (yield x)[0]


def _solve_lanes(lanes, f: Callable, count: int) -> list:
    """The return values of the lanes (generators that yield points x and
    receive f(x)) of a `count`-gap search, in order.  If lanes raise
    RootBracketError, that of the lowest-index one is raised."""
    if count < _LOCKSTEP_GAPS:
        return [_run(lane, f) for lane in lanes]
    return _lockstep(lanes, f)


def _lockstep(lanes, f: Callable) -> list:
    """_solve_lanes from _LOCKSTEP_GAPS gaps on: at most _LANES live lanes,
    one call of f on a float64 array per step for all of them."""
    results = []
    failed = None  # (lane index, exception) of the lowest failing lane
    live = []  # (lane index, generator, pending x)
    pending = iter(lanes)
    while True:
        step = []
        if live:
            cols = f(np.array([x for _, _, x in live]))
            step = [(i, gen, v) for (i, gen, _), v
                    in zip(live, zip(*[col.tolist() for col in cols]))]
        if failed is None:
            for gen in itertools.islice(pending, _LANES - len(live)):
                step.append((len(results), gen, None))
                results.append(None)
        if not step:
            break
        live = []
        for i, gen, value in step:
            if failed is not None and i > failed[0]:
                continue
            try:
                live.append((i, gen, gen.send(value)))
            except StopIteration as stop:
                results[i] = stop.value
            except RootBracketError as exc:
                if failed is None or i < failed[0]:
                    failed = (i, exc)
    if failed is not None:
        raise failed[1]
    return results

@dataclass(frozen=True)
class CombRoots:
    """Labeled comb structure: edges, critical points and slit heights.

    minus/plus/critical/degenerate/heights are indexed by gap number
    n = 1..n_max (python index n-1); lambda0 is the lowest spectral point
    (the simple zero of f - 1 left of everything else).  heights[n-1] is
    arccosh((-1)^n f(critical[n-1])), clipped at 0.  Band n is
    [plus_{n-1}, minus_n] with plus_0 = lambda0.
    """

    lambda0: float
    minus: tuple[float, ...]
    plus: tuple[float, ...]
    critical: tuple[float, ...]
    degenerate: tuple[bool, ...]
    heights: tuple[float, ...]
    anomalies: tuple[str, ...]

    @property
    def n_max(self) -> int:
        return len(self.minus)

    def band(self, n: int) -> tuple[float, float]:
        """Spectral band sigma_n = [plus_{n-1}, minus_n] (n >= 1)."""
        left = self.lambda0 if n == 1 else self.plus[n - 2]
        return left, self.minus[n - 1]

    def band_length(self, n: int) -> float:
        lo, hi = self.band(n)
        return hi - lo

    def gap(self, n: int) -> tuple[float, float] | None:
        """Open gap gamma_n = (minus_n, plus_n), or None if degenerate."""
        if self.degenerate[n - 1]:
            return None
        return self.minus[n - 1], self.plus[n - 1]

    def gap_length(self, n: int) -> float:
        return self.plus[n - 1] - self.minus[n - 1]

    def open_gaps(self) -> tuple[int, ...]:
        return tuple(n for n in range(1, self.n_max + 1)
                     if not self.degenerate[n - 1])

    def first_open_gap(self) -> int | None:
        for n in range(1, self.n_max + 1):
            if not self.degenerate[n - 1]:
                return n
        return None

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

    def locate(self, lam: float) -> tuple[str, int]:
        """Classify lam: ('below', 0), ('band', n) with n >= 1, or ('gap', n).

        Edge points fall into the adjacent band/gap arbitrarily but
        consistently (closed gaps, half-open bands); values above the last
        computed gap raise.
        """
        if lam < self.lambda0:
            return ("below", 0)
        for n in range(1, self.n_max + 1):
            left = self.lambda0 if n == 1 else self.plus[n - 2]
            if left <= lam < self.minus[n - 1]:
                return ("band", n)
            if self.minus[n - 1] <= lam <= self.plus[n - 1]:
                return ("gap", n)
        raise ValueError(f"lambda={lam} lies above the computed structure "
                         f"(n_max={self.n_max})")


def comb_roots(f: Callable, n_max: int,
               crit_window: Callable[[int], tuple[float, float]],
               lambda0_seed: float,
               what: str = "comb") -> CombRoots:
    """Compute edges/criticals of a comb discriminant.

    f(lam) returns (f, f', f''), on a float or a float64 array (see
    _solve_lanes).  Edges with index n satisfy f = (-1)^n; the critical
    point of gap n is the unique zero of f' in [minus_n, plus_n].
    crit_window(n) seeds the search for that zero (an interval straddling
    the n-th gap, clear of adjacent criticals).  Every critical point is
    found first, then the lowest edge, then every gap's two edges.
    """
    # critical points for gaps 1 .. n_max+1 (one extra as a right anchor),
    # with f there: it sets the heights and the bracket ends of the edges
    def critical(n: int):
        lo, hi = crit_window(n)
        return _critical(lo, hi, 0.5 * (lo + hi), f"{what}: critical point",
                         n)

    crit, fcrit = zip(*_solve_lanes(map(critical, range(1, n_max + 2)), f,
                                    n_max))

    # lowest edge: f - 1 = 0 on (-inf, crit[0]); a single solve, so never
    # in lockstep; its failures name index 0
    def bottom(x: float) -> tuple[float, float]:
        v, d1, _ = f(x)
        return v - 1.0, d1

    left = expand_left(lambda x: f(x)[0] - 1.0,
                       min(lambda0_seed, crit[0]) - 0.25, 0.5,
                       lambda v: v > 0.0, what=f"{what}: lowest edge")
    try:
        lam0 = solve_bracketed(bottom, left, crit[0], None, fcrit[0] - 1.0)
    except RootBracketError as exc:
        raise RootBracketError(f"{what}: lowest edge: {exc.what}", 0) from None

    # (minus, plus, degenerate, height, anomalies) of gap n
    def gap(n: int):
        t = -1.0 if n % 2 else 1.0
        cn = crit[n - 1]
        d = t * fcrit[n - 1] - 1.0
        anomalies = []
        if d < -1e-9:
            anomalies.append(
                f"(-1)^{n} f at critical point {n} is {1.0 + d:.3e} < 1")
        height = math.acosh(max(1.0 + d, 1.0))
        if d <= DEGENERACY_TOL:
            return cn, cn, True, height, anomalies
        edge = lambda v: (t * v[0] - 1.0, t * v[1])
        if n == 1:
            anchor_l, f_l = lam0, None
        else:
            anchor_l, f_l = crit[n - 2], t * fcrit[n - 2] - 1.0
        label = f"{what}: gap edge"
        lo_edge = yield from _solve_steps(edge, anchor_l, cn, f_l, d, label,
                                          n)
        hi_edge = yield from _solve_steps(edge, cn, crit[n], d,
                                          t * fcrit[n] - 1.0, label, n)
        if hi_edge - lo_edge < GAP_WIDTH_TOL * max(1.0, abs(lo_edge)):
            return cn, cn, True, height, anomalies
        if not (lo_edge - 1e-9 <= cn <= hi_edge + 1e-9):
            anomalies.append(f"critical point {n} escaped its closed gap")
        return lo_edge, hi_edge, False, height, anomalies

    minus, plus, degenerate, heights, anomalies = zip(
        *_solve_lanes(map(gap, range(1, n_max + 1)), f, n_max))
    return CombRoots(lam0, minus, plus, crit[:n_max], degenerate, heights,
                     tuple(a for gap_anomalies in anomalies
                           for a in gap_anomalies))


def _comb_k(where: str, n: int, f: float) -> complex:
    """Quasimomentum on the comb from a discriminant value f at a point
    that CombRoots.locate placed at (where, n).

    Band n maps onto [pi(n-1), pi n] increasing, gap n onto the vertical
    slit pi n + i [0, h_n], and the ray below the spectrum onto the
    positive imaginary axis.  The arccos/arccosh argument is clamped to
    its domain; a clamp larger than _CLAMP_TOL raises ValueError.
    """
    x = -f if n % 2 else f
    if where == "band":
        x = -x
        lo, hi = -1.0, 1.0
    else:
        lo, hi = 1.0, math.inf
    if not lo - _CLAMP_TOL <= x <= hi + _CLAMP_TOL:
        raise ValueError(f"discriminant value {f} is off the comb branch "
                         f"({where} {n}) beyond the clamp tolerance")
    x = min(max(x, lo), hi)
    if where == "band":
        return math.pi * (n - 1) + math.acos(x)
    return math.pi * n + 1j * math.acosh(x)


def _depth_for(lam: float, q0: float) -> int:
    """Gap count whose structure reaches past lam (nanotube gaps sit near
    z = pi n / 2 with z = sqrt(lambda - q0); Hill gaps are twice as sparse,
    so the same count covers them too)."""
    z = math.sqrt(max(lam - q0, 1.0))
    return max(2, int(math.ceil(2.0 * z / math.pi)) + 3)

"""Bracketed root finding and the comb structure shared by both discriminants.

Everything that turns a discriminant-like function f (with f(band edges)
alternating between +1 and -1) into labeled edges, critical points and
slit heights lives here.  Both the Hill discriminant and the nanotube's
modified discriminant reuse the same machinery; only the seed positions
differ.  The result type CombRoots carries the band/gap bookkeeping and
is subclassed by monodromy.HillSpectrum and spectrum.BandStructure;
_comb_k maps a discriminant value onto the comb (the quasimomentum
branch) and _depth_for says how many gaps cover a given lambda.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

# Degeneracy threshold on (-1)^n f(crit) - 1: below double-root resolution
# of the edge solver.  Gaps narrower than GAP_WIDTH_TOL * max(1, |lam|)
# are collapsed onto the critical point.
DEGENERACY_TOL = 1e-12
GAP_WIDTH_TOL = 1e-9
MAX_DOUBLINGS = 8

# Domain slack allowed when clamping arccos/arccosh arguments onto the comb.
_CLAMP_TOL = 1e-12


class RootBracketError(RuntimeError):
    """A sign-change bracket could not be established after expansion."""

    def __init__(self, what: str, index: int | None = None):
        self.what = what
        self.index = index
        msg = what if index is None else f"{what} (index {index})"
        super().__init__(msg)


def solve_bracketed(fdf: Callable[[float], tuple[float, float | None]],
                    lo: float, hi: float,
                    flo: float | None = None,
                    fhi: float | None = None,
                    xtol: float = 1e-13,
                    maxiter: int = 100,
                    polish: int = 2) -> float:
    """Safeguarded Newton/bisection solve of f(x)=0 on a sign-change bracket.

    fdf(x) returns (f(x), f'(x)); the derivative may be None, in which
    case the solve is pure bisection.  Newton steps are taken while they
    stay inside the bracket and make decent progress, with bisection as
    the fallback; terminates when the step drops below the (relative)
    tolerance, after which `polish` unguarded Newton steps push the root
    to machine accuracy.  The bracket sign invariant is maintained
    throughout the main loop.
    """
    if flo is None:
        flo = fdf(lo)[0]
    if fhi is None:
        fhi = fdf(hi)[0]
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0) == (fhi > 0):
        raise RootBracketError(f"no sign change on [{lo}, {hi}]")
    lo_pos = flo > 0

    x = 0.5 * (lo + hi)
    fx, dfx = fdf(x)
    dx_old = abs(hi - lo)
    dx = dx_old
    for _ in range(maxiter):
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
        tol = xtol * max(1.0, abs(x_new))
        if abs(dx) < tol or hi - lo < tol:
            x = x_new
            break
        x = x_new
        fx, dfx = fdf(x)
    for _ in range(polish):
        fx, dfx = fdf(x)
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
    predicate(f(x)) holds; return that x."""
    s = step
    for _ in range(MAX_DOUBLINGS + 1):
        x = start - s
        if predicate(f(x)):
            return x
        s *= 2.0
    raise RootBracketError(what)


def find_sign_change(f: Callable[[float], float], lo: float, hi: float,
                     prefer: float, samples: int = 9,
                     what: str = "sign change scan",
                     index: int | None = None) -> tuple[float, float, float, float]:
    """Locate a sign-change subinterval of f on [lo, hi].

    Endpoints are tried first; on failure the interval is sampled and, if
    still single-signed, geometrically widened around `prefer` (up to
    MAX_DOUBLINGS).  Among several sign changes the one closest to
    `prefer` wins.
    """
    span = hi - lo
    for attempt in range(MAX_DOUBLINGS + 1):
        flo, fhi = f(lo), f(hi)
        if (flo > 0) != (fhi > 0):
            if attempt == 0:
                return lo, hi, flo, fhi
        xs = [lo + span * i / (samples - 1) for i in range(samples)]
        fs = [flo] + [f(x) for x in xs[1:-1]] + [fhi]
        best = None
        for i in range(samples - 1):
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


def comb_roots(fval: Callable[[float], tuple[float, float, float]],
               n_max: int,
               crit_window: Callable[[int], tuple[float, float]],
               lambda0_seed: float,
               what: str = "comb") -> CombRoots:
    """Compute edges/criticals of a comb discriminant.

    fval(lam) returns (f, f', f'').  Edges with index n satisfy
    f = (-1)^n; the critical point of gap n is the unique zero of f'
    in [minus_n, plus_n].  crit_window(n) seeds the search for that zero
    (an interval straddling the n-th gap, clear of adjacent criticals).
    """
    fc = lambda x: fval(x)[0]
    f1 = lambda x: fval(x)[1]

    def fdf_crit(x: float) -> tuple[float, float]:
        _, d1, d2 = fval(x)
        return d1, d2

    # critical points for gaps 1 .. n_max+1 (one extra as a right anchor)
    crit: list[float] = []
    for n in range(1, n_max + 2):
        lo, hi = crit_window(n)
        prefer = 0.5 * (lo + hi)
        blo, bhi, flo, fhi = find_sign_change(
            f1, lo, hi, prefer, what=f"{what}: critical point", index=n)
        crit.append(solve_bracketed(fdf_crit, blo, bhi, flo, fhi))

    # lowest edge: f - 1 = 0 on (-inf, crit[0])
    def fdf_bottom(x: float) -> tuple[float, float]:
        v, d1, _ = fval(x)
        return v - 1.0, d1

    left = expand_left(lambda x: fc(x) - 1.0,
                       min(lambda0_seed, crit[0]) - 0.25, 0.5,
                       lambda v: v > 0.0, what=f"{what}: lowest edge")
    lam0 = solve_bracketed(fdf_bottom, left, crit[0])

    minus: list[float] = []
    plus: list[float] = []
    degenerate: list[bool] = []
    heights: list[float] = []
    anomalies: list[str] = []
    for n in range(1, n_max + 1):
        t = -1.0 if n % 2 else 1.0
        cn = crit[n - 1]
        d = t * fc(cn) - 1.0
        if d < -1e-9:
            anomalies.append(
                f"(-1)^{n} f at critical point {n} is {1.0 + d:.3e} < 1")
        heights.append(math.acosh(max(1.0 + d, 1.0)))
        if d <= DEGENERACY_TOL:
            minus.append(cn)
            plus.append(cn)
            degenerate.append(True)
            continue

        def fdf_edge(x: float, t: float = t) -> tuple[float, float]:
            v, d1, _ = fval(x)
            return t * v - 1.0, t * d1

        anchor_l = lam0 if n == 1 else crit[n - 2]
        lo_edge = solve_bracketed(fdf_edge, anchor_l, cn)
        hi_edge = solve_bracketed(fdf_edge, cn, crit[n])
        if hi_edge - lo_edge < GAP_WIDTH_TOL * max(1.0, abs(lo_edge)):
            minus.append(cn)
            plus.append(cn)
            degenerate.append(True)
            continue
        if not (lo_edge - 1e-9 <= cn <= hi_edge + 1e-9):
            anomalies.append(f"critical point {n} escaped its closed gap")
        minus.append(lo_edge)
        plus.append(hi_edge)
        degenerate.append(False)

    return CombRoots(lam0, tuple(minus), tuple(plus), tuple(crit[:n_max]),
                     tuple(degenerate), tuple(heights), tuple(anomalies))


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

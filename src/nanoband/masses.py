"""Effective masses at gap edges and the identities they satisfy.

The mass at an open-gap edge is read off the exact derivative of the
modified discriminant,

    mu_n^{+-} = -(-1)^n xi'(edge) = -(-1)^n F'(edge) / c,

with mu = 0 at degenerate gaps by convention.  xi' at the edges is the
value the edge solves of band_structure evaluated there
(BandStructure.slopes), so a mass table costs no jet call; the sign
flip is exact, so the masses are those of F' evaluated at the edges
anew, bit for bit.  The verification
operations check, numerically and with explicit tail handling:

  * the trace identity  mu_0 + sum_n (mu_n^+ + mu_n^-) = 2;
  * the partial-fraction expansion of k'(lambda)^2 over all edges;
  * the per-edge series  mu = 2 sum 1/(opposite-parity edges - edge);
  * the large-n asymptotics of mu against the zero-potential values
    (bare_mass, which takes one gap index or an int array of them).

Series are summed with the paired regrouping (pair the two edges of each
gap first); raw term-by-term summation of the partial-fraction series is
not absolutely convergent and is deliberately not implemented.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import spectrum as _spec
from ._rootfind import _parity
from .potential import PotentialSpec
from .spectrum import (BandStructure, MagneticConfig, bare_edge,
                       bare_edge_z, d2F0, _sin2z_over_z)


def bare_mass(c: float, n: int | np.ndarray, sign: int
              ) -> float | np.ndarray:
    """Zero-potential effective mass at edge (n, sign), c in (0, 1].

    mu_n = (9 (-1)^n / 8c) * sin(2 z_n) / z_n at the bare edge z_n;
    degenerate gaps give exactly 0.  n = 0 admits only sign +1 and is
    positive (a sinc limit handles the c -> 1 edge where the phase -> 0).
    n is an int or an array of gap indices n >= 1; an int gives a float,
    an array a float64 array, with libm's sin taken one z at a time as
    in monodromy._factor_batch.
    """
    z = bare_edge_z(c, n, sign)
    scale = 9.0 * _parity(n) / (8.0 * c)
    if isinstance(n, np.ndarray):
        sin = np.fromiter(map(math.sin, (2.0 * z).tolist()), float, z.size)
        return scale * sin / z
    if n == 0:
        return scale * _sin2z_over_z(z * z)
    return scale * math.sin(2.0 * z) / z


@dataclass(frozen=True)
class MassTable:
    """Effective masses mu_n^+- for gaps 1..n_max plus mu_0 at the bottom,
    of the structure of potential q in sector cfg.

    The table holds the masses alone; the zero-potential values at the
    same c are bare_mass(c, n, sign).
    """

    q: PotentialSpec
    cfg: MagneticConfig
    mu0: float
    plus: tuple[float, ...]
    minus: tuple[float, ...]

    @property
    def n_max(self) -> int:
        return len(self.plus)

    def entries(self) -> tuple[tuple[int, float, float], ...]:
        return tuple((n, self.plus[n - 1], self.minus[n - 1])
                     for n in range(1, self.n_max + 1))

    def pair_sum(self, n: int) -> float:
        return self.plus[n - 1] + self.minus[n - 1]


def effective_masses(bs: BandStructure) -> MassTable:
    """The masses of bs, read without a jet call from xi' at its edges
    as the edge solves of band_structure evaluated it (bs.slopes, the
    exact discriminant derivative); zeros at degenerate gaps."""
    g = np.flatnonzero(~np.array(bs.degenerate))  # open gaps, as n - 1
    mu = np.zeros((bs.n_max, 2))  # columns minus, plus
    mu[g] = -_parity(g + 1)[:, None] * np.reshape(bs.slopes[1:], (-1, 2))[g]
    return MassTable(q=bs.q, cfg=bs.cfg, mu0=-bs.slopes[0],
                     plus=tuple(mu[:, 1].tolist()),
                     minus=tuple(mu[:, 0].tolist()))


def _check_table(bs: BandStructure, mt: MassTable) -> None:
    """ValueError unless mt is the mass table of bs (the same depth and a
    structure of the same potential and sector): the guard of every
    reader of (bs, mt)."""
    if mt.n_max != bs.n_max or not _spec._is_structure_of(bs, mt.q, mt.cfg):
        raise ValueError("mt must be the mass table of bs (the same "
                         f"potential and sector, {bs.n_max} gaps)")


# ----------------------------------------------------------------------
# tail extrapolation
# ----------------------------------------------------------------------

def _fit_line(xs, ys) -> tuple[float, float]:
    """Least-squares (intercept, slope) of ys against xs."""
    m = len(xs)
    mx = math.fsum(xs) / m
    my = math.fsum(ys) / m
    sxx = math.fsum((x - mx) ** 2 for x in xs)
    if sxx == 0.0:
        return my, 0.0
    slope = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
    return my - slope * mx, slope


def fit_tail(ns, sums) -> float:
    """Extrapolate partial sums S(n) -> S_inf by a least-squares fit of
    S = S_inf + C/n over the last decade of indices.  Deterministic."""
    ns = list(ns)
    sums = list(sums)
    n_hi = ns[-1]
    cutoff = max(ns[0], n_hi / 10.0)
    xs = [1.0 / n for n, s in zip(ns, sums) if n >= cutoff]
    ys = [s for n, s in zip(ns, sums) if n >= cutoff]
    if len(xs) < 2:
        return ys[-1]
    return _fit_line(xs, ys)[0]


def _partial_sums(first: float, terms: np.ndarray,
                  scale: float = 1.0) -> list[float]:
    """scale * (first + terms[0] + ... + terms[m - 1]) for m = 1 ..
    terms.size, accumulated left to right as a loop would."""
    return (scale * np.cumsum(np.concatenate(([first], terms)))[1:]).tolist()


# ----------------------------------------------------------------------
# identity checks
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TraceReport:
    n_max: int
    partial_sum: float
    extrapolated: float
    residual: float


def verify_trace_identity(mt: MassTable, n_max: int | None = None) -> TraceReport:
    """Partial sums of mu_0 + sum (mu_n^+ + mu_n^-) with 1/n tail
    extrapolation; the residual is |extrapolated - 2|.  n_max lies in
    1..mt.n_max (ValueError otherwise); None takes the whole table."""
    if n_max is None:
        n_max = mt.n_max
    if not 1 <= n_max <= mt.n_max:
        raise ValueError(f"n_max={n_max} outside 1..{mt.n_max}")
    sums = _partial_sums(mt.mu0, np.add(mt.plus[:n_max], mt.minus[:n_max]))
    extrap = fit_tail(range(1, n_max + 1), sums)
    return TraceReport(n_max=n_max, partial_sum=sums[-1],
                       extrapolated=extrap, residual=abs(extrap - 2.0))


@dataclass(frozen=True)
class PartialFractionCheck:
    lam: float
    direct: float
    series: float
    residual_rel: float


def verify_partial_fraction(mt: MassTable, bs: BandStructure, test_lambdas
                            ) -> tuple[PartialFractionCheck, ...]:
    """Compare k'(lambda)^2 = xi'^2 / (1 - xi^2) against the paired
    partial-fraction series over the edges of bs, with tail
    extrapolation; xi is that of the potential and sector of bs, and the
    series runs over its n_max gaps.

    Test points must keep distance >= 0.1 from every computed edge, and
    mt is the mass table of bs; ValueError otherwise.
    """
    _check_table(bs, mt)
    edges = (bs.lambda0,) + bs.minus + bs.plus
    sp, sm, lp, lm = map(np.array, (mt.plus, mt.minus, bs.plus, bs.minus))
    out = []
    for lam in test_lambdas:
        dist = min(abs(lam - e) for e in edges)
        if dist < 0.1:
            raise ValueError(f"test lambda {lam} is {dist:.3g} from an edge "
                             "(need >= 0.1)")
        v, d1 = _spec._xi_eff(bs.q, bs.cfg, lam, 1)
        direct = d1 * d1 / (1.0 - v * v)
        rp, rm = 1.0 / (lam - lp), 1.0 / (lam - lm)
        terms = 0.5 * (sp + sm) * (rp + rm) + 0.5 * (sp - sm) * (rp - rm)
        sums = _partial_sums(mt.mu0 / (lam - bs.lambda0), terms, 0.5)
        series = fit_tail(range(1, bs.n_max + 1), sums)
        out.append(PartialFractionCheck(
            lam=lam, direct=direct, series=series,
            residual_rel=abs(series - direct) / abs(direct)))
    return tuple(out)


@dataclass(frozen=True)
class MassSeriesCheck:
    n: int
    sign: int
    mass: float
    series: float
    residual: float
    m_terms: int


def verify_mass_series(mt: MassTable, bs: BandStructure, n: int, sign: int,
                       m_max: int | None = None) -> MassSeriesCheck:
    """Check mu at edge (n, sign) against its opposite-parity edge series.

    Even-index edges (n even, including n=0 with sign +1) sum
    2/(odd edges - edge); odd-index edges sum over the even edges, where
    the bottom edge enters once and every degenerate gap contributes its
    coinciding pair twice.  Partial sums are tail-extrapolated in 1/m;
    m_max (>= 1, or None for all) caps their number.  n lies in
    0..bs.n_max, and mt is the mass table of bs (the same potential,
    sector and depth); ValueError otherwise.
    """
    _check_table(bs, mt)
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    if not 0 <= n <= bs.n_max:
        raise ValueError(f"n={n} outside 0..{bs.n_max}")
    if m_max is not None and m_max < 1:
        raise ValueError(f"m_max={m_max} must be >= 1 or None")
    if n == 0:
        if sign != +1:
            raise ValueError("edge (0,-) does not exist")
        target = bs.lambda0
        mass = mt.mu0
    else:
        if bs.degenerate[n - 1]:
            raise ValueError(f"gap {n} is degenerate; mass series needs an "
                             "open edge")
        target = bs.plus[n - 1] if sign > 0 else bs.minus[n - 1]
        mass = (mt.plus if sign > 0 else mt.minus)[n - 1]

    # the gaps 2m - 1 (n even) or 2m (n odd) for m = 1 .. m_stop
    odd = n % 2
    limit = (bs.n_max + 1 - odd) // 2
    m_stop = limit if m_max is None else min(m_max, limit)
    gaps = slice(odd, 2 * m_stop, 2)
    terms = (1.0 / (np.array(bs.minus[gaps]) - target)
             + 1.0 / (np.array(bs.plus[gaps]) - target))
    first = 1.0 / (bs.lambda0 - target) if odd else 0.0
    sums = _partial_sums(first, terms, 2.0)
    series = fit_tail(range(1, m_stop + 1), sums)
    return MassSeriesCheck(n=n, sign=sign, mass=mass, series=series,
                           residual=abs(mass - series), m_terms=m_stop)


@dataclass(frozen=True)
class MassAsymptoticsReport:
    """Residuals r_n = mu_n - bare - curvature correction, with n^3 r_n.

    bounded_ratio = max|n^3 r| / min|n^3 r| over the nonzero entries; a
    crude boundedness proxy.  For c = 1 the even-index correction is only
    O(1/n), so only boundedness (not decay) is meaningful there; the
    `weak_even_correction` flag records that caveat.
    """

    ns: tuple[int, ...]
    eps_plus: tuple[float, ...]
    eps_minus: tuple[float, ...]
    r_plus: tuple[float, ...]
    r_minus: tuple[float, ...]
    n3r_plus: tuple[float, ...]
    n3r_minus: tuple[float, ...]
    bounded_ratio: float
    weak_even_correction: bool


def verify_mass_asymptotics(mt: MassTable, bs: BandStructure,
                            n_range) -> MassAsymptoticsReport:
    """Residuals of mu_n^+- against the zero-potential value plus the
    curvature correction (d2F0 at the bare edge) * eps / c, where
    eps = edge - bare edge - q0.  mt must be the mass table of bs (the
    same potential, sector and depth); ValueError otherwise."""
    _check_table(bs, mt)
    c = bs.cfg.c_abs
    ns = np.array(list(n_range), dtype=int)
    outside = ns[(ns < 1) | (ns > bs.n_max)]
    if outside.size:
        raise ValueError(f"n={outside[0]} outside the computed range")
    sgn_corr = -_parity(ns)  # (-1)^(n+1)
    eps, r = [], []
    for sign, edges, mus in ((+1, bs.plus, mt.plus), (-1, bs.minus, mt.minus)):
        bare_l = bare_edge(c, ns, sign)
        eps.append(np.array(edges)[ns - 1] - bare_l - bs.q.q0)
        pred = bare_mass(c, ns, sign) + sgn_corr * d2F0(bare_l) * eps[-1] / c
        r.append(np.array(mus)[ns - 1] - pred)
    ep, em, rp, rm = (tuple(v.tolist()) for v in eps + r)
    n3p, n3m = (tuple((ns ** 3 * v).tolist()) for v in r)
    nonzero = [abs(x) for x in n3p + n3m if x != 0.0]
    ratio = (max(nonzero) / min(nonzero)) if nonzero else 1.0
    return MassAsymptoticsReport(
        ns=tuple(ns.tolist()), eps_plus=ep, eps_minus=em, r_plus=rp,
        r_minus=rm, n3r_plus=n3p, n3r_minus=n3m,
        bounded_ratio=ratio, weak_even_correction=abs(c - 1.0) < 1e-12)

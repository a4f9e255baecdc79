"""Effective masses at gap edges and the identities they satisfy.

The mass at an open-gap edge is read off the exact derivative of the
modified discriminant,

    mu_n^{+-} = -(-1)^n xi'(edge) = -(-1)^n F'(edge) / c,

with mu = 0 at degenerate gaps by convention.  The verification
operations check, numerically and with explicit tail handling:

  * the trace identity  mu_0 + sum_n (mu_n^+ + mu_n^-) = 2;
  * the partial-fraction expansion of k'(lambda)^2 over all edges;
  * the per-edge series  mu = 2 sum 1/(opposite-parity edges - edge);
  * the large-n asymptotics of mu against the zero-potential values.

Series are summed with the paired regrouping (pair the two edges of each
gap first); raw term-by-term summation of the partial-fraction series is
not absolutely convergent and is deliberately not implemented.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import spectrum as _spec
from ._rootfind import _LANES, _LOCKSTEP_GAPS
from .potential import PotentialSpec
from .spectrum import (BandStructure, MagneticConfig, bare_edge, bare_edge_z,
                       d2F0, gap_phase_even, _sin2z_over_z)


def bare_mass(c: float, n: int, sign: int) -> float:
    """Zero-potential effective mass at edge (n, sign), c in (0, 1].

    mu_n = (9 (-1)^n / 8c) * sin(2 z_n) / z_n at the bare edge z_n;
    degenerate gaps give exactly 0.  n = 0 admits only sign +1 and is
    positive (a sinc limit handles the c -> 1 edge where the phase -> 0).
    """
    if n == 0:
        if sign < 0:
            raise ValueError("the lowest edge only exists with sign +1")
        ph = gap_phase_even(c)
        return (9.0 / (8.0 * c)) * _sin2z_over_z(ph * ph)
    z = bare_edge_z(c, n, sign)
    return (9.0 * (1.0 if n % 2 == 0 else -1.0) / (8.0 * c)) \
        * math.sin(2.0 * z) / z


@dataclass(frozen=True)
class MassTable:
    """Effective masses mu_n^+- for gaps 1..n_max plus mu_0 at the bottom.

    bare_* hold the zero-potential values at the same c for comparison.
    """

    cfg: MagneticConfig
    mu0: float
    plus: tuple[float, ...]
    minus: tuple[float, ...]
    bare_mu0: float
    bare_plus: tuple[float, ...]
    bare_minus: tuple[float, ...]

    @property
    def n_max(self) -> int:
        return len(self.plus)

    def entries(self) -> tuple[tuple[int, float, float], ...]:
        return tuple((n, self.plus[n - 1], self.minus[n - 1])
                     for n in range(1, self.n_max + 1))

    def pair_sum(self, n: int) -> float:
        return self.plus[n - 1] + self.minus[n - 1]


def effective_masses(bs: BandStructure) -> MassTable:
    """Masses from the exact discriminant derivative at every open-gap
    edge of bs; zeros at degenerate gaps."""
    q, cfg = bs.q, bs.cfg
    c = cfg.c_abs
    open_gaps = bs.open_gaps()
    lams = [bs.lambda0]
    for n in open_gaps:
        lams += (bs.plus[n - 1], bs.minus[n - 1])
    if bs.n_max >= _LOCKSTEP_GAPS:
        d1 = []
        for i in range(0, len(lams), _LANES):
            d1 += _spec._F_batch(q, np.array(lams[i:i + _LANES]))[1].tolist()
    else:
        d1 = [_spec.F_with_derivs(q, lam)[1] for lam in lams]
    mu0 = -d1[0] / c
    plus = [0.0] * bs.n_max
    minus = [0.0] * bs.n_max
    for i, n in enumerate(open_gaps):
        t = -1.0 if n % 2 else 1.0
        plus[n - 1] = -t * d1[2 * i + 1] / c
        minus[n - 1] = -t * d1[2 * i + 2] / c
    bare_p = tuple(0.0 if bs.degenerate[n - 1] else bare_mass(c, n, +1)
                   for n in range(1, bs.n_max + 1))
    bare_m = tuple(0.0 if bs.degenerate[n - 1] else bare_mass(c, n, -1)
                   for n in range(1, bs.n_max + 1))
    return MassTable(cfg=cfg, mu0=mu0, plus=tuple(plus), minus=tuple(minus),
                     bare_mu0=bare_mass(c, 0, +1),
                     bare_plus=bare_p, bare_minus=bare_m)


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
    extrapolation; the residual is |extrapolated - 2|."""
    if n_max is None:
        n_max = mt.n_max
    if n_max > mt.n_max:
        raise ValueError(f"mass table only reaches n={mt.n_max}")
    ns = []
    sums = []
    acc = mt.mu0
    for n in range(1, n_max + 1):
        acc += mt.plus[n - 1] + mt.minus[n - 1]
        ns.append(n)
        sums.append(acc)
    extrap = fit_tail(ns, sums)
    return TraceReport(n_max=n_max, partial_sum=sums[-1],
                       extrapolated=extrap, residual=abs(extrap - 2.0))


@dataclass(frozen=True)
class PartialFractionCheck:
    lam: float
    direct: float
    series: float
    residual_rel: float


def verify_partial_fraction(q: PotentialSpec, cfg: MagneticConfig,
                            test_lambdas, n_max: int,
                            bs: BandStructure | None = None,
                            mt: MassTable | None = None
                            ) -> tuple[PartialFractionCheck, ...]:
    """Compare k'(lambda)^2 = xi'^2 / (1 - xi^2) against the paired
    partial-fraction series over gap edges, with tail extrapolation.

    Test points must keep distance >= 0.1 from every computed edge.
    """
    if bs is None:
        bs = _spec.band_structure(q, cfg, n_max, include_flat=False)
    if mt is None:
        mt = effective_masses(bs)
    edges = (bs.lambda0,) + bs.minus + bs.plus
    out = []
    for lam in test_lambdas:
        dist = min(abs(lam - e) for e in edges)
        if dist < 0.1:
            raise ValueError(f"test lambda {lam} is {dist:.3g} from an edge "
                             "(need >= 0.1)")
        v, d1, _ = _spec._xi_eff(q, cfg, lam)
        direct = d1 * d1 / (1.0 - v * v)
        ns = []
        sums = []
        acc = mt.mu0 / (lam - bs.lambda0)
        for n in range(1, bs.n_max + 1):
            sp = mt.plus[n - 1]
            sm = mt.minus[n - 1]
            lp = bs.plus[n - 1]
            lm = bs.minus[n - 1]
            a_n = 0.5 * (sp + sm) * (1.0 / (lam - lp) + 1.0 / (lam - lm))
            b_n = 0.5 * (sp - sm) * (1.0 / (lam - lp) - 1.0 / (lam - lm))
            acc += a_n + b_n
            ns.append(n)
            sums.append(0.5 * acc)
        series = fit_tail(ns, sums)
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
    coinciding pair twice.  Partial sums are tail-extrapolated in 1/m.
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
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

    ns = []
    sums = []
    if n % 2 == 0:
        limit = (bs.n_max + 1) // 2
        m_stop = min(m_max, limit) if m_max else limit
        acc = 0.0
        for m in range(1, m_stop + 1):
            idx = 2 * m - 2  # gap index 2m-1
            if 2 * m - 1 == n:
                raise ValueError("series index collides with target edge")
            acc += 1.0 / (bs.minus[idx] - target) + 1.0 / (bs.plus[idx] - target)
            ns.append(m)
            sums.append(2.0 * acc)
    else:
        limit = bs.n_max // 2
        m_stop = min(m_max, limit) if m_max else limit
        acc = 1.0 / (bs.lambda0 - target)
        for m in range(1, m_stop + 1):
            idx = 2 * m - 1  # gap index 2m
            acc += 1.0 / (bs.minus[idx] - target) + 1.0 / (bs.plus[idx] - target)
            ns.append(m)
            sums.append(2.0 * acc)
    series = fit_tail(ns, sums)
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
    eps = edge - bare edge - q0."""
    c = bs.cfg.c_abs
    q0 = bs.q.q0
    ns, ep, em, rp, rm = [], [], [], [], []
    for n in n_range:
        if n < 1 or n > bs.n_max:
            raise ValueError(f"n={n} outside the computed range")
        sgn_corr = 1.0 if n % 2 else -1.0  # (-1)^(n+1)
        row = []
        for sign, edges, mus, out_e, out_r in (
                (+1, bs.plus, mt.plus, ep, rp),
                (-1, bs.minus, mt.minus, em, rm)):
            bare_l = bare_edge(c, n, sign)
            eps = edges[n - 1] - bare_l - q0
            pred = bare_mass(c, n, sign) + sgn_corr * d2F0(bare_l) * eps / c
            out_e.append(eps)
            out_r.append(mus[n - 1] - pred)
        ns.append(n)
    n3p = tuple(n ** 3 * r for n, r in zip(ns, rp))
    n3m = tuple(n ** 3 * r for n, r in zip(ns, rm))
    nonzero = [abs(x) for x in n3p + n3m if x != 0.0]
    ratio = (max(nonzero) / min(nonzero)) if nonzero else 1.0
    return MassAsymptoticsReport(
        ns=tuple(ns), eps_plus=tuple(ep), eps_minus=tuple(em),
        r_plus=tuple(rp), r_minus=tuple(rm), n3r_plus=n3p, n3r_minus=n3m,
        bounded_ratio=ratio, weak_even_correction=abs(c - 1.0) < 1e-12)

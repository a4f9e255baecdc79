"""Nanotube band structure from the modified discriminant.

For sector phase a_j the absolutely continuous spectrum of the quantum
graph operator is {lambda : xi(lambda) in [-1, 1]} with

    xi = (F + s^2) / c,    F = (9 Delta^2 - DeltaMinus^2 - 5) / 4,

c = cos a_j, s = sin a_j.  Band edges are the zeros of xi^2 - 1 labeled
so that xi(edge_n^+-) = (-1)^n; the critical point of gap n is the zero
of F' there (F' and xi' share zeros, and F' is c-independent).

When c = 0 the ac spectrum collapses: the spectrum is pure point, the
Dirichlet set plus the locus {F = -1} (see flat_spectrum).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import monodromy
from ._rootfind import (CombRoots, comb_roots, expand_left, find_sign_change,
                        solve_bracketed)
from .potential import PotentialSpec

#: Below this |cos a_j| the operator is in the pure-point regime and xi
#: is meaningless (it blows up like 1/c); use flat_spectrum instead.
PURE_POINT_CUTOFF = 1e-8


class PurePointRegimeError(ValueError):
    """Raised when a band-structure quantity is requested at |c| < cutoff."""

    def __init__(self, c: float):
        super().__init__(
            f"|cos a_j| = {abs(c):.3e} < {PURE_POINT_CUTOFF}: the spectrum "
            "is pure point; use flat_spectrum instead of band quantities")


@dataclass(frozen=True)
class MagneticConfig:
    """Magnetic sector data: base phase a, circumference N, sector j.

    The sector operator is analyzed through the phase a_j = a + pi j / N;
    c_j = cos a_j and s_j = sin a_j drive the modified discriminant.  When
    constructed from a field strength B, a = (3 B / 16) cot(pi / 2N).
    """

    a: float
    N: int = 1
    j: int = 0
    B: float | None = None

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("N must be a positive integer")

    @classmethod
    def from_field(cls, B: float, N: int, j: int = 0) -> "MagneticConfig":
        a = (3.0 * B / 16.0) / math.tan(math.pi / (2 * N))
        return cls(a=a, N=N, j=j, B=B)

    @property
    def a_j(self) -> float:
        return self.a + math.pi * self.j / self.N

    @property
    def c_j(self) -> float:
        return math.cos(self.a_j)

    @property
    def s_j(self) -> float:
        return math.sin(self.a_j)

    @property
    def c_abs(self) -> float:
        """|c_j|; the band analysis is run at this value.  For c_j < 0 the
        computed structure is that of the reflected phase pi - a_j, whose
        discriminant is -xi (same spectrum, parity labels follow |c|)."""
        return abs(self.c_j)


# ----------------------------------------------------------------------
# zero-potential (bare) closed forms
# ----------------------------------------------------------------------

def gap_phase_even(c: float) -> float:
    """Phase in [0, pi/2] placing the even-gap edges at z = pi n +- phase;
    cos(2 phase) = (8/9)(c^2 + c - 7/8)."""
    x = (8.0 / 9.0) * (c * c + c - 7.0 / 8.0)
    return 0.5 * math.acos(max(-1.0, min(1.0, x)))


def gap_phase_odd(c: float) -> float:
    """Phase in [0, pi/2] placing the odd-gap edges at z = pi(n+1/2) +- phase;
    -cos(2 phase) = (8/9)(c^2 - c - 7/8)."""
    x = -(8.0 / 9.0) * (c * c - c - 7.0 / 8.0)
    return 0.5 * math.acos(max(-1.0, min(1.0, x)))


def bare_edge_z(c: float, n: int, sign: int) -> float:
    """sqrt of the zero-potential edge lambda_n^{0, sign}, c in (0, 1]."""
    if n == 0:
        if sign < 0:
            raise ValueError("the lowest edge only exists with sign +1")
        return gap_phase_even(c)
    half = 0.5 * math.pi * n
    phase = gap_phase_even(c) if n % 2 == 0 else gap_phase_odd(c)
    return half + (phase if sign > 0 else -phase)


def bare_edge(c: float, n: int, sign: int) -> float:
    """Zero-potential edge lambda_n^{0, sign}."""
    z = bare_edge_z(c, n, sign)
    return z * z


def bare_cosh_heights(c: float) -> tuple[float, float]:
    """(cosh h_even, cosh h_odd) for the zero potential:
    (1 + s^2)/c and (1 + 4c^2)/(4c).  Even gaps all share the first
    height, odd gaps the second."""
    s2 = 1.0 - c * c
    return (1.0 + s2) / c, (1.0 + 4.0 * c * c) / (4.0 * c)


# Zero-potential reduced discriminant F0 = (9 cos 2 sqrt(lambda) - 1)/8:
# F0' = -(9/8) S and F0'' = -(9/8) dS/dmu for the width-2 transfer factor
# S = sin(2 sqrt(mu)) / sqrt(mu) at mu = lambda, which is entire.

def _sin2z_over_z(lam: float) -> float:
    """sin(2 sqrt(lam)) / sqrt(lam), entire (hyperbolic for lam < 0)."""
    return monodromy._factor(2.0, lam)[0][1]


def d2F0(lam: float) -> float:
    """Second lambda-derivative of F0."""
    return -(9.0 / 8.0) * monodromy._factor(2.0, lam)[1][1]


# ----------------------------------------------------------------------
# the modified discriminant
# ----------------------------------------------------------------------

def F_with_derivs(q: PotentialSpec, lam: float) -> tuple[float, float, float]:
    """(F, F', F'') at lam, from the exact monodromy derivatives."""
    return _F_of(*monodromy.transfer(q, lam))


def _F_batch(q: PotentialSpec, lams: np.ndarray):
    """F_with_derivs at every entry of a float64 array, bit for bit."""
    return _F_of(*monodromy._transfer_batch(q, lams))


def _F_of(p, p1, p2):
    """(F, F', F'') from a monodromy jet, entries floats or arrays."""
    d = 0.5 * (p[0] + p[3])
    dm = 0.5 * (p[3] - p[0])
    d1 = 0.5 * (p1[0] + p1[3])
    dm1 = 0.5 * (p1[3] - p1[0])
    d2 = 0.5 * (p2[0] + p2[3])
    dm2 = 0.5 * (p2[3] - p2[0])
    f = (9.0 * d * d - dm * dm - 5.0) / 4.0
    f1 = (9.0 * d * d1 - dm * dm1) / 2.0
    f2 = (9.0 * (d1 * d1 + d * d2) - (dm1 * dm1 + dm * dm2)) / 2.0
    return f, f1, f2


def _xi_eff(q: PotentialSpec, cfg: MagneticConfig, lam: float
            ) -> tuple[float, float, float]:
    """(xi, xi', xi'') at |c_j|, the labeling convention used internally."""
    c = cfg.c_abs
    if c < PURE_POINT_CUTOFF:
        raise PurePointRegimeError(cfg.c_j)
    return _xi_of(c, cfg.s_j ** 2, *F_with_derivs(q, lam))


def _xi_of(c: float, s2: float, f, f1, f2):
    """(xi, xi', xi'') = ((F + s^2)/c, F'/c, F''/c); floats or arrays."""
    return (f + s2) / c, f1 / c, f2 / c


def xi(q: PotentialSpec, cfg: MagneticConfig, lam: float) -> tuple[float, float]:
    """Modified discriminant xi_j(lam) and its lambda-derivative (signed,
    i.e. with the true c_j).  Raises PurePointRegimeError for |c_j| < cutoff."""
    v, d1, _ = _xi_eff(q, cfg, lam)
    sign = math.copysign(1.0, cfg.c_j)
    return sign * v, sign * d1


# ----------------------------------------------------------------------
# band structure
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class BandStructure(CombRoots):
    """Labeled nanotube band structure for one (q, magnetic sector).

    The comb data (edges, criticals, heights, degeneracy flags) and its
    band/gap bookkeeping come from CombRoots.  flat_bands holds the
    Dirichlet set (eigenvalues of infinite multiplicity, present for
    every c).  xi_sign records the sign of c_j: for negative c_j the
    parity labeling follows |c_j|.
    """

    q: PotentialSpec
    cfg: MagneticConfig
    flat_bands: tuple[float, ...]
    xi_sign: float


def band_structure(q: PotentialSpec, cfg: MagneticConfig, n_max: int,
                   include_flat: bool = True) -> BandStructure:
    """All band edges, critical points and heights through gap n_max.

    Brackets are seeded by the zero-potential closed forms shifted by q0;
    a RootBracketError carries the offending index if expansion fails.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    c = cfg.c_abs
    if c < PURE_POINT_CUTOFF:
        raise PurePointRegimeError(cfg.c_j)
    q0 = q.q0

    def fval(lam: float) -> tuple[float, float, float]:
        return _xi_eff(q, cfg, lam)

    def window(n: int) -> tuple[float, float]:
        # straddle gap n: from the middle of band n to the middle of band n+1
        zl = 0.5 * (bare_edge_z(c, n - 1, +1) + bare_edge_z(c, n, -1))
        zr = 0.5 * (bare_edge_z(c, n, +1) + bare_edge_z(c, n + 1, -1))
        return zl * zl + q0, zr * zr + q0

    def fbatch(lams: np.ndarray):
        return _xi_of(c, cfg.s_j ** 2, *_F_batch(q, lams))

    roots = comb_roots(fval, n_max, window, bare_edge(c, 0, +1) + q0,
                       what="band structure", _fbatch=fbatch)
    flats = monodromy.dirichlet_spectrum(q, n_max) if include_flat else ()
    return BandStructure(q=q, cfg=cfg, flat_bands=flats,
                         xi_sign=math.copysign(1.0, cfg.c_j), **vars(roots))


# ----------------------------------------------------------------------
# flat (infinite-multiplicity) spectrum
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FlatSpectrum:
    """Eigenvalues of infinite multiplicity.

    dirichlet is always present; f_locus holds the roots of F = -1 that
    join in the pure-point regime c ~ 0 (empty otherwise).
    """

    dirichlet: tuple[float, ...]
    f_locus: tuple[float, ...]

    @property
    def all(self) -> tuple[float, ...]:
        return tuple(sorted(self.dirichlet + self.f_locus))


def flat_spectrum(q: PotentialSpec, cfg: MagneticConfig,
                  n_max: int) -> FlatSpectrum:
    """Flat bands up to index n_max.

    Dirichlet roots 1..n_max always; for |c_j| below the pure-point
    cutoff the roots of F + 1 with lambda below the last Dirichlet root
    are appended (two per period of the discriminant).
    """
    diri = monodromy.dirichlet_spectrum(q, n_max)
    if cfg.c_abs >= PURE_POINT_CUTOFF:
        return FlatSpectrum(dirichlet=diri, f_locus=())

    q0 = q.q0

    def f1_at(lam: float) -> float:
        return F_with_derivs(q, lam)[1]

    def fdf_crit(lam: float) -> tuple[float, float]:
        _, d1, d2 = F_with_derivs(q, lam)
        return d1, d2

    def g(lam: float) -> float:
        return F_with_derivs(q, lam)[0] + 1.0

    def fdf_root(lam: float) -> tuple[float, float]:
        v, d1, _ = F_with_derivs(q, lam)
        return v + 1.0, d1

    # critical points of F bracket the F = -1 roots (F alternates between
    # values >= 1 and <= -5/4 at consecutive criticals)
    crits = []
    for n in range(1, 2 * n_max + 2):
        zl = 0.25 * math.pi * (2 * n - 1)
        zr = 0.25 * math.pi * (2 * n + 1)
        lo, hi = zl * zl + q0, zr * zr + q0
        prefer = (0.5 * math.pi * n) ** 2 + q0
        blo, bhi, flo, fhi = find_sign_change(
            f1_at, lo, hi, prefer, what="flat locus critical", index=n)
        crits.append(solve_bracketed(fdf_crit, blo, bhi, flo, fhi))

    roots = []
    left = expand_left(g, crits[0] - 0.25, 0.5, lambda v: v > 0.0,
                       what="flat locus: leftmost root")
    anchors = [left] + crits
    ceiling = diri[-1]
    for lo, hi in zip(anchors, anchors[1:]):
        glo, ghi = g(lo), g(hi)
        if (glo > 0) == (ghi > 0):
            continue
        r = solve_bracketed(fdf_root, lo, hi, glo, ghi)
        if r <= ceiling:
            roots.append(r)
    return FlatSpectrum(dirichlet=diri, f_locus=tuple(roots))

"""Nanotube band structure from the modified discriminant.

For sector phase a_j the absolutely continuous spectrum of the quantum
graph operator is {lambda : xi(lambda) in [-1, 1]} with

    xi = (F + s^2) / c,    F = (9 Delta^2 - DeltaMinus^2 - 5) / 4,

c = cos a_j, s = sin a_j.  Band edges are the zeros of xi^2 - 1 labeled
so that xi(edge_n^+-) = (-1)^n; the critical point of gap n is the zero
of F' there (F' and xi' share zeros, and F' is c-independent).

When c = 0 the ac spectrum collapses: the spectrum is pure point, the
Dirichlet set plus the locus {F = -1} (see flat_spectrum).

The zero-potential ("bare") closed forms bare_edge_z and bare_edge take
one gap index or an int array of them; band_structure places its
critical windows and edge starts with one array call of each sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import monodromy
from ._rootfind import (CombRoots, _roots_all, _slope, _solve_all,
                        comb_roots, expand_left)
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
    The phase and its cosine and sine are computed once per config.
    """

    a: float
    N: int = 1
    j: int = 0
    B: float | None = None

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("N must be a positive integer")
        if not math.isfinite(self.a):
            raise ValueError(f"magnetic phase a must be finite, got {self.a}")

    @classmethod
    def from_field(cls, B: float, N: int, j: int = 0) -> "MagneticConfig":
        # an N below 1 reaches __post_init__, which rejects it
        a = (3.0 * B / 16.0) / math.tan(math.pi / (2 * N)) if N >= 1 else 0.0
        return cls(a=a, N=N, j=j, B=B)

    @cached_property
    def a_j(self) -> float:
        return self.a + math.pi * self.j / self.N

    @cached_property
    def c_j(self) -> float:
        return math.cos(self.a_j)

    @cached_property
    def s_j(self) -> float:
        return math.sin(self.a_j)

    @cached_property
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


def bare_edge_z(c: float, n: int | np.ndarray, sign: int
                ) -> float | np.ndarray:
    """sqrt of the zero-potential edge lambda_n^{0, sign}, c in (0, 1]:
    pi n / 2 +- the gap phase of n's parity.  n is an int or an int
    array (the gap phases are computed once per call); an int gives a
    float, an array a float64 array."""
    if sign < 0 and np.any(n == 0):
        raise ValueError("the lowest edge only exists with sign +1")
    phase = np.where(n % 2, gap_phase_odd(c), gap_phase_even(c))
    z = 0.5 * math.pi * n + (phase if sign > 0 else -phase)
    return z if isinstance(n, np.ndarray) else float(z)


def bare_edge(c: float, n: int | np.ndarray, sign: int
              ) -> float | np.ndarray:
    """Zero-potential edge lambda_n^{0, sign}; n as for bare_edge_z."""
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
    return monodromy._factor(2.0, lam, 0)[1]


def d2F0(lam: float | np.ndarray) -> float | np.ndarray:
    """Second lambda-derivative of F0; floats or arrays as lam."""
    factor = (monodromy._factor_batch if isinstance(lam, np.ndarray)
              else monodromy._factor)
    return -(9.0 / 8.0) * factor(2.0, lam, 1)[3]


# ----------------------------------------------------------------------
# the modified discriminant
# ----------------------------------------------------------------------

def _F_jet(jet: tuple, order: int) -> tuple[float, ...]:
    """(F, F', F'') through `order` (0, 1 or 2) from a monodromy jet
    (P, P', ...) of that order or higher; floats or arrays as the jet."""
    p = jet[0]
    d = 0.5 * (p[0] + p[3])
    dm = 0.5 * (p[3] - p[0])
    f = (9.0 * d * d - dm * dm - 5.0) / 4.0
    if not order:
        return (f,)
    p1 = jet[1]
    d1 = 0.5 * (p1[0] + p1[3])
    dm1 = 0.5 * (p1[3] - p1[0])
    f1 = (9.0 * d * d1 - dm * dm1) / 2.0
    if order == 1:
        return f, f1
    p2 = jet[2]
    d2 = 0.5 * (p2[0] + p2[3])
    dm2 = 0.5 * (p2[3] - p2[0])
    f2 = (9.0 * (d1 * d1 + d * d2) - (dm1 * dm1 + dm * dm2)) / 2.0
    return f, f1, f2


def F_with_derivs(q: PotentialSpec, lam: float | np.ndarray,
                  order: int = 2) -> tuple[float, ...]:
    """(F, F', F'') at lam through `order` (0, 1 or 2), from the exact
    monodromy jet of that order; for a float64 array lam, arrays of the
    values at its entries."""
    return _F_jet(monodromy.transfer(q, lam, order), order)


def _xi_eff(q: PotentialSpec, cfg: MagneticConfig, lam: float | np.ndarray,
            order: int = 2, jet: tuple | None = None) -> tuple[float, ...]:
    """(xi, xi', xi'') = ((F + s^2)/c, F'/c, F''/c) at c = |c_j| through
    `order`, the labeling convention used internally; floats or arrays as
    lam.  A caller that already holds the monodromy jet at lam through
    `order` passes it as `jet`, and the jet is not evaluated again."""
    c = cfg.c_abs
    if c < PURE_POINT_CUTOFF:
        raise PurePointRegimeError(cfg.c_j)
    if jet is None:
        jet = monodromy.transfer(q, lam, order)
    f = _F_jet(jet, order)
    v = (f[0] + cfg.s_j ** 2) / c
    return ((v, f[1] / c, f[2] / c) if order == 2
            else (v, f[1] / c) if order else (v,))


def _xi_finite(q: PotentialSpec, cfg: MagneticConfig,
               lam: float | np.ndarray, order: int,
               jet: tuple | None = None) -> tuple[float, ...]:
    """_xi_eff for the readers of xi values (xi, k_eval, the asymptotics
    checks and the Floquet oracle; the structure solves tolerate inf and
    skip this): far below the potential the jet overflows to inf or nan,
    and then monodromy._JetOverflowError names the lowest lam where a
    value is not finite, on floats and arrays alike and without a numpy
    warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        vals = _xi_eff(q, cfg, lam, order, jet)
    bad = ~np.isfinite(np.vstack(vals)).all(axis=0)
    if bad.any():
        raise monodromy._JetOverflowError(
            float(np.atleast_1d(lam)[bad].min()))
    return vals


def xi(q: PotentialSpec, cfg: MagneticConfig, lam: float | np.ndarray
       ) -> tuple[float, float]:
    """Modified discriminant xi_j(lam) and its lambda-derivative (signed,
    i.e. with the true c_j); floats or arrays as lam.  Raises
    PurePointRegimeError for |c_j| < cutoff, and _JetOverflowError where
    lam lies too far below the potential for xi to be a float."""
    v, d1 = _xi_finite(q, cfg, lam, 1)
    sign = math.copysign(1.0, cfg.c_j)
    return sign * v, sign * d1


# ----------------------------------------------------------------------
# band structure
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class BandStructure(CombRoots):
    """Labeled nanotube band structure for one (q, magnetic sector).

    The comb data (edges, criticals, heights, degeneracy flags) and its
    band/gap bookkeeping come from CombRoots.  xi_sign records the sign
    of c_j: for negative c_j the parity labeling follows |c_j|.
    """

    q: PotentialSpec
    cfg: MagneticConfig
    xi_sign: float

    @cached_property
    def flat_bands(self) -> tuple[float, ...]:
        """The Dirichlet roots 1..n_max of q (eigenvalues of infinite
        multiplicity, present for every c), solved when first read; a
        RootBracketError of that solve is raised here."""
        return monodromy.dirichlet_spectrum(self.q, self.n_max)


def band_structure(q: PotentialSpec, cfg: MagneticConfig,
                   n_max: int) -> BandStructure:
    """All band edges, critical points and heights through gap n_max.

    Brackets are seeded by the zero-potential closed forms shifted by q0,
    and so are the starts of the edge solves; a RootBracketError carries
    the offending index if expansion fails.  The flat bands depend on q
    alone and are solved when BandStructure.flat_bands is first read.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    c = cfg.c_abs
    if c < PURE_POINT_CUTOFF:
        raise PurePointRegimeError(cfg.c_j)
    q0 = q.q0
    ns = np.arange(n_max + 2)
    zp = bare_edge_z(c, ns, +1)  # n = 0 .. n_max + 1
    zm = bare_edge_z(c, ns + 1, -1)  # n = 1 .. n_max + 2
    # the window of gap n runs from the middle of band n to that of band
    # n + 1; the edge solves start at the bare edges of their gap
    mid = 0.5 * (zp + zm)
    windows = mid * mid + q0
    edges = np.column_stack((zm[:n_max], zp[1:-1]))
    roots = comb_roots(lambda lam: _xi_eff(q, cfg, lam),
                       lambda lam: _xi_eff(q, cfg, lam, 1),
                       windows[:-1], windows[1:], float(zp[0] * zp[0] + q0),
                       edges * edges + q0, what="band structure",
                       pieces=len(q.pieces))
    return BandStructure(q=q, cfg=cfg, xi_sign=math.copysign(1.0, cfg.c_j),
                         **vars(roots))


def _is_structure_of(bs: BandStructure, q: PotentialSpec,
                     cfg: MagneticConfig) -> bool:
    """Whether bs is a structure of q in sector cfg: the same pieces and
    sector phase a_j, the inputs of xi (a label and B only name them)."""
    return bs.q.pieces == q.pieces and bs.cfg.a_j == cfg.a_j


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
    f = lambda lam: F_with_derivs(q, lam)
    fdf = lambda lam: F_with_derivs(q, lam, 1)

    # critical points of F bracket the F = -1 roots (F alternates between
    # values >= 1 and <= -5/4 at consecutive criticals); 2 n_max + 1 of
    # them, so the search is as deep as a structure of that many gaps
    count = 2 * n_max + 1
    ns = np.arange(1, count + 1)
    zl = 0.25 * math.pi * (2 * ns - 1)
    zr = 0.25 * math.pi * (2 * ns + 1)
    prefer = np.array([(0.5 * math.pi * n) ** 2 + q0
                       for n in range(1, count + 1)])
    xs, (fs, *_) = _roots_all(fdf, f, _slope, zl * zl + q0, zr * zr + q0,
                              prefer, "flat locus critical", ns, len(q.pieces))
    left, fleft = expand_left(lambda x: fdf(x)[0] + 1.0, float(xs[0]) - 0.25,
                              0.5, what="flat locus: leftmost root")
    xs = np.concatenate(([left], xs))
    g = np.concatenate(([fleft], fs + 1.0))

    # the root of F + 1 between anchors i and i + 1, where they bracket one
    lanes = np.flatnonzero((g[:-1] > 0) != (g[1:] > 0))
    roots, _ = _solve_all(fdf, lambda v, i: (v[0] + 1.0, v[1]), xs[lanes],
                          xs[lanes + 1], g[lanes], g[lanes + 1],
                          "flat locus root", lanes, pieces=len(q.pieces))
    ceiling = diri[-1]
    return FlatSpectrum(dirichlet=diri,
                        f_locus=tuple(r for r in roots.tolist()
                                      if r <= ceiling))

"""Independent dispersion relation from the Kirchhoff cell system.

One period cell of the graph carries three edges; writing the solution
on each edge as A*theta + B*phi and imposing the magnetic Kirchhoff
vertex conditions together with the Floquet relation (next cell = z *
this cell) closes a 6x6 linear system M(lambda, z) x = 0 whose entries
are affine in the multiplier z.  Nontrivial solutions exist exactly on
det M = 0, a quadratic in z; unit-circle roots mark the ac spectrum.

This route never touches the modified discriminant: cross_validate
compares cos(p + pi j / N) computed from the roots against xi from the
spectrum module, which is the whole point of the module.  The matrices
are built from the monodromy entries theta, phi and their x-derivatives
alone, never from F or xi, so a fault in the xi formula cannot cancel
out of the comparison.

A grid of lambda is evaluated in chunks of at most _CHUNK points,
which bounds the memory of large grids: the grids are sized by the
caller, and each point holds two 6x6 matrices.  Per chunk, one array
transfer call gives the jet (the same numbers as one lambda at a time,
see monodromy) that both sides read: the stacked (n, 6, 6) cell
matrices take theta, phi and their derivatives from it, and xi takes
F from it through the spectrum module, the same numbers as xi's own
call.  det_coeffs takes all the determinants in one stacked LAPACK
call.  Points in the flat-band vicinity or with a vanishing z^2
coefficient are masked and reported as skipped.  The quadratic roots
and the comparisons stay Python complex arithmetic per point.  One
lambda (build_cell_system, dispersion_roots) goes through the same code
with n = 1.

Elimination order behind the assembly (documenting the reduction): rows
are (value continuity at the two vertices, then the two derivative
sums); unknowns are ordered (A0, B0, A1, B1, A2, B2) for the vertical,
up-slanted and down-slanted edges.  det M factors through phi(1)^1
(coefficients rescaled by phi(1) stay continuous across Dirichlet
points), which the test suite checks numerically.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import monodromy, spectrum as _spec
from ._rootfind import _depth_for
from .potential import PotentialSpec
from .spectrum import BandStructure, MagneticConfig

#: |phi(1, lambda)| below this (relative to its lambda-derivative scale)
#: means lambda sits within ~1e-8 of a Dirichlet point, where the edge
#: coefficient map degenerates and the flat-band machinery takes over.
FLAT_BAND_VICINITY = 1e-8

#: Unit-circle tolerance for classifying a Floquet multiplier as ac.
UNIT_CIRCLE_TOL = 1e-4

#: cross_validate checks the band/gap membership of the grid points
#: farther than this from every band edge.
EDGE_MARGIN = 1e-6

# Points per chunk of cross_validate.
_CHUNK = 512


class FlatBandVicinityError(ValueError):
    def __init__(self, lam: float, phi1: float):
        super().__init__(
            f"lambda={lam} is within ~{FLAT_BAND_VICINITY} of a Dirichlet "
            f"point (phi(1)={phi1:.3e}); the cell system degenerates there")


@dataclass(frozen=True)
class CellSystem:
    """The 6x6 cell matrix M(lambda, z) = m0 + z m1 and its ingredients.

    For a float64 array of lambda, m0 and m1 are (n, 6, 6) stacks, phi1
    is an array and near_flat flags the points in the flat-band vicinity;
    for one lambda near_flat is False (build_cell_system raises there).
    """

    lam: float | np.ndarray
    cfg: MagneticConfig
    m0: np.ndarray
    m1: np.ndarray
    phi1: float | np.ndarray
    near_flat: bool | np.ndarray

    def matrix(self, z: complex) -> np.ndarray:
        return self.m0 + z * self.m1

    def det_coeffs(self):
        """(alpha, beta, delta) with det M = alpha z^2 + beta z + delta:
        complex numbers for one system, lists of them for a stack.  The
        determinants of m0 and m0 +- m1 come from one stacked LAPACK
        call; their combination is Python complex arithmetic per point."""
        d0, dp, dm = np.linalg.det(np.stack(
            (self.m0, self.m0 + self.m1, self.m0 - self.m1))
        ).reshape(3, -1).tolist()
        alpha = [0.5 * (p + m) - z for z, p, m in zip(d0, dp, dm)]
        beta = [0.5 * (p - m) for p, m in zip(dp, dm)]
        if self.m0.ndim == 2:
            return alpha[0], beta[0], d0[0]
        return alpha, beta, d0


def build_cell_system(q: PotentialSpec, cfg: MagneticConfig,
                      lam: float | np.ndarray) -> CellSystem:
    """Assemble the Kirchhoff/Floquet cell system at lambda.

    One lambda in the flat-band vicinity raises FlatBandVicinityError.  A
    float64 array of lambda gives the stacked systems from one transfer
    call, with such points flagged in near_flat instead.
    """
    return _cell_system(cfg, lam, monodromy.transfer(q, lam, 1))


def _cell_system(cfg: MagneticConfig, lam: float | np.ndarray,
                 jet: tuple) -> CellSystem:
    """build_cell_system from the monodromy jet (P, P') at lam."""
    p, p1 = jet[:2]
    th, ph, thp, php = p
    near = np.abs(ph) < FLAT_BAND_VICINITY * np.fmax(1.0, np.abs(p1[1]))
    if np.ndim(lam) == 0 and near:
        raise FlatBandVicinityError(lam, ph)
    eps = cmath.exp(1j * cfg.a)
    w = eps * cmath.exp(2j * math.pi * cfg.j / cfg.N)
    m0 = np.zeros(np.shape(lam) + (6, 6), dtype=complex)
    m1 = np.zeros_like(m0)
    rows = (
        # value continuity at the lower vertex: f0(1) = f1(0) = w f2(1)
        (m0, 0, (th, ph, -1.0, 0.0, 0.0, 0.0)),
        (m0, 1, (0.0, 0.0, 1.0, 0.0, -w * th, -w * ph)),
        # value continuity at the upper vertex: z f0(0) = eps f1(1) = f2(0)
        (m1, 2, (1.0, 0.0, 0.0, 0.0, 0.0, 0.0)),
        (m0, 2, (0.0, 0.0, -eps * th, -eps * ph, 0.0, 0.0)),
        (m0, 3, (0.0, 0.0, eps * th, eps * ph, -1.0, 0.0)),
        # derivative sums at both vertices
        (m0, 4, (-thp, -php, 0.0, 1.0, -w * thp, -w * php)),
        (m1, 5, (0.0, 1.0, 0.0, 0.0, 0.0, 0.0)),
        (m0, 5, (0.0, 0.0, -eps * thp, -eps * php, 0.0, 1.0)),
    )
    for m, i, row in rows:
        for k, v in enumerate(row):
            m[..., i, k] = v
    return CellSystem(lam=lam, cfg=cfg, m0=m0, m1=m1, phi1=ph,
                      near_flat=near)


def _quadratic_roots(alpha: complex, beta: complex,
                     delta: complex) -> tuple[complex, complex]:
    """Stable roots of alpha z^2 + beta z + delta (alpha != 0)."""
    disc = cmath.sqrt(beta * beta - 4.0 * alpha * delta)
    if abs(beta - disc) > abs(beta + disc):
        big = beta - disc
    else:
        big = beta + disc
    if big == 0:
        return 0.0 + 0j, 0.0 + 0j
    z1 = -big / (2.0 * alpha)
    z2 = delta / (alpha * z1)
    return z1, z2


def _multipliers(cs: CellSystem) -> list[tuple[complex, complex] | None]:
    """Both Floquet multipliers of each system of the stack cs, or None
    where the system degenerates: in the flat-band vicinity, or where the
    z^2 coefficient vanishes against the others."""
    out = []
    for near, alpha, beta, delta in zip(cs.near_flat.tolist(),
                                        *cs.det_coeffs()):
        scale = max(abs(alpha), abs(beta), abs(delta))
        if near or scale == 0.0 or abs(alpha) < 1e-13 * scale:
            out.append(None)
        else:
            out.append(_quadratic_roots(alpha, beta, delta))
    return out


def dispersion_roots(q: PotentialSpec, cfg: MagneticConfig,
                     lam: float) -> tuple[complex, complex]:
    """Both Floquet multipliers at lambda (reciprocal pair up to phase)."""
    cs = build_cell_system(q, cfg, np.array([lam], dtype=float))
    (roots,) = _multipliers(cs)
    if roots is None:
        raise FlatBandVicinityError(lam, float(cs.phi1[0]))
    return roots


def cos_k_from_root(z: complex, cfg: MagneticConfig) -> complex:
    """cos(p + pi j / N) for a Floquet multiplier z = e^{ip}."""
    big_z = z * cmath.exp(1j * math.pi * cfg.j / cfg.N)
    return 0.5 * (big_z + 1.0 / big_z)


def is_ac_multiplier_pair(z1: complex, z2: complex) -> bool:
    r = max(abs(z1), abs(z2), 1.0 / max(abs(z1), 1e-300),
            1.0 / max(abs(z2), 1e-300))
    return r - 1.0 < UNIT_CIRCLE_TOL


@dataclass(frozen=True)
class CrossValidation:
    """Pointwise agreement of the oracle with the modified discriminant."""

    lams: tuple[float, ...]
    deviations: tuple[float, ...]
    max_deviation: float
    skipped: tuple[float, ...]
    membership_checked: int
    membership_mismatches: tuple[float, ...]


def cross_validate(q: PotentialSpec, cfg: MagneticConfig, lam_grid,
                   bs: BandStructure | None = None) -> CrossValidation:
    """Compare cos(p_j + pi j / N) from the cell-system roots against xi
    over a grid, and the band/gap classification of the roots against
    the band structure (at points farther than EDGE_MARGIN from edges).
    Without bs, a structure deep enough to cover the grid is built; a
    given bs must be a structure of (q, cfg) (ValueError otherwise).

    Grid points in the flat-band vicinity are skipped and reported.  The
    grid goes through in chunks of _CHUNK points: per chunk, one transfer
    call whose jet gives both the stacked cell system (with one
    determinant call) and xi, then the roots and comparisons point by
    point.
    """
    lams = [float(x) for x in lam_grid]
    if bs is None:
        bs = _spec.band_structure(q, cfg, _depth_for(max(lams), q.q0))
    elif not _spec._is_structure_of(bs, q, cfg):
        raise ValueError("bs must be a structure of (q, cfg)")
    devs = []
    kept = []
    skipped = []
    mismatches = []
    checked = 0
    edges = np.array((bs.lambda0,) + bs.minus + bs.plus)
    sign = math.copysign(1.0, cfg.c_j)  # xi is signed with the true c_j
    for start in range(0, len(lams), _CHUNK):
        x = np.array(lams[start:start + _CHUNK])
        jet = monodromy.transfer(q, x, 1)
        roots = _multipliers(_cell_system(cfg, x, jet))
        xis = (sign * _spec._xi_finite(q, cfg, x, 1, jet)[0]).tolist()
        clear = (np.abs(x[:, None] - edges).min(axis=1)
                 > EDGE_MARGIN).tolist()
        for lam, pair, xi_val, away in zip(x.tolist(), roots, xis, clear):
            if pair is None:
                skipped.append(lam)
                continue
            z1, z2 = pair
            dev = max(abs(cos_k_from_root(z1, cfg) - xi_val),
                      abs(cos_k_from_root(z2, cfg) - xi_val))
            kept.append(lam)
            devs.append(dev)
            if away:
                checked += 1
                in_band_oracle = is_ac_multiplier_pair(z1, z2)
                where, _ = bs.locate(lam)
                in_band_struct = (where == "band")
                if in_band_oracle != in_band_struct:
                    mismatches.append(lam)
    return CrossValidation(lams=tuple(kept), deviations=tuple(devs),
                           max_deviation=max(devs) if devs else 0.0,
                           skipped=tuple(skipped),
                           membership_checked=checked,
                           membership_mismatches=tuple(mismatches))

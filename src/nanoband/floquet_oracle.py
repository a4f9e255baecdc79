"""Independent dispersion relation from the Kirchhoff cell system.

One period cell of the graph carries three edges; writing the solution
on each edge as A*theta + B*phi and imposing the magnetic Kirchhoff
vertex conditions together with the Floquet relation (next cell = z *
this cell) closes a 6x6 linear system M(lambda, z) x = 0 whose entries
are affine in the multiplier z.  Nontrivial solutions exist exactly on
det M = 0, a quadratic in z; unit-circle roots mark the ac spectrum.

This route never touches the modified discriminant: cross_validate
compares cos(p + pi j / N) computed from the roots against xi from the
spectrum module, which is the whole point of the module.

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


class FlatBandVicinityError(ValueError):
    def __init__(self, lam: float, phi1: float):
        super().__init__(
            f"lambda={lam} is within ~{FLAT_BAND_VICINITY} of a Dirichlet "
            f"point (phi(1)={phi1:.3e}); the cell system degenerates there")


@dataclass(frozen=True)
class CellSystem:
    """The 6x6 cell matrix M(lambda, z) = m0 + z m1 and its ingredients."""

    lam: float
    cfg: MagneticConfig
    m0: np.ndarray
    m1: np.ndarray
    phi1: float

    def matrix(self, z: complex) -> np.ndarray:
        return self.m0 + z * self.m1

    def det_coeffs(self) -> tuple[complex, complex, complex]:
        """(alpha, beta, delta) with det M = alpha z^2 + beta z + delta."""
        d0 = complex(np.linalg.det(self.m0))
        dp = complex(np.linalg.det(self.m0 + self.m1))
        dm = complex(np.linalg.det(self.m0 - self.m1))
        return 0.5 * (dp + dm) - d0, 0.5 * (dp - dm), d0


def build_cell_system(q: PotentialSpec, cfg: MagneticConfig,
                      lam: float) -> CellSystem:
    """Assemble the Kirchhoff/Floquet cell system at lambda."""
    p, p1, _ = monodromy.transfer(q, lam)
    th, ph, thp, php = p[0], p[1], p[2], p[3]
    if abs(ph) < FLAT_BAND_VICINITY * max(1.0, abs(p1[1])):
        raise FlatBandVicinityError(lam, ph)
    eps = cmath.exp(1j * cfg.a)
    w = eps * cmath.exp(2j * math.pi * cfg.j / cfg.N)
    m0 = np.zeros((6, 6), dtype=complex)
    m1 = np.zeros((6, 6), dtype=complex)
    # value continuity at the lower vertex: f0(1) = f1(0) = w f2(1)
    m0[0] = [th, ph, -1.0, 0.0, 0.0, 0.0]
    m0[1] = [0.0, 0.0, 1.0, 0.0, -w * th, -w * ph]
    # value continuity at the upper vertex: z f0(0) = eps f1(1) = f2(0)
    m1[2, 0] = 1.0
    m0[2] = [0.0, 0.0, -eps * th, -eps * ph, 0.0, 0.0]
    m0[3] = [0.0, 0.0, eps * th, eps * ph, -1.0, 0.0]
    # derivative sums at both vertices
    m0[4] = [-thp, -php, 0.0, 1.0, -w * thp, -w * php]
    m1[5, 1] = 1.0
    m0[5] = [0.0, 0.0, -eps * thp, -eps * php, 0.0, 1.0]
    return CellSystem(lam=lam, cfg=cfg, m0=m0, m1=m1, phi1=ph)


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


def dispersion_roots(q: PotentialSpec, cfg: MagneticConfig,
                     lam: float) -> tuple[complex, complex]:
    """Both Floquet multipliers at lambda (reciprocal pair up to phase)."""
    cs = build_cell_system(q, cfg, lam)
    alpha, beta, delta = cs.det_coeffs()
    scale = max(abs(alpha), abs(beta), abs(delta))
    if scale == 0.0 or abs(alpha) < 1e-13 * scale:
        raise FlatBandVicinityError(lam, cs.phi1)
    return _quadratic_roots(alpha, beta, delta)


def cos_k_from_root(z: complex, cfg: MagneticConfig) -> complex:
    """cos(p + pi j / N) for a Floquet multiplier z = e^{ip}."""
    big_z = z * cmath.exp(1j * math.pi * cfg.j / cfg.N)
    return 0.5 * (big_z + 1.0 / big_z)


def is_ac_multiplier_pair(z1: complex, z2: complex,
                          tol: float = UNIT_CIRCLE_TOL) -> bool:
    r = max(abs(z1), abs(z2), 1.0 / max(abs(z1), 1e-300),
            1.0 / max(abs(z2), 1e-300))
    return r - 1.0 < tol


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
                   bs: BandStructure | None = None,
                   edge_margin: float = 1e-6) -> CrossValidation:
    """Compare cos(p_j + pi j / N) from the cell-system roots against xi
    over a grid, and the band/gap classification of the roots against
    the band structure (at points farther than edge_margin from edges).

    Grid points in the flat-band vicinity are skipped and reported.
    """
    lams = [float(x) for x in lam_grid]
    if bs is None:
        bs = _spec.band_structure(q, cfg, _depth_for(max(lams), q.q0),
                                  include_flat=False)
    devs = []
    kept = []
    skipped = []
    mismatches = []
    checked = 0
    edges = (bs.lambda0,) + bs.minus + bs.plus
    for lam in lams:
        try:
            z1, z2 = dispersion_roots(q, cfg, lam)
        except FlatBandVicinityError:
            skipped.append(lam)
            continue
        xi_val = _spec.xi(q, cfg, lam)[0]
        dev = max(abs(cos_k_from_root(z1, cfg) - xi_val),
                  abs(cos_k_from_root(z2, cfg) - xi_val))
        kept.append(lam)
        devs.append(dev)
        if min(abs(lam - e) for e in edges) > edge_margin:
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

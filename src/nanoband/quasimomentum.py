"""The global quasimomentum k = arccos xi as a comb mapping.

k is represented by (band index, in-band phase) rather than a bare
arccos call: band n maps onto [pi(n-1), pi n] increasing, gap n onto the
vertical slit pi n + i [0, h_n], and the ray below the spectrum onto the
positive imaginary axis.  The branch is _rootfind._comb_k's: arccos/
arccosh arguments are clamped to their domains, and a clamp beyond
1e-12 plus the edge resolution |xi'| * SOLVE_XTOL * max(1, |lambda|)
raises ValueError (near pure point xi ~ 1/c is steep, and the
structure's own edges sit that far off the comb).  k_eval takes one lambda or a float64 array of them; an array
costs one jet call of order 1 (see monodromy) and then the branch point
by point, and gives the same numbers bit for bit.  The two asymptotics
checks below likewise evaluate xi at all their points with one array
call.

The deep-asymptotics probe fits the constant term of k on the negative
axis and resolves its closed form among candidate readings numerically
instead of assuming one; the reported resolution is log(9/(8c)) as an
additive i-term (equivalently Im k - 2y -> log(9/(8c))), which also
forces Re k = 0 on the negative axis, consistent with the comb picture.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import spectrum as _spec
from ._rootfind import _comb_k, _depth_for, _edge_slack
from .masses import _fit_line
from .potential import PotentialSpec
from .spectrum import BandStructure, MagneticConfig


def k_eval(q: PotentialSpec, cfg: MagneticConfig, lam: float | np.ndarray,
           bs: BandStructure | None = None) -> complex | np.ndarray:
    """Quasimomentum at real lam; complex on gaps and below the spectrum.

    For a float64 array lam, a complex128 array of the values at its
    entries: one jet call for all of them (the same numbers as one lam at
    a time, bit for bit, see monodromy), then the comb branch point by
    point.  Without bs, a structure deep enough to cover every lam is
    built; a given bs must be a structure of (q, cfg).  Raises
    ValueError for a bs of another potential or sector, where xi is off
    the comb branch by more than the clamp tolerance plus the edge
    resolution at lam, and monodromy._JetOverflowError (a ValueError)
    naming the lowest lam where xi or xi' is not a finite float."""
    pts = np.atleast_1d(lam).tolist()
    if bs is None:
        bs = _spec.band_structure(q, cfg, _depth_for(max(pts), q.q0))
    elif not _spec._is_structure_of(bs, q, cfg):
        raise ValueError("bs must be a structure of (q, cfg)")
    where = [bs.locate(x) for x in pts]
    vals, d1s = (np.atleast_1d(v).tolist()
                 for v in _spec._xi_finite(q, cfg, lam, 1))
    ks = [_comb_k(*w, v, _edge_slack(x, d))
          for x, w, v, d in zip(pts, where, vals, d1s)]
    return np.array(ks, dtype=complex) if isinstance(lam, np.ndarray) \
        else ks[0]


@dataclass(frozen=True)
class DeepAsymptoticsReport:
    """Constant-term recovery of k on the negative axis.

    k(-y^2) = i (2y + const + q0/y + O(1/y^2)) after normalizing the
    spectral bottom to 0 (by shifting the potential; `shift` records it).
    const_fit extrapolates Im k - 2y - q0/y; `resolved` names the closest
    candidate closed form and `candidates` lists them all.
    """

    c: float
    shift: float
    y_values: tuple[float, ...]
    const_estimates: tuple[float, ...]
    const_fit: float
    candidates: tuple[tuple[str, float], ...]
    resolved: str
    resolved_value: float
    residuals: tuple[float, ...]
    decay_exponent: float


def verify_deep_asymptotics(q: PotentialSpec, cfg: MagneticConfig,
                            y_values) -> DeepAsymptoticsReport:
    """Fit the constant term of k(-y^2) - 2iy and resolve its closed form.

    The candidates differ in their c-dependence, so running this at two
    magnetic phases separates them; the residual column uses the resolved
    constant and should decay ~ 1/y^2.
    """
    ys = tuple(sorted(float(y) for y in y_values))
    if not ys or ys[0] <= 0.0:
        raise ValueError("y values must be positive")
    c = cfg.c_abs
    lam0 = _spec.band_structure(q, cfg, 1).lambda0
    qn = q.shifted(-lam0)
    q0n = qn.q0
    (vals,) = _spec._xi_finite(qn, cfg, np.array([-y * y for y in ys]), 0)
    ests = [_comb_k("below", 0, v).imag - 2.0 * y - q0n / y
            for y, v in zip(ys, vals.tolist())]
    const_fit, _ = _fit_line([1.0 / (y * y) for y in ys], ests)
    base = math.log(9.0 / (8.0 * c))
    candidates = (
        ("log(9/(8c))", base),
        ("2*log(9/(8c))", 2.0 * base),
        ("log(9/(8c^2))", math.log(9.0 / (8.0 * c * c))),
        ("(log(9/(8c)))^2", base * base),
    )
    resolved, resolved_value = min(
        candidates, key=lambda kv: abs(const_fit - kv[1]))
    residuals = tuple(abs(e - resolved_value) for e in ests)
    if all(r > 0.0 for r in residuals) and len(ys) >= 2:
        _, slope = _fit_line([math.log(y) for y in ys],
                             [math.log(r) for r in residuals])
    else:
        slope = float("-inf")
    return DeepAsymptoticsReport(
        c=c, shift=-lam0, y_values=ys, const_estimates=tuple(ests),
        const_fit=const_fit, candidates=candidates, resolved=resolved,
        resolved_value=resolved_value, residuals=residuals,
        decay_exponent=slope)


@dataclass(frozen=True)
class KprimeSquaredReport:
    """lambda^2 (k'^2 - 1/lambda) along the negative axis -> q0.

    The combination is invariant under shifting the potential by a
    constant (the shift cancels between the two terms), so the recovered
    limit is the raw mean of q regardless of normalization.
    """

    lambdas: tuple[float, ...]
    values: tuple[float, ...]
    recovered_q0: float
    target_q0: float

    @property
    def relative_error(self) -> float:
        scale = max(1.0, abs(self.target_q0))
        return abs(self.recovered_q0 - self.target_q0) / scale


def verify_kprime_squared(q: PotentialSpec, cfg: MagneticConfig,
                          lambdas) -> KprimeSquaredReport:
    """Evaluate lambda^2 (k'^2 - 1/lambda) at the given (very negative)
    lambdas; k'^2 = xi'^2 / (1 - xi^2) by the exact chain rule."""
    lams = tuple(sorted(float(x) for x in lambdas))
    if lams[-1] >= 0.0:
        raise ValueError("test lambdas must be negative")
    vals = []
    xs, d1s = _spec._xi_finite(q, cfg, np.array(lams), 1)
    for lam, v, d1 in zip(lams, xs.tolist(), d1s.tolist()):
        kp2 = d1 * d1 / (1.0 - v * v)
        vals.append(lam * lam * (kp2 - 1.0 / lam))
    return KprimeSquaredReport(lambdas=lams, values=tuple(vals),
                               recovered_q0=vals[0], target_q0=q.q0)

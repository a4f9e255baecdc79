"""Piecewise-constant 1-periodic potentials and their scalar functionals.

The canonical representation is a finite list of (width, value) pieces on
a partition of [0, 1].  That choice makes the monodromy matrix an exact
finite product of 2x2 trigonometric/hyperbolic factors: evaluation is
entire in the spectral parameter with no ODE truncation error.  General
potentials are admitted by projection onto an m-piece mesh (piece
averages), with the projection error owned by the caller.

Energies are dimensionless; the edge length is normalized to 1.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

DEFAULT_MESH = 64
_WIDTH_SUM_TOL = 1e-14

#: Named potentials accepted by the CLI and handy in tests.
NAMED_POTENTIALS: dict[str, tuple[tuple[float, float], ...]] = {
    "zero": ((1.0, 0.0),),
    "two-step": ((0.5, 2.0), (0.5, -2.0)),
    "three-step": ((0.25, 3.0), (0.5, -1.0), (0.25, 0.5)),
}


@dataclass(frozen=True)
class PotentialSpec:
    """A 1-periodic piecewise-constant potential.

    pieces are (width, value) with positive widths summing to 1 and
    finite values (ValueError for nan or an infinity, however the
    potential is given).  Immutable; all operations on it are pure.
    """

    pieces: tuple[tuple[float, float], ...]
    label: str = ""

    def __post_init__(self):
        for _, v in self.pieces:
            if not math.isfinite(v):
                raise ValueError(f"potential values must be finite, got {v}")

    @property
    def q0(self) -> float:
        """Mean of the potential over one period."""
        return math.fsum(w * v for w, v in self.pieces)

    @property
    def breakpoints(self) -> tuple[float, ...]:
        """Cumulative partition points 0 = t_0 < t_1 < ... < t_m = 1."""
        pts = [0.0]
        acc = 0.0
        for w, _ in self.pieces:
            acc += w
            pts.append(acc)
        pts[-1] = 1.0
        return tuple(pts)

    def value_at(self, t: float) -> float:
        """Potential value at t (reduced mod 1, right-continuous)."""
        t = t - math.floor(t)
        acc = 0.0
        for w, v in self.pieces:
            acc += w
            if t < acc:
                return v
        return self.pieces[-1][1]

    def l2_norm_sq(self) -> float:
        """Integral of q^2 over one period (exact)."""
        return math.fsum(w * v * v for w, v in self.pieces)

    def shifted(self, mu: float) -> "PotentialSpec":
        """The potential q + mu (shifts q0 by mu, leaves n>=1 Fourier
        coefficients unchanged)."""
        return PotentialSpec(tuple((w, v + mu) for w, v in self.pieces),
                             label=self.label)


@dataclass(frozen=True)
class FourierCoeffs:
    """Fourier functionals of q at index n.

    q_hat   : integral of q(t) e^{i 2 pi n t} over [0,1]
    q_hat_s : its imaginary part
    q_tilde_c : integral of q(t) cos(pi n t) over [0,1]
    """

    n: int
    q_hat: complex
    q_hat_s: float
    q_tilde_c: float


def make_potential(description, label: str = "",
                   mesh: int = DEFAULT_MESH) -> PotentialSpec:
    """Build a PotentialSpec from a flexible description.

    Accepted forms:
      * a PotentialSpec (returned as-is, relabeled if label given);
      * a registered name ("zero", "two-step", "three-step");
      * a sequence of (width, value) pairs -- widths positive, rescaled
        to total 1;
      * a sequence of scalars, read as uniform samples (equal-width
        pieces);
      * a callable q(t), projected onto `mesh` equal pieces by the piece
        average (5-point Gauss-Legendre per piece).
    """
    if isinstance(description, PotentialSpec):
        if label and label != description.label:
            return PotentialSpec(description.pieces, label=label)
        return description
    if isinstance(description, str):
        try:
            pieces = NAMED_POTENTIALS[description]
        except KeyError:
            raise ValueError(f"unknown named potential {description!r}; "
                             f"known: {sorted(NAMED_POTENTIALS)}") from None
        return PotentialSpec(pieces, label=label or description)
    if callable(description):
        return _project_callable(description, mesh, label)

    items = list(description)
    if not items:
        raise ValueError("empty potential description")
    if all(_is_scalar(x) for x in items):
        w = 1.0 / len(items)
        pairs = [(w, float(v)) for v in items]
    else:
        pairs = [(float(w), float(v)) for w, v in items]
    total = math.fsum(w for w, _ in pairs)
    for w, _ in pairs:
        if not w > 0.0:
            raise ValueError(f"nonpositive piece width {w}")
    if not math.isfinite(total) or total <= 0.0:
        raise ValueError("piece widths must have a positive finite sum")
    if abs(total - 1.0) > _WIDTH_SUM_TOL:
        pairs = [(w / total, v) for w, v in pairs]
    return PotentialSpec(tuple(pairs), label=label)


def _is_scalar(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


_GL5_NODES = (-0.9061798459386640, -0.5384693101056831, 0.0,
              0.5384693101056831, 0.9061798459386640)
_GL5_WEIGHTS = (0.2369268850561891, 0.4786286704993665, 0.5688888888888889,
                0.4786286704993665, 0.2369268850561891)


def _project_callable(func: Callable[[float], float], mesh: int,
                      label: str) -> PotentialSpec:
    if mesh < 1:
        raise ValueError("mesh must be >= 1")
    w = 1.0 / mesh
    pieces = []
    for i in range(mesh):
        mid = (i + 0.5) * w
        avg = 0.5 * math.fsum(
            wt * func(mid + 0.5 * w * x)
            for x, wt in zip(_GL5_NODES, _GL5_WEIGHTS))
        pieces.append((w, avg))
    return PotentialSpec(tuple(pieces), label=label)


def fourier_coeffs(q: PotentialSpec, n: int) -> FourierCoeffs:
    """Exact Fourier functionals of a piecewise-constant q at index n != 0.

    Closed-form integrals over each constant piece; no quadrature error.
    For n = 0 use q.q0 instead.
    """
    if n == 0:
        raise ValueError("n=0 has no Fourier coefficient here; use q.q0")
    pts = q.breakpoints
    two_pi_n = 2.0 * math.pi * n
    pi_n = math.pi * n
    q_hat = 0j
    q_tilde = 0.0
    for (w, v), t0, t1 in zip(q.pieces, pts, pts[1:]):
        q_hat += v * (cmath.exp(1j * two_pi_n * t1)
                      - cmath.exp(1j * two_pi_n * t0)) / (1j * two_pi_n)
        q_tilde += v * (math.sin(pi_n * t1) - math.sin(pi_n * t0)) / pi_n
    return FourierCoeffs(n=n, q_hat=q_hat, q_hat_s=q_hat.imag,
                         q_tilde_c=q_tilde)


def from_config(entry) -> PotentialSpec:
    """Potential from a config-file entry.

    Accepts {"pieces": [[w, v], ...]}, {"samples": [v, ...]},
    {"name": "..."} (optionally with "shift"), a bare name string, or a
    bare list (pieces/samples, disambiguated by element shape).
    """
    if isinstance(entry, str) or isinstance(entry, (list, tuple)):
        return make_potential(entry)
    if not isinstance(entry, dict):
        raise ValueError(f"unsupported potential entry {entry!r}")
    d = dict(entry)
    shift = float(d.pop("shift", 0.0))
    label = d.pop("label", "")
    if "pieces" in d:
        q = make_potential([(float(w), float(v)) for w, v in d["pieces"]],
                           label=label)
    elif "samples" in d:
        q = make_potential([float(v) for v in d["samples"]], label=label)
    elif "name" in d:
        q = make_potential(d["name"], label=label)
    else:
        raise ValueError("potential entry needs 'pieces', 'samples' or 'name'")
    return q.shifted(shift) if shift else q

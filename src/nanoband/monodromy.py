"""Hill monodromy: fundamental solutions at x=1 and their lambda-derivatives.

For a piecewise-constant potential the propagator over one period is an
exact product of per-piece factors

    T(w, mu) = [[ C,  S ],          C = cos(w sqrt(mu)),
                [-mu*S, C ]]        S = sin(w sqrt(mu)) / sqrt(mu),

with mu = lambda - v.  Both entries are entire in mu (hyperbolic branch
for mu < 0, power series near mu = 0), so evaluation works for any real
lambda without branch trouble.  First and second lambda-derivatives are
carried through the product exactly.

There are two entry points to that one product (`_product`).
`transfer` takes one lambda; `_transfer_batch` takes a float64 array of
them and is what the lockstep solvers of `_rootfind` (deep structures,
see _LOCKSTEP_GAPS there) call once per solver step.  The batch returns
the same numbers as `transfer`, bit for bit: numpy's elementwise
+ - * / and sqrt round exactly like Python floats, both share
`_closed_form` and `_product`, cos/sin/cosh/sinh go through
`math` one lambda at a time (numpy's versions can differ from libm in
the last bit), and lanes in the series window |mu| <= _SERIES_CUT are
computed by `_factor` itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _rootfind
from ._rootfind import CombRoots, comb_roots, solve_bracketed
from .potential import PotentialSpec

# Below this |mu| the closed forms for S and its mu-derivatives lose
# digits to 0/0 cancellation; the power series is exact to ~1e-13 there.
_SERIES_CUT = 1e-6

Mat = tuple[float, float, float, float]  # row-major 2x2


def _factor(w: float, mu: float) -> tuple[Mat, Mat, Mat]:
    """Per-piece transfer matrix and its first two mu-derivatives."""
    if mu > _SERIES_CUT:
        r = math.sqrt(mu)
        return _closed_form(w, mu, math.cos(w * r), math.sin(w * r) / r)
    if mu < -_SERIES_CUT:
        r = math.sqrt(-mu)
        return _closed_form(w, mu, math.cosh(w * r), math.sinh(w * r) / r)
    w2 = w * w
    w3 = w2 * w
    w4 = w2 * w2
    w5 = w4 * w
    w6 = w4 * w2
    w7 = w6 * w
    c = 1.0 + mu * (-w2 / 2.0 + mu * (w4 / 24.0 - mu * w6 / 720.0))
    s = w * (1.0 + mu * (-w2 / 6.0 + mu * (w4 / 120.0 - mu * w6 / 5040.0)))
    c1 = -w2 / 2.0 + mu * (w4 / 12.0 - mu * w6 / 240.0)
    s1 = -w3 / 6.0 + mu * (w5 / 60.0 - mu * w7 / 1680.0)
    c2 = w4 / 12.0 - mu * w6 / 120.0
    s2 = w5 / 60.0 - mu * w7 / 840.0
    return ((c, s, -mu * s, c), (c1, s1, -s - mu * s1, c1),
            (c2, s2, -2.0 * s1 - mu * s2, c2))


def _closed_form(w, mu, c, s) -> tuple[Mat, Mat, Mat]:
    """The factor from C and S off the series window (trigonometric or
    hyperbolic), for floats or float64 arrays alike."""
    c1 = -0.5 * w * s
    s1 = (w * c - s) / (2.0 * mu)
    c2 = -0.5 * w * s1
    s2 = (w * c1 - 3.0 * s1) / (2.0 * mu)
    return ((c, s, -mu * s, c), (c1, s1, -s - mu * s1, c1),
            (c2, s2, -2.0 * s1 - mu * s2, c2))


def _mul(a: Mat, b: Mat) -> Mat:
    return (a[0] * b[0] + a[1] * b[2], a[0] * b[1] + a[1] * b[3],
            a[2] * b[0] + a[3] * b[2], a[2] * b[1] + a[3] * b[3])


def _add(a: Mat, b: Mat) -> Mat:
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3])


def _factor_batch(w: float, mu: np.ndarray) -> tuple[Mat, Mat, Mat]:
    """_factor over a float64 array of mu, entry for entry the same numbers."""
    hyp = mu < -_SERIES_CUT
    series = np.flatnonzero(np.abs(mu) <= _SERIES_CUT).tolist()
    exact = mu
    if series:
        mu = mu.copy()
        mu[series] = 1.0  # any trigonometric lane; overwritten below
    r = np.sqrt(np.abs(mu))
    wr = (w * r).tolist()
    if hyp.any():
        cs = [(math.cosh(x), math.sinh(x)) if h else (math.cos(x), math.sin(x))
              for x, h in zip(wr, hyp.tolist())]
        c = np.array([v[0] for v in cs])
        sn = np.array([v[1] for v in cs])
    else:
        c = np.fromiter(map(math.cos, wr), float, len(wr))
        sn = np.fromiter(map(math.sin, wr), float, len(wr))
    out = _closed_form(w, mu, c, sn / r)
    for i in series:
        for mats, vals in zip(out, _factor(w, float(exact[i]))):
            for arr, v in zip(mats, vals):
                arr[i] = v
    return out


def _product(q: PotentialSpec, lam, factor) -> tuple[Mat, Mat, Mat]:
    """The product over the pieces of q, with factor = _factor (one lambda)
    or _factor_batch (an array)."""
    p: Mat = (1.0, 0.0, 0.0, 1.0)
    p1: Mat = (0.0, 0.0, 0.0, 0.0)
    p2: Mat = (0.0, 0.0, 0.0, 0.0)
    for w, v in q.pieces:
        t, t1, t2 = factor(w, lam - v)
        cross = _mul(t1, p1)
        p2 = _add(_add(_mul(t2, p), _mul(t, p2)),
                  (2.0 * cross[0], 2.0 * cross[1],
                   2.0 * cross[2], 2.0 * cross[3]))
        p1 = _add(_mul(t1, p), _mul(t, p1))
        p = _mul(t, p)
    return p, p1, p2


def transfer(q: PotentialSpec, lam: float) -> tuple[Mat, Mat, Mat]:
    """Monodromy matrix over one period with first/second lambda-derivatives.

    Returns (P, dP, d2P), each row-major (theta1, phi1, theta1', phi1').
    """
    return _product(q, lam, _factor)


def _transfer_batch(q: PotentialSpec, lams: np.ndarray
                    ) -> tuple[Mat, Mat, Mat]:
    """transfer at every entry of the float64 array lams: the same
    (P, dP, d2P) with each matrix entry an array."""
    return _product(q, lams, _factor_batch)


@dataclass(frozen=True)
class Monodromy:
    """Values of the fundamental solutions at x=1 for one lambda.

    theta1, dtheta1, phi1, dphi1 are theta(1), theta'(1), phi(1), phi'(1)
    (primes = x-derivatives); d_lam and d2_lam hold their lambda-
    derivatives in the same order.
    """

    lam: float
    theta1: float
    dtheta1: float
    phi1: float
    dphi1: float
    d_lam: tuple[float, float, float, float]
    d2_lam: tuple[float, float, float, float]

    @property
    def Delta(self) -> float:
        """Discriminant (half-trace of the monodromy matrix)."""
        return 0.5 * (self.theta1 + self.dphi1)

    @property
    def DeltaMinus(self) -> float:
        """Anti-trace (phi'(1) - theta(1)) / 2."""
        return 0.5 * (self.dphi1 - self.theta1)

    @property
    def dDelta(self) -> float:
        return 0.5 * (self.d_lam[0] + self.d_lam[3])

    @property
    def dDeltaMinus(self) -> float:
        return 0.5 * (self.d_lam[3] - self.d_lam[0])

    @property
    def d2Delta(self) -> float:
        return 0.5 * (self.d2_lam[0] + self.d2_lam[3])

    @property
    def d2DeltaMinus(self) -> float:
        return 0.5 * (self.d2_lam[3] - self.d2_lam[0])

    @property
    def wronskian(self) -> float:
        return self.theta1 * self.dphi1 - self.dtheta1 * self.phi1


def evaluate(q: PotentialSpec, lam: float) -> Monodromy:
    """Monodromy data at spectral parameter lam (any sign, finite)."""
    p, p1, p2 = transfer(q, lam)
    return Monodromy(lam=lam,
                     theta1=p[0], phi1=p[1], dtheta1=p[2], dphi1=p[3],
                     d_lam=(p1[0], p1[2], p1[1], p1[3]),
                     d2_lam=(p2[0], p2[2], p2[1], p2[3]))


@dataclass(frozen=True)
class HillSpectrum(CombRoots):
    """2-periodic spectrum of -y'' + q y: the Hill comb plus Dirichlet points.

    edges interlace lam0 < minus_1 <= plus_1 < minus_2 <= ...; dirichlet
    holds the zeros of phi(1, .) (one per closed gap); heights are the
    slit heights of the Hill quasimomentum.
    """

    q: PotentialSpec
    dirichlet: tuple[float, ...]


def hill_spectrum(q: PotentialSpec, n_max: int) -> HillSpectrum:
    """Edges of the Hill 2-periodic spectrum up to gap n_max, plus the
    Dirichlet spectrum; raises RootBracketError with the offending index
    if any bracket cannot be established."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    q0 = q.q0

    def fval(lam: float) -> tuple[float, float, float]:
        p, p1, p2 = transfer(q, lam)
        return (0.5 * (p[0] + p[3]), 0.5 * (p1[0] + p1[3]),
                0.5 * (p2[0] + p2[3]))

    def window(n: int) -> tuple[float, float]:
        zl = math.pi * (n - 0.5)
        zr = math.pi * (n + 0.5)
        return zl * zl + q0, zr * zr + q0

    roots = comb_roots(fval, n_max, window, q0, what="hill")
    return HillSpectrum(q=q, dirichlet=dirichlet_spectrum(q, n_max),
                        **vars(roots))


def dirichlet_spectrum(q: PotentialSpec, n_max: int) -> tuple[float, ...]:
    """Zeros of phi(1, .) with index 1..n_max (guesses near (pi n)^2 + q0)."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    q0 = q.q0

    def fval(lam: float) -> tuple[float, float]:
        p, p1, _ = transfer(q, lam)
        return p[1], p1[1]

    def fbatch(lams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        p, p1, _ = _transfer_batch(q, lams)
        return p[1], p1[1]

    lanes = _rootfind._Lanes(fval, fbatch, n_max)

    def root(n: int):
        zl = math.pi * (n - 0.5)
        zr = math.pi * (n + 0.5)
        lo, hi = zl * zl + q0, zr * zr + q0
        prefer = (math.pi * n) ** 2 + q0
        blo, bhi, flo, fhi = yield from lanes.call(
            _rootfind.find_sign_change, _rootfind._scan_steps,
            lambda v: v[0], lo, hi, prefer, what="dirichlet root", index=n)
        return (yield from lanes.call(solve_bracketed, _rootfind._solve_steps,
                                      lambda v: v, blo, bhi, flo, fhi))

    return tuple(lanes.run(root(n) for n in range(1, n_max + 1)))


def hill_quasimomentum(q: PotentialSpec, lam: float,
                       spectrum: HillSpectrum | None = None) -> complex:
    """Hill quasimomentum arccos Delta with the comb branch convention.

    Real and increasing from pi(n-1) to pi n across band n; pi n + i h on
    gap n; purely imaginary on (-inf, lowest edge).  Raises ValueError if
    Delta lies off that branch by more than the clamp tolerance.
    """
    if spectrum is None:
        spectrum = hill_spectrum(q, _rootfind._depth_for(lam, q.q0))
    p = transfer(q, lam)[0]
    return _rootfind._comb_k(*spectrum.locate(lam), 0.5 * (p[0] + p[3]))

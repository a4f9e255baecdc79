"""Independent numerical oracles the tests check the package against.

Nothing here reuses the package's transfer-matrix path: the monodromy
oracle integrates the ODE with an adaptive Runge-Kutta scheme, the
spectral oracle diagonalizes a finite-difference discretization, the
Fourier oracle integrates by adaptive quadrature, and the mass oracle
fits the dispersion curvature through the quasimomentum map alone.

The three exceptions are bit-level references rather than independent
oracles: `reference_jet`, the product of 2x2 tuples by `_mul`/`_add`
that the fused loop of `monodromy.transfer` replaced, over the
package's own per-piece factors, taken block by block as the jet takes
it (`sequential_jet` is that product over one run of pieces);
`reference_scan`, the sign-change scan of one bracket on floats that
`_rootfind._scan_array` runs for every lane of a search phase at once;
and `reference_json`, the standard library encoder that the CLI's JSON
writer replaced.  `evaluate` is no oracle either: it reads the
package's jet at one lambda through the named fields of `Monodromy`,
the view the tests check against the oracles and the identities.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import eigsh

from nanoband._rootfind import (_BLOCK, MAX_DOUBLINGS, SCAN_SAMPLES,
                                RootBracketError)
from nanoband.cli import _fmt
from nanoband.monodromy import _factor, _factor_batch, transfer
from nanoband.potential import PotentialSpec
from nanoband.quasimomentum import k_eval


def ode_monodromy(q: PotentialSpec, lam: float,
                  rtol: float = 1e-12, atol: float = 1e-13):
    """(theta1, theta1', phi1, phi1') by DOP853 integration, piece by
    piece so the integrator never steps across a discontinuity."""
    y = np.array([1.0, 0.0, 0.0, 1.0])  # theta, theta', phi, phi'

    def rhs_factory(v):
        def rhs(_t, y):
            return [y[1], (v - lam) * y[0], y[3], (v - lam) * y[2]]
        return rhs

    for w, v in q.pieces:
        sol = solve_ivp(rhs_factory(v), (0.0, w), y, method="DOP853",
                        rtol=rtol, atol=atol, dense_output=False)
        y = sol.y[:, -1]
    return y[0], y[1], y[2], y[3]


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
    def d2Delta(self) -> float:
        return 0.5 * (self.d2_lam[0] + self.d2_lam[3])

    @property
    def wronskian(self) -> float:
        return self.theta1 * self.dphi1 - self.dtheta1 * self.phi1


def evaluate(q: PotentialSpec, lam: float) -> Monodromy:
    """The jet of monodromy.transfer at lam (any sign, finite) as a
    Monodromy."""
    p, p1, p2 = transfer(q, lam)
    return Monodromy(lam=lam,
                     theta1=p[0], phi1=p[1], dtheta1=p[2], dphi1=p[3],
                     d_lam=(p1[0], p1[2], p1[1], p1[3]),
                     d2_lam=(p2[0], p2[2], p2[1], p2[3]))


def fd_periodic_eigenvalues(q: PotentialSpec, mesh: int = 4096,
                            k: int = 6) -> np.ndarray:
    """Lowest k eigenvalues of -y'' + q y on [0, 2] with periodic
    boundary conditions, second-order central differences."""
    h = 2.0 / mesh
    t = (np.arange(mesh) + 0.5) * h
    qv = np.array([q.value_at(x) for x in t])
    main = 2.0 / h ** 2 + qv
    off = -np.ones(mesh - 1) / h ** 2
    a = np.diag(main) + np.diag(off, 1) + np.diag(off, -1)
    a[0, -1] = a[-1, 0] = -1.0 / h ** 2
    a_sp = csc_matrix(a)
    sigma = float(qv.min()) - 1.0
    vals = eigsh(a_sp, k=k, sigma=sigma, which="LM",
                 return_eigenvectors=False)
    return np.sort(vals)


def quad_fourier(q: PotentialSpec, n: int):
    """(q_hat_n, q_tilde_cn) by adaptive quadrature over each piece."""
    pts = q.breakpoints
    re = im = co = 0.0
    for (w, v), t0, t1 in zip(q.pieces, pts, pts[1:]):
        re += quad(lambda t, v=v: v * math.cos(2 * math.pi * n * t),
                   t0, t1, epsabs=1e-13, epsrel=1e-13)[0]
        im += quad(lambda t, v=v: v * math.sin(2 * math.pi * n * t),
                   t0, t1, epsabs=1e-13, epsrel=1e-13)[0]
        co += quad(lambda t, v=v: v * math.cos(math.pi * n * t),
                   t0, t1, epsabs=1e-13, epsrel=1e-13)[0]
    return complex(re, im), co


def mass_from_curvature(q, cfg, bs, n: int, sign: int,
                        rel_offset: float = 1e-4) -> float:
    """Effective mass from the dispersion curvature near edge (n, sign).

    Samples lambda on the band side of the edge, computes the real
    in-band quasimomentum offset kappa = k - pi n, and extrapolates
    kappa^2 / (2 dlambda) to the edge with a linear fit in dlambda.
    """
    if n == 0:
        edge = bs.lambda0
        if sign != +1:
            raise ValueError("edge (0,-) does not exist")
    else:
        edge = bs.plus[n - 1] if sign > 0 else bs.minus[n - 1]
    scale = rel_offset * max(1.0, abs(edge))
    deltas = [scale / 4 ** i for i in range(4)]
    xs, ys = [], []
    for d in deltas:
        lam = edge + sign * d
        kappa = k_eval(bs.q, cfg, lam, bs=bs).real - math.pi * n
        xs.append(sign * d)
        ys.append(kappa * kappa / (2.0 * sign * d))
    xs = np.asarray(xs)
    ys = np.asarray(ys)
    slope, intercept = np.polyfit(xs, ys, 1)
    return float(intercept)


def _mul(a, b):
    return (a[0] * b[0] + a[1] * b[2], a[0] * b[1] + a[1] * b[3],
            a[2] * b[0] + a[3] * b[2], a[2] * b[1] + a[3] * b[3])


def _add(a, b):
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3])


def reference_jet(q: PotentialSpec, lam):
    """(P, P', P'') as monodromy.transfer multiplies them: the
    sequential_jet of each block of _rootfind._BLOCK consecutive pieces,
    then the block jets multiplied in adjacent pairs, the later block as
    T, level by level (an odd last block waits for the next level).  A
    float or a float64 array lam, as monodromy.transfer."""
    jets = [sequential_jet(q.pieces[i:i + _BLOCK], lam)
            for i in range(0, len(q.pieces), _BLOCK)]
    while len(jets) > 1:
        jets = ([_jet_product(later, earlier)
                 for earlier, later in zip(jets[::2], jets[1::2])]
                + jets[len(jets) - len(jets) % 2:])
    return jets[0]


def sequential_jet(pieces, lam):
    """(P, P', P'') of a run of (width, value) pieces as a product of
    row-major 2x2 tuples, one piece after the other from the identity:
    per piece the factor T = [[C, S], [-mu S, C]] and its
    mu-derivatives, then P'' <- (T'' P + T P'') + 2 T' P',
    P' <- T' P + T P', P <- T P."""
    factor = _factor_batch if isinstance(lam, np.ndarray) else _factor
    jet = ((1.0, 0.0, 0.0, 1.0), (0.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0))
    for w, v in pieces:
        mu = lam - v
        c, s, c1, s1, c2, s2 = factor(w, mu)
        jet = _jet_product(((c, s, -mu * s, c), (c1, s1, -s - mu * s1, c1),
                            (c2, s2, -2.0 * s1 - mu * s2, c2)), jet)
    return jet


def _jet_product(t, p):
    """The jet of T P from the jets (T, T', T'') and (P, P', P'')."""
    cross = _mul(t[1], p[1])
    return (_mul(t[0], p[0]), _add(_mul(t[1], p[0]), _mul(t[0], p[1])),
            _add(_add(_mul(t[2], p[0]), _mul(t[0], p[2])),
                 (2.0 * cross[0], 2.0 * cross[1],
                  2.0 * cross[2], 2.0 * cross[3])))


def reference_scan(g, lo: float, hi: float, prefer: float, what: str, index):
    """The sign-change scan of a float function g on [lo, hi], one lane
    of `_rootfind._scan_array` written for one float at a time (a
    reference, not an independent oracle).

    Endpoints are tried first; on failure SCAN_SAMPLES points across the
    interval are tried and, if still single-signed, the interval is
    geometrically widened around `prefer` (up to MAX_DOUBLINGS).  Among
    several sign changes the one closest to `prefer` wins.  Returns
    (lo, hi, g(lo), g(hi)) of that subinterval; a scan that finds none
    raises RootBracketError(what, index).
    """
    span = hi - lo
    for attempt in range(MAX_DOUBLINGS + 1):
        flo, fhi = g(lo), g(hi)
        if attempt == 0 and (flo > 0) != (fhi > 0):
            return lo, hi, flo, fhi
        xs = [lo + span * i / (SCAN_SAMPLES - 1) for i in range(SCAN_SAMPLES)]
        fs = [flo, *map(g, xs[1:-1]), fhi]
        best = None
        for i in range(SCAN_SAMPLES - 1):
            if (fs[i] > 0) != (fs[i + 1] > 0):
                mid = 0.5 * (xs[i] + xs[i + 1])
                d = abs(mid - prefer)
                if best is None or d < best[0]:
                    best = (d, xs[i], xs[i + 1], fs[i], fs[i + 1])
        if best is not None:
            return best[1:]
        lo = prefer - span
        hi = prefer + span
        span *= 2.0
    raise RootBracketError(what, index)


def reference_json(x) -> str:
    """The JSON text of a CLI payload as the standard library writes it
    after cli._fmt (nan and infinities as strings), with sorted keys and
    an indent of 1: the bytes `cli._to_json` must reproduce."""
    return json.dumps(_fmt(x), sort_keys=True, indent=1)

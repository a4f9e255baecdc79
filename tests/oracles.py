"""Independent numerical oracles the tests check the package against.

Nothing here reuses the package's transfer-matrix path: the monodromy
oracle integrates the ODE with an adaptive Runge-Kutta scheme, the
spectral oracle diagonalizes a finite-difference discretization, the
Fourier oracle integrates by adaptive quadrature, and the mass oracle
fits the dispersion curvature through the quasimomentum map alone.

The four exceptions are bit-level references rather than independent
oracles: `reference_jet`, the product of 2x2 tuples by `_mul`/`_add`
that the fused loop of `monodromy.transfer` replaced, over the
package's own per-piece factors, taken block by block as the jet takes
it (`sequential_jet` is that product over one run of pieces);
`reference_scan`, the sign-change scan of one bracket on floats that
`_rootfind._scan_array` runs for every lane of a search phase at once;
`reference_json`, the standard library encoder that the CLI's JSON
writer replaced, with its own projection of nan and infinities; and
the verifier's four checks as the loops that built one `CheckRecord`
per inequality and gap before the checks became columnar
(`reference_height_mass_gap`, `reference_merged_band_bound`,
`reference_monotonicity`, `reference_comb_comparison`), with the
verdict read record by record (`reference_verdict`).
`evaluate` is no oracle either: it reads the package's jet at one
lambda through the named fields of `Monodromy`, the view the tests
check against the oracles and the identities.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.sparse import diags
from scipy.sparse.linalg import eigsh

from nanoband._rootfind import (_BLOCK, MAX_DOUBLINGS, SCAN_SAMPLES,
                                RootBracketError)
from nanoband.masses import effective_masses
from nanoband.monodromy import _factor, _factor_batch, transfer
from nanoband.potential import PotentialSpec, make_potential
from nanoband.quasimomentum import k_eval
from nanoband.spectrum import MagneticConfig, band_structure
from nanoband.verifier import GUARD_REL, CheckRecord, InequalityReport


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


def fd_periodic_matrix(qv: np.ndarray):
    """-y'' + q y on [0, 2] with periodic boundary conditions by
    second-order central differences on a mesh of qv.size >= 3 cells,
    whose midpoints carry the potential values qv: a sparse CSC matrix
    built from its three diagonals and its two periodic corner entries,
    without a dense one."""
    mesh = qv.size
    h = 2.0 / mesh
    off = -1.0 / h ** 2
    return diags([2.0 / h ** 2 + qv, off, off, off, off],
                 [0, 1, -1, mesh - 1, 1 - mesh], shape=(mesh, mesh),
                 format="csc")


def fd_periodic_eigenvalues(q: PotentialSpec, mesh: int = 4096,
                            k: int = 6) -> np.ndarray:
    """Lowest k eigenvalues of -y'' + q y on [0, 2] with periodic
    boundary conditions, second-order central differences
    (fd_periodic_matrix)."""
    h = 2.0 / mesh
    t = (np.arange(mesh) + 0.5) * h
    qv = np.array([q.value_at(x) for x in t])
    sigma = float(qv.min()) - 1.0
    vals = eigsh(fd_periodic_matrix(qv), k=k, sigma=sigma, which="LM",
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


def _projected(x):
    """x with nan and infinities as the strings "nan", "inf", "-inf" and
    tuples as lists, the values the CLI writes in their place."""
    if isinstance(x, float) and not math.isfinite(x):
        return "nan" if math.isnan(x) else ("inf" if x > 0 else "-inf")
    if isinstance(x, dict):
        return {k: _projected(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_projected(v) for v in x]
    return x


def reference_json(x, indent: int | None = 1) -> str:
    """The JSON text of a CLI payload as the standard library writes it
    after the projection of nan and infinities to strings, with sorted
    keys and an indent of `indent` (None: the one-line form of the CSV
    comment lines): the bytes `cli._to_json(x, nl)` must reproduce, nl
    "\n" for indent 1 and None for None."""
    return json.dumps(_projected(x), sort_keys=True, indent=indent)


# ----------------------------------------------------------------------
# the verifier's checks as per-record loops
# ----------------------------------------------------------------------

def _ref_rec(name: str, n: int, lhs: float, rhs: float,
             extras: tuple[tuple[str, float], ...] = (),
             note: str = "") -> CheckRecord:
    guard = GUARD_REL * max(1.0, abs(lhs), abs(rhs))
    return CheckRecord(name=name, n=n, lhs=lhs, rhs=rhs, slack=rhs - lhs,
                       passed=lhs <= rhs + guard, extras=extras, note=note)


def _ref_skip(name: str, n: int, note: str) -> CheckRecord:
    return CheckRecord(name=name, n=n, lhs=math.nan, rhs=math.nan,
                       slack=math.nan, passed=True, skipped=True, note=note)


def reference_verdict(records) -> tuple:
    """(passed_all, failures, worst_slack, checked) of a tuple of
    records, read record by record."""
    failures = tuple(r for r in records if not r.passed and not r.skipped)
    active = [r.slack for r in records if not r.skipped]
    return (not failures, failures, min(active) if active else math.inf,
            sum(1 for r in records if not r.skipped))


def reference_height_mass_gap(bs, mt) -> InequalityReport:
    """check_height_mass_gap(bs, mt) one gap and one record at a time."""
    shift = bs.lambda0
    recs: list[CheckRecord] = []
    pi = math.pi
    for n in range(1, bs.n_max + 1):
        if bs.degenerate[n - 1]:
            recs.append(_ref_rec("degenerate gap: all quantities vanish", n,
                                 bs.heights[n - 1], 0.0))
            continue
        h = bs.heights[n - 1]
        g = bs.plus[n - 1] - bs.minus[n - 1]
        lp = bs.plus[n - 1] - shift
        lm = bs.minus[n - 1] - shift
        mp = mt.plus[n - 1]
        mm = mt.minus[n - 1]
        zp = math.sqrt(lp)
        zm = math.sqrt(lm)
        gs = g / (zp + zm)
        msp = 2.0 * zp * mp
        msm = 2.0 * zm * mm
        ex = (("gap", g), ("gap_scaled", gs), ("mass_scaled_plus", msp),
              ("mass_scaled_minus", msm), ("z_plus", zp), ("z_minus", zm))

        recs.append(_ref_rec("h <= 3*pi*sqrt(gap*|mu+|/2)", n,
                             h, 3 * pi * math.sqrt(g * abs(mp) / 2), ex))
        recs.append(_ref_rec("h <= 3*pi*sqrt(gap*|mu-|/2)", n,
                             h, 3 * pi * math.sqrt(g * abs(mm) / 2), ex))
        recs.append(_ref_rec(
            "3*pi*sqrt(gap*|mu+|/2) <= 6*pi^2*n*(mu+ - mu-)", n,
            3 * pi * math.sqrt(g * abs(mp) / 2),
            6 * pi * pi * n * (mp - mm), ex))
        recs.append(_ref_rec(
            "3*pi*sqrt(gap*|mu-|/2) <= 6*pi^2*n*(mu+ - mu-)", n,
            3 * pi * math.sqrt(g * abs(mm) / 2),
            6 * pi * pi * n * (mp - mm), ex))
        recs.append(_ref_rec("gap <= (4*pi*n)^2*(mu+ - mu-)", n,
                             g, (4 * pi * n) ** 2 * (mp - mm), ex))
        recs.append(_ref_rec("gap <= 8*lam+*mu+", n, g, 8 * lp * mp, ex))
        recs.append(_ref_rec("gap <= 8*lam-*|mu-| + 16*lam-*mu-^2", n,
                             g, 8 * lm * abs(mm) + 16 * lm * mm * mm, ex))
        recs.append(_ref_rec("h <= 4*pi*sqrt(lam+)*mu+", n,
                             h, 4 * pi * zp * mp, ex))
        recs.append(_ref_rec("h <= 4*pi*sqrt(lam-)*|mu-|", n,
                             h, 4 * pi * zm * abs(mm), ex))
        recs.append(_ref_rec("h <= pi*sqrt(2*gap*|mu-|)", n,
                             h, pi * math.sqrt(2 * g * abs(mm)), ex))
        recs.append(_ref_rec("h <= 2*pi*sqrt(gap*mu+)", n,
                             h, 2 * pi * math.sqrt(g * mp), ex))
        recs.append(_ref_rec("h^2 <= 2*gap*sqrt(mu+*|mu-|)", n,
                             h * h, 2 * g * math.sqrt(mp * abs(mm)), ex))
        # scaled-variable family
        recs.append(_ref_rec("g/2 <= h", n, gs / 2, h, ex))
        recs.append(_ref_rec("h <= pi*sqrt(2*g*|m+|)", n,
                             h, pi * math.sqrt(2 * gs * abs(msp)), ex))
        recs.append(_ref_rec("h <= pi*sqrt(2*g*|m-|)", n,
                             h, pi * math.sqrt(2 * gs * abs(msm)), ex))
        recs.append(_ref_rec("g <= 2*|m+|", n, gs, 2 * abs(msp), ex))
        recs.append(_ref_rec("g <= 2*|m-|", n, gs, 2 * abs(msm), ex))
        recs.append(_ref_rec("h^2 <= 2*g*sqrt(m+*|m-|)", n,
                             h * h, 2 * gs * math.sqrt(msp * abs(msm)), ex))

    first = next(iter(bs.open_gaps()), None)
    if first is not None:
        recs.append(_ref_rec("-mu(first open)- <= mu0", first,
                             -mt.minus[first - 1], mt.mu0))
    return InequalityReport(kind="height_mass_gap", records=tuple(recs),
                            shift=shift)


def reference_merged_band_bound(bs, mt) -> InequalityReport:
    """check_merged_band_bound(bs, mt) one interval at a time."""
    shift = bs.lambda0
    recs: list[CheckRecord] = []
    for n, n1, lo, hi in bs.merged_intervals():
        lam_lo = lo - shift
        lam_hi = hi - shift
        span = lam_hi - lam_lo
        count = n1 - n
        mu_lo = mt.mu0 if n == 0 else mt.plus[n - 1]
        mu_hi = mt.minus[n1 - 1]
        ex = (("n_start", float(n)), ("n_end", float(n1)), ("span", span))
        recs.append(_ref_rec("mu+ * span <= 16*(n1-n)^2*(lam+ + lam1-)", n1,
                             mu_lo * span,
                             16 * count ** 2 * (lam_lo + lam_hi), ex))
        recs.append(_ref_rec("|mu-| * span <= 32*(n1-n)^2*lam1-", n1,
                             abs(mu_hi) * span, 32 * count ** 2 * lam_hi,
                             ex))
        recs.append(_ref_rec("merged components n1-n <= 2", n1,
                             float(count), 2.0, ex))
    return InequalityReport(kind="merged_band", records=tuple(recs),
                            shift=shift)


def reference_monotonicity(q: PotentialSpec, a_values, n_max: int = 20,
                           N: int = 1, j: int = 0) -> InequalityReport:
    """check_monotonicity(q, a_values, n_max, N, j) one gap at a time."""
    data = []
    for a in sorted(float(a) for a in a_values):
        cfg = MagneticConfig(a=a, N=N, j=j)
        bs = band_structure(q, cfg, n_max)
        bz = band_structure(make_potential("zero"), cfg, n_max)
        data.append((a, bs, effective_masses(bs), bz, effective_masses(bz)))
    recs: list[CheckRecord] = []
    for a, bs, mt, bz, mz in data:
        tag = (("a", a),)
        for n in range(1, n_max + 1):
            recs.append(_ref_rec("h0(a) <= h(a)", n,
                                 bz.heights[n - 1], bs.heights[n - 1], tag))
            recs.append(_ref_rec("|mu0+(a)| <= |mu+(a)|", n,
                                 abs(mz.plus[n - 1]), abs(mt.plus[n - 1]),
                                 tag))
            recs.append(_ref_rec("|mu0-(a)| <= |mu-(a)|", n,
                                 abs(mz.minus[n - 1]), abs(mt.minus[n - 1]),
                                 tag))
            recs.append(_ref_rec("|band(a)| <= |band0(a)|", n,
                                 bs.band_length(n), bz.band_length(n), tag))
    for (a0, b0, m0, z0, _), (a1, b1, m1, _, _) in zip(data, data[1:]):
        tag = (("a_low", a0), ("a_high", a1))
        for n in range(1, n_max + 1):
            recs.append(_ref_rec("h(a) <= h(a1)", n,
                                 b0.heights[n - 1], b1.heights[n - 1], tag))
            recs.append(_ref_rec("|mu+(a)| <= |mu+(a1)|", n,
                                 abs(m0.plus[n - 1]), abs(m1.plus[n - 1]),
                                 tag))
            recs.append(_ref_rec("|mu-(a)| <= |mu-(a1)|", n,
                                 abs(m0.minus[n - 1]), abs(m1.minus[n - 1]),
                                 tag))
            recs.append(_ref_rec("|band(a1)| <= |band(a)|", n,
                                 b1.band_length(n), b0.band_length(n), tag))
            recs.append(_ref_rec("|band(a1)| <= |band0(a)|", n,
                                 b1.band_length(n), z0.band_length(n), tag))
    return InequalityReport(kind="monotonicity", records=tuple(recs))


def reference_comb_comparison(bs1, bs2) -> InequalityReport:
    """check_comb_comparison(bs1, bs2) one gap at a time."""
    n_max = min(bs1.n_max, bs2.n_max)
    recs: list[CheckRecord] = []
    bad = [n for n in range(1, n_max + 1)
           if bs1.heights[n - 1] > bs2.heights[n - 1]
           + GUARD_REL * max(1.0, bs2.heights[n - 1])]
    for n in range(1, n_max + 1):
        recs.append(_ref_rec("hypothesis h1 <= h2", n,
                             bs1.heights[n - 1], bs2.heights[n - 1]))
    if bad:
        recs.append(_ref_skip("comparison conclusions", -1,
                              f"height hypothesis fails at n={bad}; "
                              "pair skipped"))
        return InequalityReport(kind="comb_comparison", records=tuple(recs))
    mt1 = effective_masses(bs1)
    mt2 = effective_masses(bs2)
    for n in range(1, n_max + 1):
        recs.append(_ref_rec("|band2| <= |band1|", n,
                             bs2.band_length(n), bs1.band_length(n)))
        recs.append(_ref_rec("|mu1+| <= |mu2+|", n,
                             abs(mt1.plus[n - 1]), abs(mt2.plus[n - 1])))
        recs.append(_ref_rec("|mu1-| <= |mu2-|", n,
                             abs(mt1.minus[n - 1]), abs(mt2.minus[n - 1])))
    return InequalityReport(kind="comb_comparison", records=tuple(recs))

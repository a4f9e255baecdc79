"""Sweep checks for every inequality and monotonicity statement.

Each check is a falsifiable assertion about the computed structure: an
inequality of the paper evaluated on the computed edges, masses and
heights.  Comparisons use a relative guard band of 1e-9 so that true
equalities (degenerate cases) pass; a failure becomes a report record,
never an exception or a silent drop.

Whether every failure signals a bug is not settled.  Of the 450 probe
sectors of perfbench/workloads.py (seeds 1-3, n_max 20), 72 pass the
labelling test and fail a check: 65 at c = 1e-4 fail the merged-band
estimates (both `span` records), 6 at small c (0.0057-0.037) fail the
lowest-band record `mu+ * span <= 16*(n1-n)^2*(lam+ + lam1-)`, which
with lambda measured from lambda0 reads mu0 <= 16, and 1 at c = 1 fails
`degenerate gap: all quantities vanish`.  Open item 4 of ROADMAP.md
owns the verdict: the lambda normalisation, a missing hypothesis or the
estimate itself.

Gap positions enter several bounds through sqrt(lambda); those checks
are stated for structures with the spectral bottom at 0, so the lambda
values are shifted by -lambda0 internally (exactly equivalent to
shifting the potential; heights, masses and lengths are unaffected).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import spectrum as _spec
from .masses import MassTable, effective_masses
from .potential import PotentialSpec, make_potential
from .spectrum import BandStructure, MagneticConfig

GUARD_REL = 1e-9


@dataclass(frozen=True)
class CheckRecord:
    """One inequality instance: lhs <= rhs with slack = rhs - lhs."""

    name: str
    n: int
    lhs: float
    rhs: float
    slack: float
    passed: bool
    skipped: bool = False
    note: str = ""
    extras: tuple[tuple[str, float], ...] = ()


@dataclass(frozen=True)
class InequalityReport:
    kind: str
    records: tuple[CheckRecord, ...]
    shift: float = 0.0

    @property
    def failures(self) -> tuple[CheckRecord, ...]:
        return tuple(r for r in self.records if not r.passed and not r.skipped)

    @property
    def skipped(self) -> tuple[CheckRecord, ...]:
        return tuple(r for r in self.records if r.skipped)

    @property
    def passed_all(self) -> bool:
        return not self.failures

    @property
    def worst_slack(self) -> float:
        active = [r.slack for r in self.records if not r.skipped]
        return min(active) if active else math.inf

    @property
    def checked(self) -> int:
        return sum(1 for r in self.records if not r.skipped)


def _rec(name: str, n: int, lhs: float, rhs: float,
         extras: tuple[tuple[str, float], ...] = (),
         note: str = "") -> CheckRecord:
    guard = GUARD_REL * max(1.0, abs(lhs), abs(rhs))
    return CheckRecord(name=name, n=n, lhs=lhs, rhs=rhs, slack=rhs - lhs,
                       passed=lhs <= rhs + guard, extras=extras, note=note)


def _skip(name: str, n: int, note: str) -> CheckRecord:
    return CheckRecord(name=name, n=n, lhs=math.nan, rhs=math.nan,
                       slack=math.nan, passed=True, skipped=True, note=note)


# ----------------------------------------------------------------------
# per-gap height / mass / gap-length bounds
# ----------------------------------------------------------------------

def check_height_mass_gap(bs: BandStructure,
                          mt: MassTable | None = None) -> InequalityReport:
    """Height/gap/mass inequalities at every gap, plus the comparison of
    the lowest mass with the first open gap's lower-edge mass.

    Raw-variable and scaled-variable families are both checked; the
    scaled values ride along in each record's extras.  The scaled
    quantities live in the momentum plane z = sqrt(lambda): the gap
    length is g = gamma / (z^+ + z^-) = z^+ - z^- and the mass is
    m = 2 z mu (the curvature of z(k) at the edge, so that
    h <= 2 pi |m| and h <= 4 pi sqrt(lambda) |mu| agree).
    """
    if mt is None:
        mt = effective_masses(bs)
    shift = bs.lambda0
    recs: list[CheckRecord] = []
    pi = math.pi
    for n in range(1, bs.n_max + 1):
        if bs.degenerate[n - 1]:
            recs.append(_rec("degenerate gap: all quantities vanish", n,
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

        recs.append(_rec("h <= 3*pi*sqrt(gap*|mu+|/2)", n,
                         h, 3 * pi * math.sqrt(g * abs(mp) / 2), ex))
        recs.append(_rec("h <= 3*pi*sqrt(gap*|mu-|/2)", n,
                         h, 3 * pi * math.sqrt(g * abs(mm) / 2), ex))
        recs.append(_rec("3*pi*sqrt(gap*|mu+|/2) <= 6*pi^2*n*(mu+ - mu-)", n,
                         3 * pi * math.sqrt(g * abs(mp) / 2),
                         6 * pi * pi * n * (mp - mm), ex))
        recs.append(_rec("3*pi*sqrt(gap*|mu-|/2) <= 6*pi^2*n*(mu+ - mu-)", n,
                         3 * pi * math.sqrt(g * abs(mm) / 2),
                         6 * pi * pi * n * (mp - mm), ex))
        recs.append(_rec("gap <= (4*pi*n)^2*(mu+ - mu-)", n,
                         g, (4 * pi * n) ** 2 * (mp - mm), ex))
        recs.append(_rec("gap <= 8*lam+*mu+", n, g, 8 * lp * mp, ex))
        recs.append(_rec("gap <= 8*lam-*|mu-| + 16*lam-*mu-^2", n,
                         g, 8 * lm * abs(mm) + 16 * lm * mm * mm, ex))
        recs.append(_rec("h <= 4*pi*sqrt(lam+)*mu+", n,
                         h, 4 * pi * zp * mp, ex))
        recs.append(_rec("h <= 4*pi*sqrt(lam-)*|mu-|", n,
                         h, 4 * pi * zm * abs(mm), ex))
        recs.append(_rec("h <= pi*sqrt(2*gap*|mu-|)", n,
                         h, pi * math.sqrt(2 * g * abs(mm)), ex))
        recs.append(_rec("h <= 2*pi*sqrt(gap*mu+)", n,
                         h, 2 * pi * math.sqrt(g * mp), ex))
        recs.append(_rec("h^2 <= 2*gap*sqrt(mu+*|mu-|)", n,
                         h * h, 2 * g * math.sqrt(mp * abs(mm)), ex))
        # scaled-variable family
        recs.append(_rec("g/2 <= h", n, gs / 2, h, ex))
        recs.append(_rec("h <= pi*sqrt(2*g*|m+|)", n,
                         h, pi * math.sqrt(2 * gs * abs(msp)), ex))
        recs.append(_rec("h <= pi*sqrt(2*g*|m-|)", n,
                         h, pi * math.sqrt(2 * gs * abs(msm)), ex))
        recs.append(_rec("g <= 2*|m+|", n, gs, 2 * abs(msp), ex))
        recs.append(_rec("g <= 2*|m-|", n, gs, 2 * abs(msm), ex))
        recs.append(_rec("h^2 <= 2*g*sqrt(m+*|m-|)", n,
                         h * h, 2 * gs * math.sqrt(msp * abs(msm)), ex))

    first = next(iter(bs.open_gaps()), None)
    if first is not None:
        recs.append(_rec("-mu(first open)- <= mu0", first,
                         -mt.minus[first - 1], mt.mu0))
    return InequalityReport(kind="height_mass_gap", records=tuple(recs),
                            shift=shift)


# ----------------------------------------------------------------------
# merged-band estimate
# ----------------------------------------------------------------------

def check_merged_band_bound(bs: BandStructure,
                            mt: MassTable | None = None) -> InequalityReport:
    """Both merged-band mass estimates per maximal spectral interval,
    including the trivial single-band case, plus the observed bound on
    the number of merged components."""
    if mt is None:
        mt = effective_masses(bs)
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
        recs.append(_rec("mu+ * span <= 16*(n1-n)^2*(lam+ + lam1-)", n1,
                         mu_lo * span, 16 * count ** 2 * (lam_lo + lam_hi), ex))
        recs.append(_rec("|mu-| * span <= 32*(n1-n)^2*lam1-", n1,
                         abs(mu_hi) * span, 32 * count ** 2 * lam_hi, ex))
        recs.append(_rec("merged components n1-n <= 2", n1,
                         float(count), 2.0, ex))
    return InequalityReport(kind="merged_band", records=tuple(recs),
                            shift=shift)


# ----------------------------------------------------------------------
# monotonicity in potential and magnetic phase
# ----------------------------------------------------------------------

def check_monotonicity(q: PotentialSpec, a_values, n_max: int = 20,
                       N: int = 1, j: int = 0) -> InequalityReport:
    """Monotonicity sweeps over a grid of magnetic phases in [pi/3, pi/2).

    At each phase the structure for q is compared against the zero
    potential (heights and |masses| can only grow, bands only shrink);
    along the grid the same quantities are monotone in the phase.  The
    cross comparison band0(a_i) >= band(a_{i+1}) is checked as well.
    """
    a_list = sorted(float(a) for a in a_values)
    if not a_list:
        raise ValueError("need at least one phase value")
    for a in a_list:
        if not (math.pi / 3 - 1e-12 <= a < math.pi / 2):
            raise ValueError(f"phase {a} outside [pi/3, pi/2)")
    zero = make_potential("zero")
    data = []
    for a in a_list:
        cfg = MagneticConfig(a=a, N=N, j=j)
        bs = _spec.band_structure(q, cfg, n_max, include_flat=False)
        bz = _spec.band_structure(zero, cfg, n_max, include_flat=False)
        data.append((a, bs, effective_masses(bs), bz, effective_masses(bz)))

    recs: list[CheckRecord] = []
    for a, bs, mt, bz, mz in data:
        tag = (("a", a),)
        for n in range(1, n_max + 1):
            recs.append(_rec("h0(a) <= h(a)", n,
                             bz.heights[n - 1], bs.heights[n - 1], tag))
            recs.append(_rec("|mu0+(a)| <= |mu+(a)|", n,
                             abs(mz.plus[n - 1]), abs(mt.plus[n - 1]), tag))
            recs.append(_rec("|mu0-(a)| <= |mu-(a)|", n,
                             abs(mz.minus[n - 1]), abs(mt.minus[n - 1]), tag))
            recs.append(_rec("|band(a)| <= |band0(a)|", n,
                             bs.band_length(n), bz.band_length(n), tag))
    for (a0, b0, m0, z0, _), (a1, b1, m1, _, _) in zip(data, data[1:]):
        tag = (("a_low", a0), ("a_high", a1))
        for n in range(1, n_max + 1):
            recs.append(_rec("h(a) <= h(a1)", n,
                             b0.heights[n - 1], b1.heights[n - 1], tag))
            recs.append(_rec("|mu+(a)| <= |mu+(a1)|", n,
                             abs(m0.plus[n - 1]), abs(m1.plus[n - 1]), tag))
            recs.append(_rec("|mu-(a)| <= |mu-(a1)|", n,
                             abs(m0.minus[n - 1]), abs(m1.minus[n - 1]), tag))
            recs.append(_rec("|band(a1)| <= |band(a)|", n,
                             b1.band_length(n), b0.band_length(n), tag))
            recs.append(_rec("|band(a1)| <= |band0(a)|", n,
                             b1.band_length(n), z0.band_length(n), tag))
    return InequalityReport(kind="monotonicity", records=tuple(recs))


# ----------------------------------------------------------------------
# comb-map comparison (ordered heights => ordered bands and masses)
# ----------------------------------------------------------------------

def check_comb_comparison(bs1: BandStructure,
                          bs2: BandStructure) -> InequalityReport:
    """If the slit heights satisfy h1_n <= h2_n for every computed n,
    then bands of 1 dominate bands of 2 and masses of 1 are dominated.

    A failed height hypothesis skips the pair (reported, not counted as
    a failure of the conclusion).
    """
    n_max = min(bs1.n_max, bs2.n_max)
    recs: list[CheckRecord] = []
    bad = [n for n in range(1, n_max + 1)
           if bs1.heights[n - 1] > bs2.heights[n - 1]
           + GUARD_REL * max(1.0, bs2.heights[n - 1])]
    for n in range(1, n_max + 1):
        recs.append(_rec("hypothesis h1 <= h2", n,
                         bs1.heights[n - 1], bs2.heights[n - 1]))
    if bad:
        recs.append(_skip("comparison conclusions", -1,
                          f"height hypothesis fails at n={bad}; pair skipped"))
        return InequalityReport(kind="comb_comparison", records=tuple(recs))
    mt1 = effective_masses(bs1)
    mt2 = effective_masses(bs2)
    for n in range(1, n_max + 1):
        recs.append(_rec("|band2| <= |band1|", n,
                         bs2.band_length(n), bs1.band_length(n)))
        recs.append(_rec("|mu1+| <= |mu2+|", n,
                         abs(mt1.plus[n - 1]), abs(mt2.plus[n - 1])))
        recs.append(_rec("|mu1-| <= |mu2-|", n,
                         abs(mt1.minus[n - 1]), abs(mt2.minus[n - 1])))
    return InequalityReport(kind="comb_comparison", records=tuple(recs))

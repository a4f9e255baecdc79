"""Sweep checks for every inequality and monotonicity statement.

Each check is a falsifiable assertion about the computed structure: an
inequality of the paper evaluated on the computed edges, masses and
heights.  Comparisons use a relative guard band of 1e-9 so that true
equalities (degenerate cases) pass; a failure becomes a report record,
never an exception or a silent drop.

A check evaluates each inequality at every gap at once: its lhs and rhs
are float64 columns, computed in the order of operations of a loop over
the gaps (so every value is the float that loop gives), and the guard,
`passed` and `skipped` are masks over them.  The verdict of a report
(`passed_all`, `failures`, `worst_slack`, `checked`) is read off those
columns.  Its `records` are a read-only sequence that builds its
`CheckRecord`s when the first of them is read; a sector job that only
asks whether its report passed builds none.

Whether every failure signals a bug is not settled.  Of the 450 probe
sectors of perfbench/workloads.py (seeds 1-3, n_max 20), 72 pass the
labelling test and fail a check: 65 at c = 1e-4 fail the merged-band
estimates (both `span` records), 6 at small c (0.0057-0.037) fail the
lowest-band record `mu+ * span <= 16*(n1-n)^2*(lam+ + lam1-)`, which
with lambda measured from lambda0 reads mu0 <= 16, and 1 at c = 1 fails
`degenerate gap: all quantities vanish`.  Open item 10 of ROADMAP.md
owns the verdict: the lambda normalisation, a missing hypothesis or the
estimate itself.

Gap positions enter several bounds through sqrt(lambda); those checks
are stated for structures with the spectral bottom at 0, so the lambda
values are shifted by -lambda0 internally (exactly equivalent to
shifting the potential; heights, masses and lengths are unaffected).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import spectrum as _spec
from .masses import MassTable, _check_table, effective_masses
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


class _Records(Sequence):
    """The records of a check over its columns (lhs, rhs, slack, passed,
    skipped), built when the first of them is read; labels() gives the
    (name, n, note, extras) of every record.  A slice is a tuple, and the
    view is equal to, hashes like, prints and pickles as the tuple of
    all its records."""

    def __init__(self, columns, labels):
        self.columns, self._labels = columns, labels

    def __len__(self) -> int:
        return self.columns[0].size

    def __getitem__(self, i):
        return self._all[i]

    def __iter__(self):
        return iter(self._all)

    @cached_property
    def _all(self) -> tuple[CheckRecord, ...]:
        return tuple(
            CheckRecord(name, n, lhs, rhs, slack, passed, skipped, note, ex)
            for (name, n, note, ex), lhs, rhs, slack, passed, skipped
            in zip(self._labels(), *(c.tolist() for c in self.columns)))

    def __eq__(self, other):
        return self._all == other

    def __hash__(self):
        return hash(self._all)

    def __repr__(self) -> str:
        return repr(self._all)

    def __reduce__(self):  # pickled as the tuple of its records
        return tuple, (self._all,)


@dataclass(frozen=True)
class InequalityReport:
    """The records of one check and lambda0 (shift) where the check
    measures lambda from it.  A check's own records are a read-only
    sequence that builds its CheckRecords when the first of them is
    read, and the verdict properties read its columns, so that
    passed_all, checked and worst_slack build none, and failures none
    unless one fails; the records of a report made with another
    sequence (a tuple, say, through dataclasses.replace) are read one by
    one."""

    kind: str
    records: Sequence[CheckRecord]
    shift: float = 0.0

    def _columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The slack, passed-or-skipped and skipped columns of the
        records."""
        if isinstance(self.records, _Records):
            return self.records.columns[2:]
        return (np.array([r.slack for r in self.records], float),
                np.array([r.passed or r.skipped for r in self.records], bool),
                np.array([r.skipped for r in self.records], bool))

    def _where(self, mask: np.ndarray) -> tuple[CheckRecord, ...]:
        return tuple(self.records[i] for i in np.flatnonzero(mask).tolist())

    @property
    def failures(self) -> tuple[CheckRecord, ...]:
        return self._where(~self._columns()[1])

    @property
    def skipped(self) -> tuple[CheckRecord, ...]:
        return self._where(self._columns()[2])

    @property
    def passed_all(self) -> bool:
        return bool(self._columns()[1].all())

    @property
    def worst_slack(self) -> float:
        # min() of floats, for its order with nan
        slack, _, skipped = self._columns()
        return min(slack[~skipped].tolist(), default=math.inf)

    @property
    def checked(self) -> int:
        return int(np.count_nonzero(~self._columns()[2]))


def _report(kind: str, lhs: np.ndarray, rhs: np.ndarray, labels,
            shift: float = 0.0, skip: np.ndarray | bool = False
            ) -> InequalityReport:
    """The report of lhs <= rhs, record by record, with the guard
    GUARD_REL * max(1, |lhs|, |rhs|) (nan ignored, as max() of floats
    ignores it after 1.0); a skipped record passes."""
    skip = np.full(lhs.size, skip)
    with np.errstate(all="ignore"):  # float arithmetic: inf and nan
        guard = GUARD_REL * np.fmax(np.fmax(1.0, np.abs(lhs)), np.abs(rhs))
        columns = (lhs, rhs, rhs - lhs, (lhs <= rhs + guard) | skip, skip)
    return InequalityReport(kind, _Records(columns, labels), shift)


def _table(rows) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """The names, lhs and rhs of rows (name, lhs column, rhs column) over
    the gaps; lhs and rhs have a row per gap and a column per name, so
    that raveled they hold the records in the order of a loop over the
    gaps."""
    names, lhs, rhs = zip(*rows)
    return names, np.array(lhs).T, np.array(rhs).T


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
    h <= 2 pi |m| and h <= 4 pi sqrt(lambda) |mu| agree).  A degenerate
    gap gives one record, h <= 0.  A negative square root raises
    ValueError as math.sqrt does, at the first open gap that has one.
    """
    mt = _check_table(bs, mt, bs.q, bs.cfg, bs.n_max)
    shift, pi = bs.lambda0, math.pi
    h, plus, minus, mp, mm, deg = map(np.array, (
        bs.heights, bs.plus, bs.minus, mt.plus, mt.minus, bs.degenerate))
    ns = np.arange(1, bs.n_max + 1)
    with np.errstate(all="ignore"):  # the loop's errors are raised below
        g = plus - minus
        lp, lm = lam = np.array((plus, minus)) - shift
        zp, zm = z = np.sqrt(lam)
        gs = g / (zp + zm)
        msp, msm = 2.0 * z * (mp, mm)
        amm = np.abs(mm)
        # the arguments of math.sqrt in the loop
        rad = np.array((g * np.abs(mp) / 2, g * amm / 2, 2 * g * amm, g * mp,
                        mp * amm, 2 * gs * np.abs(msp), 2 * gs * np.abs(msm),
                        msp * np.abs(msm)))
        bad = ((np.vstack((lam, rad)) < 0).any(axis=0) | (zp + zm == 0)) & ~deg
        if bad.any():  # the loop's error at the first open gap it fails at
            if zp[bad.argmax()] + zm[bad.argmax()] == 0:
                raise ZeroDivisionError("float division by zero")
            raise ValueError("math domain error")
        r = np.sqrt(rad)
        root_p, root_m = 3 * pi * r[:2]
        dmu = 6 * pi * pi * ns * (mp - mm)
        # x ** 2 is libm's pow, one n at a time as the loop took it
        sq = np.array([(4 * pi * n) ** 2 for n in ns.tolist()])
        names, lhs, rhs = _table((
            # a degenerate gap keeps this record alone, as h <= 0
            ("h <= 3*pi*sqrt(gap*|mu+|/2)", h, np.where(deg, 0.0, root_p)),
            ("h <= 3*pi*sqrt(gap*|mu-|/2)", h, root_m),
            ("3*pi*sqrt(gap*|mu+|/2) <= 6*pi^2*n*(mu+ - mu-)", root_p, dmu),
            ("3*pi*sqrt(gap*|mu-|/2) <= 6*pi^2*n*(mu+ - mu-)", root_m, dmu),
            ("gap <= (4*pi*n)^2*(mu+ - mu-)", g, sq * (mp - mm)),
            ("gap <= 8*lam+*mu+", g, 8 * lp * mp),
            ("gap <= 8*lam-*|mu-| + 16*lam-*mu-^2", g,
             8 * lm * amm + 16 * lm * mm * mm),
            ("h <= 4*pi*sqrt(lam+)*mu+", h, 4 * pi * zp * mp),
            ("h <= 4*pi*sqrt(lam-)*|mu-|", h, 4 * pi * zm * amm),
            ("h <= pi*sqrt(2*gap*|mu-|)", h, pi * r[2]),
            ("h <= 2*pi*sqrt(gap*mu+)", h, 2 * pi * r[3]),
            ("h^2 <= 2*gap*sqrt(mu+*|mu-|)", h * h, 2 * g * r[4]),
            # scaled-variable family
            ("g/2 <= h", gs / 2, h),
            ("h <= pi*sqrt(2*g*|m+|)", h, pi * r[5]),
            ("h <= pi*sqrt(2*g*|m-|)", h, pi * r[6]),
            ("g <= 2*|m+|", gs, 2 * np.abs(msp)),
            ("g <= 2*|m-|", gs, 2 * np.abs(msm)),
            ("h^2 <= 2*g*sqrt(m+*|m-|)", h * h, 2 * gs * r[7])))
    keep = ~deg[:, None] | (np.arange(len(names)) == 0)
    first = [int(deg.argmin()) + 1] if not deg.all() else []
    lhs = np.concatenate((lhs[keep], [-mt.minus[n - 1] for n in first]))
    rhs = np.concatenate((rhs[keep], [mt.mu0 for _ in first]))

    def labels():
        scaled = zip(*(v.tolist() for v in (g, gs, msp, msm, zp, zm)))
        out = []
        for n, closed, values in zip(ns.tolist(), bs.degenerate, scaled):
            ex = tuple(zip(("gap", "gap_scaled", "mass_scaled_plus",
                            "mass_scaled_minus", "z_plus", "z_minus"), values))
            out += ([("degenerate gap: all quantities vanish", n, "", ())]
                    if closed else [(name, n, "", ex) for name in names])
        return out + [("-mu(first open)- <= mu0", n, "", ()) for n in first]

    return _report("height_mass_gap", lhs, rhs, labels, shift)


# ----------------------------------------------------------------------
# merged-band estimate
# ----------------------------------------------------------------------

def check_merged_band_bound(bs: BandStructure,
                            mt: MassTable | None = None) -> InequalityReport:
    """Both merged-band mass estimates per maximal spectral interval,
    including the trivial single-band case, plus the observed bound on
    the number of merged components."""
    mt = _check_table(bs, mt, bs.q, bs.cfg, bs.n_max)
    # n, n1 as floats: the counts and indices are small integers
    n, n1, lo, hi = np.array(bs.merged_intervals(), float).reshape(-1, 4).T
    with np.errstate(all="ignore"):
        lam_lo, lam_hi = lo - bs.lambda0, hi - bs.lambda0
        span = lam_hi - lam_lo
        count = n1 - n
        names, lhs, rhs = _table((
            ("mu+ * span <= 16*(n1-n)^2*(lam+ + lam1-)",
             np.array((mt.mu0,) + mt.plus)[n.astype(int)] * span,
             16 * count ** 2 * (lam_lo + lam_hi)),
            ("|mu-| * span <= 32*(n1-n)^2*lam1-",
             np.abs(mt.minus)[n1.astype(int) - 1] * span,
             32 * count ** 2 * lam_hi),
            ("merged components n1-n <= 2", count, np.full(count.size, 2.0))))

    def labels():
        return [(name, int(e), "", (("n_start", s), ("n_end", e), ("span", w)))
                for s, e, w in zip(n.tolist(), n1.tolist(), span.tolist())
                for name in names]

    return _report("merged_band", lhs.ravel(), rhs.ravel(), labels, bs.lambda0)


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
    ns = range(1, n_max + 1)
    data = []  # per phase, (h, |mu+|, |mu-|, band) of q and of zero
    for a in a_list:
        cfg = MagneticConfig(a=a, N=N, j=j)
        bss = [_spec.band_structure(p, cfg, n_max) for p in (q, zero)]
        data.append((a, *[(bs.heights, *np.abs((mt.plus, mt.minus)),
                           [bs.band_length(n) for n in ns])
                          for bs, mt in zip(bss, map(effective_masses, bss))]))

    # per phase q against the zero potential, per pair a against a1
    blocks = [((("a", a),), _table((
        ("h0(a) <= h(a)", z[0], s[0]),
        ("|mu0+(a)| <= |mu+(a)|", z[1], s[1]),
        ("|mu0-(a)| <= |mu-(a)|", z[2], s[2]),
        ("|band(a)| <= |band0(a)|", s[3], z[3])))) for a, s, z in data]
    blocks += [((("a_low", a0), ("a_high", a1)), _table((
        ("h(a) <= h(a1)", s0[0], s1[0]),
        ("|mu+(a)| <= |mu+(a1)|", s0[1], s1[1]),
        ("|mu-(a)| <= |mu-(a1)|", s0[2], s1[2]),
        ("|band(a1)| <= |band(a)|", s1[3], s0[3]),
        ("|band(a1)| <= |band0(a)|", s1[3], z0[3]))))
        for (a0, s0, z0), (a1, s1, _) in zip(data, data[1:])]
    lhs, rhs = (np.concatenate([table[k].ravel() for _, table in blocks])
                for k in (1, 2))

    def labels():
        return [(name, n, "", tag) for tag, (names, _, _) in blocks
                for n in ns for name in names]

    return _report("monotonicity", lhs, rhs, labels)


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
    ns = range(1, n_max + 1)
    h1, h2 = np.array(bs1.heights[:n_max]), np.array(bs2.heights[:n_max])
    bad = np.flatnonzero(h1 > h2 + GUARD_REL * np.fmax(1.0, h2)) + 1
    labels = [("hypothesis h1 <= h2", n, "", ()) for n in ns]
    if bad.size:
        note = f"height hypothesis fails at n={bad.tolist()}; pair skipped"
        labels.append(("comparison conclusions", -1, note, ()))
        return _report("comb_comparison", np.append(h1, math.nan),
                       np.append(h2, math.nan), lambda: labels,
                       skip=np.arange(n_max + 1) == n_max)
    mt1, mt2 = map(effective_masses, (bs1, bs2))
    names, lhs, rhs = _table((
        ("|band2| <= |band1|", [bs2.band_length(n) for n in ns],
         [bs1.band_length(n) for n in ns]),
        ("|mu1+| <= |mu2+|", np.abs(mt1.plus[:n_max]),
         np.abs(mt2.plus[:n_max])),
        ("|mu1-| <= |mu2-|", np.abs(mt1.minus[:n_max]),
         np.abs(mt2.minus[:n_max]))))
    labels += [(name, n, "", ()) for n in ns for name in names]
    return _report("comb_comparison", np.concatenate((h1, lhs.ravel())),
                   np.concatenate((h2, rhs.ravel())), lambda: labels)

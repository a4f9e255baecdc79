"""Seeded inputs, jobs and per-job output checks for the three workloads.

A job is one user request.  ``run()`` does the request through the public
API and returns its output; ``check(output)`` returns ``None`` when the
output is correct and otherwise a failure kind (see ``KINDS``).  Checks
use only the public API and tolerances no looser than the acceptance
suite in ``tests/``.

Inputs come from ``random.Random`` keyed by the workload name and the
seed, so the same seed gives the same inputs on every machine.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import random
import time
from dataclasses import dataclass

import nanoband
from nanoband import cli

# Tolerances, each taken from the acceptance suite.
TRACE_TOL = 1e-3        # criterion 3: |extrapolated sum of masses - 2|
SERIES_TOL = 1e-3       # criterion 5: per-edge mass series residual
ORDER_TOL = 1e-12       # test_edge_labeling_and_interlacing: interlacing
CRIT_POS_TOL = 1e-9     # same test: critical point inside its gap
CRIT_TOL = 1e-12        # same test: (-1)^n xi(critical) >= 1
EDGE_TOL = 1e-10        # same test: xi(edge) = (-1)^n
ORACLE_TOL = 1e-7       # criterion 9: |cos k - xi| from the cell system
ASYMPTOTICS_TOL = 1e-3  # criterion 6: constant term of k at y = 200
KPRIME_TOL = 0.05       # criterion 6: recovered q0, relative
# cos(k) against xi for CLI dispersion rows, relative to max(1, |xi|):
# acos/acosh and cos/cosh round-trip to a few ulps.
DISPERSION_TOL = 1e-10

#: Failure kinds, in report order.  Exceptions of other types are "other".
KINDS = ("RootBracketError", "PurePointRegimeError", "AssertionError",
         "inequality", "check_mismatch", "other")

WORKLOADS = ("deep-tables", "sector-sweep", "grid-oracle")

# Generic sectors keep |cos a_j| away from 0 (pure point), 1/2 (odd gaps
# nearly closed) and 1 (even gaps nearly closed).  The program
# mislabels or fails to bracket some sectors near those phases and some
# potentials beyond |v| ~ 20; the traced sector-sweep run measures that
# part of the class separately (make_probe).
GENERIC_C = (0.15, 0.9)
HALF_C_GAP = 0.05
MAX_N = 8


def failure_kind(exc: BaseException) -> str:
    name = type(exc).__name__
    return name if name in KINDS else "other"


# ----------------------------------------------------------------------
# input generators
# ----------------------------------------------------------------------

class Stats:
    """Time the generator spent projecting callables onto 64 pieces."""

    def __init__(self):
        self.project_s = 0.0


def _pieces(rng: random.Random, m: int, vmax: float):
    return nanoband.make_potential(
        [(rng.uniform(0.2, 1.0), rng.uniform(-vmax, vmax)) for _ in range(m)])


def _projection(rng: random.Random, vmax: float, stats: Stats):
    """A smooth three-harmonic potential projected onto 64 pieces."""
    amps = [rng.uniform(-vmax, vmax) / 3.0 for _ in range(3)]
    phases = [rng.uniform(0.0, 2.0 * math.pi) for _ in range(3)]

    def q(t: float) -> float:
        return sum(a * math.cos(2.0 * math.pi * (k + 1) * t + p)
                   for k, (a, p) in enumerate(zip(amps, phases)))

    t0 = time.perf_counter()
    spec = nanoband.make_potential(q, mesh=64)
    stats.project_s += time.perf_counter() - t0
    return spec


def _any_sector(rng: random.Random) -> nanoband.MagneticConfig:
    """A seeded sector: phase a or field B, N <= MAX_N, any j."""
    n = rng.randint(1, MAX_N)
    j = rng.randrange(n)
    if rng.random() < 0.5:
        return nanoband.MagneticConfig(a=rng.uniform(0.0, math.pi), N=n, j=j)
    return nanoband.MagneticConfig.from_field(rng.uniform(0.0, 8.0), n, j)


def _generic_sector(rng: random.Random) -> nanoband.MagneticConfig:
    while True:
        cfg = _any_sector(rng)
        c = cfg.c_abs
        if GENERIC_C[0] <= c <= GENERIC_C[1] and abs(c - 0.5) >= HALF_C_GAP:
            return cfg


def _sector_at(rng: random.Random, c: float) -> nanoband.MagneticConfig:
    """A seeded N/j sector whose phase a_j has cos a_j = c."""
    n = rng.randint(1, MAX_N)
    j = rng.randrange(n)
    return nanoband.MagneticConfig(a=math.acos(c) - math.pi * j / n, N=n, j=j)


# deep-tables: depth scaled by piece count so the jobs cost about the same
DEEP_POOL = 16
DEEP_DEPTH = {1: 2400, 2: 1400, 3: 1000}
# sector-sweep: every SECTOR_PROJ_EVERY-th job is a 64-piece projection
SECTOR_POOL = 96
SECTOR_N_MAX = 20
SECTOR_VMAX = 10.0
SECTOR_PROJ_EVERY = 8
# the traced sector-sweep run also measures the whole stated class
PROBE_SIZE = 150
PROBE_VMAX = 150.0
PROBE_PHASES = ("generic", "c~1", "c=1/2", "c=1e-4", "c=1e-6", "generic")
PROBE_C = {"c~1": 1.0 - 1e-9, "c=1/2": 0.5, "c=1e-4": 1e-4, "c=1e-6": 1e-6}
# grid-oracle: CLI requests over a few hundred lambda points; the last
# two jobs of every GRID_PROJ_EVERY (one per command) use a 64-piece
# projection, so the latency tail is set by the per-piece jet cost
GRID_POOL = 64
GRID_POINTS = 300
GRID_ASYMPTOTICS_EVERY = 4
GRID_PROJ_EVERY = 32
GRID_VMAX = 5.0


def make_pool(workload: str, seed: int, out_dir: str = "."):
    """The workload's jobs for this seed, and the generator's Stats."""
    rng = random.Random(f"perfbench/{workload}/{seed}")
    stats = Stats()
    if workload == "deep-tables":
        jobs = [_deep_job(rng, i) for i in range(DEEP_POOL)]
    elif workload == "sector-sweep":
        jobs = [SectorJob(
            _projection(rng, SECTOR_VMAX, stats)
            if i % SECTOR_PROJ_EVERY == 0
            else _pieces(rng, 1 + i % 6, SECTOR_VMAX),
            _generic_sector(rng)) for i in range(SECTOR_POOL)]
    elif workload == "grid-oracle":
        out = os.path.join(out_dir, "nanoband-out.json")
        jobs = [_grid_job(rng, i, out, stats) for i in range(GRID_POOL)]
    else:
        raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")
    return jobs, stats


def make_probe(seed: int):
    """Sectors spanning the whole stated class: 1-6 pieces up to
    |v| = 150 plus 64-piece projections, generic phases and
    c ~ 1, 1/2, 1e-4, 1e-6.  The program is expected to fail on
    part of it."""
    rng = random.Random(f"perfbench/sector-probe/{seed}")
    stats = Stats()
    jobs = []
    for i in range(PROBE_SIZE):
        vmax = math.exp(rng.uniform(0.0, math.log(PROBE_VMAX)))
        q = (_projection(rng, vmax, stats) if i % SECTOR_PROJ_EVERY == 0
             else _pieces(rng, rng.randint(1, 6), vmax))
        phase = PROBE_PHASES[i % len(PROBE_PHASES)]
        cfg = (_any_sector(rng) if phase == "generic"
               else _sector_at(rng, PROBE_C[phase]))
        jobs.append(SectorJob(q, cfg))
    return jobs


def _deep_job(rng: random.Random, i: int) -> "DeepJob":
    if i % 4 == 0:
        q = nanoband.make_potential("two-step")
    elif i % 4 == 1:
        q = nanoband.make_potential("three-step")
    else:
        q = _pieces(rng, 1 + i % 3, 5.0)
    return DeepJob(q, _generic_sector(rng), DEEP_DEPTH[len(q.pieces)])


def _grid_job(rng: random.Random, i: int, out: str,
              stats: Stats) -> "GridJob":
    if i % GRID_PROJ_EVERY >= GRID_PROJ_EVERY - 2:
        pieces = [list(p) for p in _projection(rng, GRID_VMAX, stats).pieces]
    else:
        pieces = [[rng.uniform(0.2, 1.0), rng.uniform(-GRID_VMAX, GRID_VMAX)]
                  for _ in range(1 + (i // 2) % 3)]
    cfg = _generic_sector(rng)
    lo = rng.uniform(-5.0, 0.0)
    hi = rng.uniform(30.0, 50.0)
    return GridJob("dispersion" if i % 2 == 0 else "oracle", pieces, cfg,
                   f"{lo!r}:{hi!r}:{GRID_POINTS}", out,
                   i % GRID_ASYMPTOTICS_EVERY == 0)


# ----------------------------------------------------------------------
# checks shared by the structure-building jobs
# ----------------------------------------------------------------------

def labelling_holds(q, cfg, bs) -> bool:
    """The labelling invariant of a structure.

    No anomalies; edges interlace; each degenerate flag matches a
    zero-width gap; each critical point lies in its gap with
    (-1)^n xi >= 1 there; xi(edge) = (-1)^n at every edge, the bottom
    included.
    """
    if bs.anomalies:
        return False
    seq = [bs.lambda0]
    for lo, hi in zip(bs.minus, bs.plus):
        seq += (lo, hi)
    if any(a > b + ORDER_TOL for a, b in zip(seq, seq[1:])):
        return False
    s = bs.xi_sign
    if abs(s * nanoband.xi(q, cfg, bs.lambda0)[0] - 1.0) >= EDGE_TOL:
        return False
    for n in range(1, bs.n_max + 1):
        t = -1.0 if n % 2 else 1.0
        lo, hi = bs.minus[n - 1], bs.plus[n - 1]
        crit = bs.critical[n - 1]
        if (bs.degenerate[n - 1] != (lo == hi)
                or not lo - CRIT_POS_TOL <= crit <= hi + CRIT_POS_TOL
                or t * s * nanoband.xi(q, cfg, crit)[0] < 1.0 - CRIT_TOL):
            return False
        for edge in (lo, hi):
            if abs(s * nanoband.xi(q, cfg, edge)[0] - t) >= EDGE_TOL:
                return False
    return True


# ----------------------------------------------------------------------
# jobs
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DeepOut:
    bs: nanoband.BandStructure
    mt: nanoband.MassTable
    trace: object
    series: tuple


@dataclass(frozen=True)
class DeepJob:
    """One labelled structure with flat bands, to depth n_max; its mass
    table, trace identity, and mass series at four open edges."""

    q: nanoband.PotentialSpec
    cfg: nanoband.MagneticConfig
    n_max: int

    def run(self) -> DeepOut:
        bs = nanoband.band_structure(self.q, self.cfg, self.n_max)
        mt = nanoband.effective_masses(bs)
        trace = nanoband.verify_trace_identity(mt)
        edges = [(0, +1)] + [(n, sign) for n, sign in
                             zip(bs.open_gaps(), (+1, -1, +1))]
        series = tuple(nanoband.verify_mass_series(mt, bs, n, sign)
                       for n, sign in edges)
        return DeepOut(bs, mt, trace, series)

    def check(self, out: DeepOut) -> str | None:
        bs = out.bs
        if (bs.n_max != self.n_max or len(bs.flat_bands) != self.n_max
                or any(a >= b for a, b in zip(bs.flat_bands,
                                              bs.flat_bands[1:]))):
            return "check_mismatch"
        if not labelling_holds(self.q, self.cfg, bs):
            return "check_mismatch"
        if not out.trace.residual < TRACE_TOL:
            return "check_mismatch"
        if len(out.series) != 4 or not all(r.residual < SERIES_TOL
                                           for r in out.series):
            return "check_mismatch"
        return None


@dataclass(frozen=True)
class SectorOut:
    bs: nanoband.BandStructure
    reports: tuple


@dataclass(frozen=True)
class SectorJob:
    """One magnetic sector at n_max = 20: structure, masses and both
    inequality reports."""

    q: nanoband.PotentialSpec
    cfg: nanoband.MagneticConfig

    def run(self) -> SectorOut:
        bs = nanoband.band_structure(self.q, self.cfg, SECTOR_N_MAX)
        mt = nanoband.effective_masses(bs)
        return SectorOut(bs, (nanoband.check_height_mass_gap(bs, mt),
                              nanoband.check_merged_band_bound(bs, mt)))

    def check(self, out: SectorOut) -> str | None:
        if (out.bs.n_max != SECTOR_N_MAX
                or not labelling_holds(self.q, self.cfg, out.bs)):
            return "check_mismatch"
        if not all(r.passed_all for r in out.reports):
            return "inequality"
        return None


@dataclass(frozen=True)
class GridOut:
    code: int
    bytes_out: int
    asymptotics: tuple | None


@dataclass(frozen=True)
class GridJob:
    """One in-process CLI request (dispersion or oracle) writing JSON to
    a file; with ``asymptotics`` also the negative-axis checks of k."""

    command: str
    pieces: list
    cfg: nanoband.MagneticConfig
    grid: str
    out: str
    asymptotics: bool

    def argv(self) -> list[str]:
        return [self.command, "--q", json.dumps(self.pieces),
                "--a", repr(self.cfg.a), "--N", str(self.cfg.N),
                "--j", str(self.cfg.j), f"--grid={self.grid}",
                "--output", self.out]

    def potential(self) -> nanoband.PotentialSpec:
        return nanoband.make_potential([tuple(p) for p in self.pieces])

    def run(self) -> GridOut:
        code = cli.main(self.argv())
        extra = None
        if self.asymptotics:
            q = self.potential()
            extra = (nanoband.verify_deep_asymptotics(q, self.cfg,
                                                      [50.0, 100.0, 200.0]),
                     nanoband.verify_kprime_squared(q, self.cfg, [-1e4]))
        return GridOut(code, os.path.getsize(self.out), extra)

    def check(self, out: GridOut) -> str | None:
        if out.code != 0:
            return "check_mismatch"
        try:
            with open(self.out, encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, ValueError):
            return "check_mismatch"
        if doc.get("command") != self.command:
            return "check_mismatch"
        q = self.potential()
        res = doc["result"]
        if self.command == "dispersion":
            ok = self._dispersion_ok(q, res["rows"])
        else:
            ok = (res["max_deviation"] < ORACLE_TOL
                  and not res["membership_mismatches"]
                  and res["membership_checked"] > 0
                  and res["points"] + len(res["skipped_near_flat_bands"])
                  == GRID_POINTS)
        if ok and out.asymptotics is not None:
            deep, kp = out.asymptotics
            target = math.log(9.0 / (8.0 * self.cfg.c_abs))
            ok = (deep.resolved == "log(9/(8c))"
                  and abs(deep.const_estimates[-1] - target) < ASYMPTOTICS_TOL
                  and kp.relative_error < KPRIME_TOL)
        return None if ok else "check_mismatch"

    def _dispersion_ok(self, q, rows) -> bool:
        """cos k = xi at every row, and Re k never decreases."""
        if len(rows) != GRID_POINTS:
            return False
        s = math.copysign(1.0, self.cfg.c_j)
        prev = -math.inf
        for row in rows:
            k = complex(row["re_k"], row["im_k"])
            x = s * nanoband.xi(q, self.cfg, row["lambda"])[0]
            if abs(cmath.cos(k) - x) > DISPERSION_TOL * max(1.0, abs(x)):
                return False
            if k.real < prev:
                return False
            prev = k.real
        return True


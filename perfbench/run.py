#!/usr/bin/env python3
"""nanoband benchmark: run one seeded workload, check every job, print metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the package is imported from its
``src`` directory.  Each workload is a closed loop with one caller in one
process: the next job starts when the previous one has finished.

``--trace 0`` cycles through the workload's seeded jobs for ``--seconds``
and reports the end-to-end metrics.  ``--trace 1`` runs every job once
untraced and once traced (a fixed job set, so counts repeat exactly at a
fixed seed) and reports the per-layer metrics.  Human-readable lines come
first; the last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".perfbench-out"

#: Fresh interpreters whose median set-up time is reported.
SETUP_PROBES = 7
#: Latency tail: the highest percentile with this many samples beyond it.
TAIL_BEYOND = 10

END_TO_END = (
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

SHARE_LAYERS = ("potential", "monodromy", "rootfind", "spectrum", "masses",
                "quasimomentum", "verifier", "floquet_oracle", "cli", "bench")

PER_LAYER = (
    ("monodromy.transfer_calls", "count"),
    ("monodromy.transfer_s", "s"),
    ("monodromy.transfer_us.pieces_1-3", "us"),
    ("monodromy.transfer_us.pieces_64", "us"),
    ("monodromy.dirichlet_s", "s"),
    ("rootfind.solve_calls", "count"),
    ("rootfind.solve_evals", "count"),
    ("rootfind.scan_evals", "count"),
    ("rootfind.expand_evals", "count"),
    ("rootfind.evals_per_gap", "evals/gap"),
    ("spectrum.structures", "count"),
    ("spectrum.gaps", "count"),
    ("spectrum.band_structure_s", "s"),
    ("masses.effective_masses_s", "s"),
    ("masses.identity_s", "s"),
    ("verifier.check_s", "s"),
    ("verifier.records", "count"),
    ("verifier.failed_records", "count"),
    ("quasimomentum.k_eval_calls", "count"),
    ("quasimomentum.k_eval_us", "us"),
    ("quasimomentum.asymptotics_s", "s"),
    ("floquet_oracle.points", "count"),
    ("floquet_oracle.us_per_point", "us"),
    ("floquet_oracle.skipped", "count"),
    ("cli.commands", "count"),
    ("cli.bytes_out", "bytes"),
    ("potential.project_s", "s"),
    ("setup.import_s", "s"),
) + tuple((f"{layer}.self_s", "s") for layer in SHARE_LAYERS) + tuple(
    (f"{layer}.self_share", "ratio") for layer in SHARE_LAYERS) + (
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.residual_s", "s"),
    ("jobs.attempted", "count"),
    ("jobs.error_rate", "ratio"),
    ("probe.attempted", "count"),
    ("probe.error_rate", "ratio"),
) + tuple((f"probe.failed.{kind}", "count") for kind in (
    "RootBracketError", "PurePointRegimeError", "AssertionError",
    "inequality", "check_mismatch", "other"))


def import_workloads():
    """Import the workload module against this checkout's ``src``;
    exit non-zero when the checkout holds no package source."""
    if not (SRC / "nanoband" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC / 'nanoband'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    import workloads
    return workloads


def setup_probes(workload: str, seed: int) -> list[dict]:
    """Set-up measurements from SETUP_PROBES fresh interpreters."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload,
             str(seed)], cwd=ROOT, capture_output=True, text=True,
            timeout=120, check=True)
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


class Outcomes:
    """Latencies of passed jobs and failure counts by kind."""

    def __init__(self, failure_kind):
        self.failure_kind = failure_kind
        self.latencies: list[float] = []
        self.failures: Counter = Counter()
        self.examples: dict[str, str] = {}
        self.attempted = 0
        self.check_s = 0.0
        self.bytes_out = 0

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def run(self, job, tracer=None) -> None:
        """Run one job, then check its output outside the timed part."""
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = job.run()
            else:
                out = tracer.call("bench.job", job.run)
        except Exception as exc:  # every failure is counted, never fatal
            t1 = time.perf_counter()
            kind = self.failure_kind(exc)
            self.examples.setdefault(kind, f"{type(exc).__name__}: {exc}")
        else:
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.paused = True
            try:
                kind = job.check(out)
            finally:
                if tracer is not None:
                    tracer.paused = False
            if kind:
                self.examples.setdefault(kind, f"{job!r:.300}")
            self.bytes_out += getattr(out, "bytes_out", 0)
        self.check_s += time.perf_counter() - t1
        self.attempted += 1
        if kind:
            self.failures[kind] += 1
        else:
            self.latencies.append(t1 - t0)

    def run_pass(self, jobs, tracer=None) -> float:
        """Every job once; wall time of the pass without the checks."""
        check0 = self.check_s
        start = time.perf_counter()
        for job in jobs:
            self.run(job, tracer)
        return time.perf_counter() - start - (self.check_s - check0)


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile of the samples that has
    at least TAIL_BEYOND samples beyond it (the maximum if too few)."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def timed_run(jobs, seconds: float, out: Outcomes) -> tuple[dict, str]:
    """End-to-end metrics of a closed loop over jobs, and a note on the
    tail (its percentile and sample count)."""
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        out.run(jobs[i % len(jobs)])
        i += 1
    wall = time.perf_counter() - start - out.check_s
    lat = out.latencies
    if not lat:
        return {}, ""
    tail_s, pct = tail(lat)
    return {
        "jobs_per_s": len(lat) / wall,
        "job_p50_ms": 1e3 * statistics.median(lat),
        "job_tail_ms": 1e3 * tail_s,
    }, f"p{pct:.1f} of {len(lat)} passed jobs"


def traced_run(workloads, workload: str, seed: int, jobs, out: Outcomes,
               spans_path: Path, limit: int | None) -> tuple[dict, dict]:
    """Per-layer metrics of one untraced and one traced pass over jobs,
    and the first probe failure of each kind."""
    import tracer as tracing

    untraced = out.run_pass(jobs)
    before = (out.attempted, out.failed, out.bytes_out)
    tr = tracing.Tracer()
    with tr:
        wall = out.run_pass(jobs, tr)
    attempted = out.attempted - before[0]
    failed = out.failed - before[1]
    spans_path.parent.mkdir(exist_ok=True)
    tr.dump(spans_path)

    s = tracing.summarize(tr)
    selfs = {layer.lstrip("_"): v for layer, v in s.pop("self").items()}
    m = dict(s)
    m["cli.bytes_out"] = out.bytes_out - before[2]
    for layer in SHARE_LAYERS:
        m[f"{layer}.self_s"] = selfs[layer]
        m[f"{layer}.self_share"] = selfs[layer] / wall if wall else 0.0
    m["trace.wall_s"] = wall
    m["trace.untraced_wall_s"] = untraced
    m["trace.overhead_ratio"] = wall / untraced if untraced else 0.0
    m["trace.residual_s"] = wall - sum(selfs.values())
    m["jobs.attempted"] = attempted
    m["jobs.error_rate"] = failed / attempted

    probe = Outcomes(workloads.failure_kind)
    if workload == "sector-sweep":
        probe.run_pass(workloads.make_probe(seed)[:limit])
    m["probe.attempted"] = probe.attempted
    m["probe.error_rate"] = (probe.failed / probe.attempted
                             if probe.attempted else 0.0)
    for kind in workloads.KINDS:
        m[f"probe.failed.{kind}"] = probe.failures[kind]
    return m, probe.examples


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--jobs", type=int, default=None,
                    help="use only the first JOBS jobs of the workload "
                         "and of the probe (smoke tests)")
    args = ap.parse_args(argv)

    workloads = import_workloads()
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"known: {', '.join(workloads.WORKLOADS)}")
    import numpy

    setups = setup_probes(args.workload, args.seed)
    out = Outcomes(workloads.failure_kind)
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        jobs, _ = workloads.make_pool(args.workload, args.seed, tmp)
        jobs = jobs[:args.jobs] if args.jobs else jobs
        # one untimed job pays for lazy imports and first-call costs
        Outcomes(workloads.failure_kind).run(jobs[0])
        if args.trace:
            spans = SPANS_DIR / f"spans-{args.workload}.jsonl.gz"
            m, probe_examples = traced_run(workloads, args.workload,
                                           args.seed, jobs, out, spans,
                                           args.jobs)
            tail_note = ""
            m["setup.import_s"] = statistics.median(
                p["import_s"] for p in setups)
            m["potential.project_s"] = statistics.median(
                p["project_s"] for p in setups)
            table = PER_LAYER
        else:
            m, tail_note = timed_run(jobs, args.seconds, out)
            probe_examples = {}
            m["setup_s"] = statistics.median(p["setup_s"] for p in setups)
            m["peak_rss_mb"] = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
            table = END_TO_END

    print(f"# perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} jobs={len(jobs)}")
    print(f"# machine: nproc={os.cpu_count()} "
          f"python={platform.python_version()} numpy={numpy.__version__} "
          f"platform={platform.platform()}")
    print("# setup_s samples: "
          + " ".join(f"{p['setup_s']:.4f}" for p in setups))
    correct = out.failed == 0 and bool(out.latencies)
    metrics = {}
    for name, unit in table:
        if name not in m:
            correct = False
            continue
        value = m[name]
        metrics[name] = {"value": value, "unit": unit}
        text = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6g}"
        note = f"  ({tail_note})" if name == "job_tail_ms" else ""
        print(f"{name:36s} {text} {unit}{note}")
    print(f"{'error_rate':36s} {out.failed / out.attempted:>16.6g} ratio  "
          f"({out.failed} failed of {out.attempted} attempted; by kind: "
          f"{dict(out.failures)})")
    for kind, text in out.examples.items():
        print(f"# first {kind}: {text}")
    for kind, text in probe_examples.items():
        print(f"# probe, first {kind}: {text}")
    print(json.dumps({"correct": correct, "attempted": out.attempted,
                      "failed": out.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

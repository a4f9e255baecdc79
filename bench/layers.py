"""Layer timings of nanoband, written to BENCH_<tag>.json.

Each quantity is measured RUNS (5) times, in rounds of one fresh
subprocess each (after one warm-up of every quantity in that process),
and reported as the median and quartiles of those runs, with the
samples.  Beside them, `best_cpu` is the least of RUNS * BEST_OF (15)
process-time samples, BEST_OF per round (the samples in `cpu_samples`
are the best of each round; a subprocess counts with its own process
time, the import with process time inside the child).  On a shared
machine the rounds spread by up to 2x, so the median hides changes
below about 25%; the best process time counts neither the time the
process waits for a processor nor most bursts of load.  The
quantities:

* `band_structure` of the two-step potential at a = 0.9 with its flat
  bands, at n_max 200, 2000 and 20000 (s);
* a 20-gap `band_structure` with its flat bands plus `effective_masses`
  (one sector-sweep job without its checks) for 1, 2, 3 and 64 pieces
  at a = 0.9 (ms);
* `dirichlet_spectrum` of the two-step potential at n_max 200 and 2000
  (s);
* the identity checks on the two-step potential at a = 0.9, n_max 200
  and 2000, the structure and masses built beforehand: the trace
  identity, the four mass series of a deep-tables job and the partial
  fraction at the `verify` command's three test lambdas (ms);
* the monodromy jet `transfer` for 1, 3 and 64 pieces, in microseconds
  per lambda: one lambda per call at orders 2, 1 and 0 (the last two
  only where `transfer` takes an order), 512 lambdas on [-50, 5000] per
  array call, 2401 lambdas per array call, as many as the critical
  phase of a 2400-gap structure holds, spread over its windows, and 512
  lambdas on [-50, 400] per array call, where the lanes below a piece
  (mu < 0) take its hyperbolic branch, and 21 and 41 lambdas per array
  call at orders 1 and 2, spread over the range of a 20-gap structure
  like its critical-point and edge phases;
* both inequality checks of a `sector-sweep` job
  (`check_height_mass_gap` and `check_merged_band_bound`) for 1, 3 and
  64 pieces on a 20-gap structure at a = 0.9 and its mass table, built
  beforehand, each report read for `passed_all` as the job reads it, in
  microseconds per pair of checks (`verifier_us`);
* the Floquet oracle `cross_validate` for 1, 3 and 64 pieces over a
  300-point grid, its band structure built beforehand, in microseconds
  per lambda;
* `nanoband bands --q two-step --a 0.9 --n-max 2000` and the README's
  `masses`, `dispersion`, `verify`, `oracle` and `flatbands` commands
  end to end in a subprocess, output discarded (s), and each again in
  process through `nanoband.cli.main`, stdout sent to os.devnull
  (`cli_in_process_*`, s): compute plus emit, without the interpreter
  start and the import that the subprocess time includes;
* `import nanoband` in a fresh interpreter, timed inside it (s);
* the tracemalloc peak of a 2400-gap `band_structure` with its flat
  bands plus `effective_masses` for one piece at a = 0.9 (kB): the
  memory of a deep build with every solver lane live.

Beside the timings, `counts` holds the comb engine's work per gap for
the two-step potential at a = 0.9 and n_max 20, 200, 2000 and 20000:
the lambdas at which the monodromy jet is evaluated, counted by wrapping
`monodromy.transfer`, split into critical points (the order-2 lambdas of
`band_structure` without flat bands), edges (its order-1 lambdas: f at
the critical points, the lowest edge and both edges of every open gap)
and Dirichlet roots (`dirichlet_spectrum`), each over n_max.  Every
round counts them again and the run stops if they differ.

The file also records the processor count and the Python and numpy
versions.  Run it from the root of a checkout; --src picks the package
to measure (default: ./src).  --base TAG SRC measures a second package
in the same run, its rounds alternating with those of --src (which one
goes first alternates too), so that drift of the machine falls on both
alike, and writes BENCH_<TAG>.json for it as well:

    python bench/layers.py --tag change
    python bench/layers.py --tag change --base parent ../parent/src
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc

HERE = os.path.abspath(__file__)
RUNS = 5
BEST_OF = 3  # process-time samples per round
DEPTHS = (200, 2000, 20000)
DIRICHLET_DEPTHS = (200, 2000)
IDENTITY_DEPTHS = (200, 2000)
COUNT_DEPTHS = (20, 200, 2000, 20000)
SECTOR_N_MAX = 20
SECTOR_BUILDS = 5  # structures per sample of the 20-gap layer
JET_BATCH = 512
JET_DEEP = 2401  # the critical lanes of a 2400-gap structure
JET_MIXED = (-50.0, 400.0)
JET_CALLS = 2000  # one-lambda calls per sample
# lambdas per array call like the critical-point (21) and edge (41)
# phases of a 20-gap structure, spread over its range, and calls per
# sample
JET_PHASES = (21, 41)
SECTOR_TOP = (math.pi * 21 / 2) ** 2
PHASE_CALLS = 20
ORACLE_GRID = (0.05, 40.0, 300)  # lo, hi, points
VERIFIER_CALLS = 50  # pairs of checks per sample
DEEP_ALLOC_N_MAX = 2400
CLI_RUNS = {
    "cli_bands_n_max_2000_s": "bands --q two-step --a 0.9 --n-max 2000",
    "cli_masses_s": "masses --q two-step --a 0.9 --n-max 10",
    "cli_dispersion_s": "dispersion --q zero --a 0 --grid 0:40:400",
    "cli_verify_s": "verify --q two-step --a 0.9 --n-max 20",
    "cli_oracle_s": "oracle --q two-step --a 0.6283185307179586 "
                    "--grid 0.05:40:200",
    "cli_flatbands_s": "flatbands --q zero --a 1.5707963267948966 "
                       "--n-max 5",
}
# the import in a fresh interpreter, timed there with the named clock
IMPORT_TIMER = ("import time; t = time.{0}(); import nanoband; "
                "print(time.{0}() - t)")


def _summary(samples: list[float], best: list[float], unit: str) -> dict:
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"unit": unit, "median": median, "q1": q1, "q3": q3,
            "samples": samples, "best_cpu": min(best), "cpu_samples": best}


def _cpu() -> float:
    """Process time of this process and of its finished children (s)."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


# the clocks a sample is taken with, and their names in a child process
CLOCKS = {"wall": time.perf_counter, "cpu": _cpu}
CHILD_CLOCKS = {"wall": "perf_counter", "cpu": "process_time"}


def _timed(clock: str, fn) -> float:
    tick = CLOCKS[clock]
    t = tick()
    fn()
    return tick() - t


def _alloc_peak_kb(fn) -> float:
    """The tracemalloc peak of fn(): the most memory its allocations
    held at once, in kB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1024.0
    finally:
        tracemalloc.stop()


def _with_flat(bs):
    """bs after reading its flat bands, which band_structure builds
    eagerly in older checkouts and on first read since, so that both
    sides time the same work."""
    bs.flat_bands
    return bs


def _cases(src: str) -> dict:
    """name -> (unit, fn) for the package in src, fn(clock) returning one
    sample timed with the clock of that name."""
    import numpy as np
    import nanoband
    from nanoband.cli import main as cli_main
    from nanoband.floquet_oracle import cross_validate
    from nanoband.monodromy import dirichlet_spectrum, transfer

    two_step = nanoband.make_potential("two-step")
    cfg = nanoband.MagneticConfig(a=0.9)
    jets = {1: nanoband.make_potential([(1.0, 1.5)]),
            3: nanoband.make_potential("three-step"),
            64: nanoband.make_potential(
                lambda t: 3.0 * math.cos(2.0 * math.pi * t) + t, mesh=64)}
    lams = np.linspace(-50.0, 5000.0, JET_BATCH)
    deep_lams = np.linspace(1.0, (math.pi * (JET_DEEP + 1) / 2) ** 2,
                            JET_DEEP)
    mixed_lams = np.linspace(*JET_MIXED, JET_BATCH)
    scalar_lams = lams.tolist() * (JET_CALLS // JET_BATCH + 1)
    env = dict(os.environ, PYTHONPATH=src)

    cases = {}
    for n in DEPTHS:
        cases[f"band_structure_s.n_max_{n}"] = (
            "s", lambda clock, n=n: _timed(
                clock, lambda: _with_flat(
                    nanoband.band_structure(two_step, cfg, n))))
    sector = {1: jets[1], 2: two_step, 3: jets[3], 64: jets[64]}
    for m, q in sector.items():
        cases[f"sector_structure_ms.pieces_{m}"] = (
            "ms", lambda clock, q=q: 1e3 * _timed(clock, lambda: [
                nanoband.effective_masses(_with_flat(
                    nanoband.band_structure(q, cfg, SECTOR_N_MAX)))
                for _ in range(SECTOR_BUILDS)]) / SECTOR_BUILDS)
    for n in DIRICHLET_DEPTHS:
        cases[f"dirichlet_spectrum_s.n_max_{n}"] = (
            "s", lambda clock, n=n: _timed(
                clock, lambda: dirichlet_spectrum(two_step, n)))
    for n in IDENTITY_DEPTHS:
        bs = nanoband.band_structure(two_step, cfg, n)
        mt = nanoband.effective_masses(bs)
        cases[f"identity_checks_ms.n_max_{n}"] = (
            "ms", lambda clock, bs=bs, mt=mt: 1e3 * _timed(
                clock, lambda: _identity_checks(nanoband, bs, mt)))
    xs = scalar_lams[:JET_CALLS]
    has_order = "order" in inspect.signature(transfer).parameters
    for m, q in jets.items():
        cases[f"jet_us_per_lambda.pieces_{m}.scalar"] = (
            "us", lambda clock, q=q: 1e6 * _timed(
                clock, lambda: [transfer(q, x) for x in xs]) / JET_CALLS)
        for order in (1, 0) if has_order else ():
            cases[f"jet_us_per_lambda.pieces_{m}.scalar_order_{order}"] = (
                "us", lambda clock, q=q, order=order: 1e6 * _timed(
                    clock, lambda: [transfer(q, x, order) for x in xs])
                / JET_CALLS)
        for name, batch in ((f"batch_{JET_BATCH}", lams),
                            (f"deep_phase_{JET_DEEP}", deep_lams),
                            (f"mixed_sign_{JET_BATCH}", mixed_lams)):
            cases[f"jet_us_per_lambda.pieces_{m}.{name}"] = (
                "us", lambda clock, q=q, batch=batch: 1e6 * _timed(
                    clock, lambda: transfer(q, batch)) / batch.size)
        for size in JET_PHASES:
            batch = np.linspace(1.0, SECTOR_TOP, size)
            for order in (1, 2) if has_order else ():
                cases[f"jet_us_per_lambda.pieces_{m}.phase_{size}"
                      f"_order_{order}"] = (
                    "us", lambda clock, q=q, batch=batch, order=order: 1e6
                    * _timed(clock, lambda: [transfer(q, batch, order)
                                             for _ in range(PHASE_CALLS)])
                    / (PHASE_CALLS * batch.size))
    for m, q in jets.items():
        bs = nanoband.band_structure(q, cfg, SECTOR_N_MAX)
        mt = nanoband.effective_masses(bs)
        cases[f"verifier_us.pieces_{m}"] = (
            "us", lambda clock, bs=bs, mt=mt: 1e6 * _timed(
                clock, lambda: [_sector_verdict(nanoband, bs, mt)
                                for _ in range(VERIFIER_CALLS)])
            / VERIFIER_CALLS)
    lo, hi, points = ORACLE_GRID
    grid = np.linspace(lo, hi, points).tolist()
    for m, q in jets.items():
        bs = nanoband.band_structure(q, cfg, 20)
        cases[f"oracle_us_per_lambda.pieces_{m}"] = (
            "us", lambda clock, q=q, bs=bs: 1e6 * _timed(
                clock, lambda: cross_validate(q, cfg, grid, bs=bs)) / points)
    cases["deep_alloc_peak_kb"] = ("kB", lambda clock: _alloc_peak_kb(
        lambda: nanoband.effective_masses(_with_flat(
            nanoband.band_structure(jets[1], cfg, DEEP_ALLOC_N_MAX)))))
    for name, command in CLI_RUNS.items():
        cases[name] = ("s", lambda clock, command=command: _timed(
            clock, lambda: subprocess.run(
                [sys.executable, "-m", "nanoband.cli", *command.split()],
                env=env, check=True, stdout=subprocess.DEVNULL)))
        cases[name.replace("cli_", "cli_in_process_", 1)] = (
            "s", lambda clock, command=command: _in_process(
                clock, cli_main, command.split()))
    cases["import_s"] = ("s", lambda clock: float(subprocess.run(
        [sys.executable, "-c", IMPORT_TIMER.format(CHILD_CLOCKS[clock])],
        env=env, check=True, capture_output=True, text=True).stdout))
    return cases


def _in_process(clock: str, cli_main, argv: list[str]) -> float:
    """The time of one cli_main(argv) call, its stdout sent to
    os.devnull; a nonzero exit code stops the run."""
    tick = CLOCKS[clock]
    with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
        t = tick()
        code = cli_main(argv)
        t = tick() - t
    if code != 0:
        raise SystemExit(f"{' '.join(argv)}: exit code {code}")
    return t


def _identity_checks(nanoband, bs, mt) -> None:
    """The trace identity, the mass series of a deep-tables job (the
    bottom edge and three open-gap edges) and the partial fraction at
    the `verify` command's test lambdas, for the structure bs."""
    nanoband.verify_trace_identity(mt)
    for n, sign in [(0, +1), *zip(bs.open_gaps(), (+1, -1, +1))]:
        nanoband.verify_mass_series(mt, bs, n, sign)
    nanoband.verify_partial_fraction(
        bs.q, bs.cfg, [bs.lambda0 - d for d in (5.0, 20.0, 100.0)],
        bs.n_max, bs=bs, mt=mt)


def _sector_verdict(nanoband, bs, mt) -> bool:
    """Both inequality reports of a sector-sweep job on bs and mt, read
    as the job reads them."""
    return all(rep.passed_all
               for rep in (nanoband.check_height_mass_gap(bs, mt),
                           nanoband.check_merged_band_bound(bs, mt)))


def _counts() -> dict:
    """Jet lambdas per gap of the comb engine (see the module docstring),
    counted through a wrapper of monodromy.transfer."""
    import numpy as np
    import nanoband
    from nanoband import monodromy

    two_step = nanoband.make_potential("two-step")
    cfg = nanoband.MagneticConfig(a=0.9)
    transfer = monodromy.transfer
    seen = {}

    def counted(q, lam, order=2):
        seen[order] = seen.get(order, 0) + np.size(lam)
        return transfer(q, lam, order)

    out = {}
    monodromy.transfer = counted
    try:
        for n in COUNT_DEPTHS:
            seen.clear()
            nanoband.band_structure(two_step, cfg, n)
            crit, edges = seen.get(2, 0), seen.get(1, 0)
            seen.clear()
            monodromy.dirichlet_spectrum(two_step, n)
            for part, lams in (("criticals", crit), ("edges", edges),
                               ("dirichlet", sum(seen.values()))):
                out[f"evals_per_gap.n_max_{n}.{part}"] = lams / n
    finally:
        monodromy.transfer = transfer
    return out


def _round(src: str) -> dict:
    """One round in this process: every case once to warm up, then one
    wall-clock sample of each and the best of BEST_OF process-time
    samples, then the counts."""
    sys.path.insert(0, src)
    cases = _cases(src)
    for _, fn in cases.values():
        fn("wall")
    return {"units": {name: unit for name, (unit, _) in cases.items()},
            "samples": {name: fn("wall") for name, (_, fn) in cases.items()},
            "best": {name: min(fn("cpu") for _ in range(BEST_OF))
                     for name, (_, fn) in cases.items()},
            "counts": _counts()}


def _record(tag: str, rounds: list[dict], paired: str | None) -> dict:
    import numpy as np

    counts = rounds[0]["counts"]
    if any(r["counts"] != counts for r in rounds):
        raise SystemExit(f"{tag}: the counts differ between rounds")
    units = rounds[0]["units"]
    record = {
        "tag": tag,
        "machine": {"nproc": os.cpu_count(),
                    "python": platform.python_version(),
                    "numpy": np.__version__,
                    "platform": platform.platform()},
        "runs": len(rounds),
        "metrics": {name: _summary([r["samples"][name] for r in rounds],
                                   [r["best"][name] for r in rounds], unit)
                    for name, unit in units.items()},
        "counts": counts,
    }
    if paired is not None:
        record["interleaved_with"] = paired
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tag", required=True)
    ap.add_argument("--src", default=os.path.join(
        os.path.dirname(os.path.dirname(HERE)), "src"))
    ap.add_argument("--base", nargs=2, metavar=("TAG", "SRC"),
                    help="a second package to time in alternating rounds")
    ap.add_argument("--out", default=os.path.dirname(HERE),
                    help="directory for BENCH_<tag>.json (default: bench/)")
    ap.add_argument("--round", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    src = os.path.abspath(args.src)
    if args.round:
        json.dump(_round(src), sys.stdout)
        return 0

    sides = [(args.tag, src)]
    if args.base:
        sides.append((args.base[0], os.path.abspath(args.base[1])))
    rounds = {tag: [] for tag, _ in sides}
    for r in range(RUNS):
        for tag, path in sides[r % 2:] + sides[:r % 2]:
            proc = subprocess.run(
                [sys.executable, HERE, "--tag", tag, "--src", path,
                 "--round"], check=True, capture_output=True, text=True)
            rounds[tag].append(json.loads(proc.stdout))

    records = [_record(tag, rounds[tag],
                       next((t for t, _ in sides if t != tag), None))
               for tag, _ in sides]
    for record in records:
        path = os.path.join(args.out, f"BENCH_{record['tag']}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"== {record['tag']}")
        for name, m in record["metrics"].items():
            print(f"{name:45s} {m['median']:12.5g} {m['unit']}  "
                  f"(q1 {m['q1']:.5g}, q3 {m['q3']:.5g}; "
                  f"best cpu {m['best_cpu']:.5g})")
        for name, value in record["counts"].items():
            print(f"{name:45s} {value:12.5g} lambdas/gap")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

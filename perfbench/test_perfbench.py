"""Tests of the benchmark itself: ``python3 -m pytest perfbench``."""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

workloads = run.import_workloads()
import tracer  # noqa: E402

import nanoband  # noqa: E402
from nanoband import monodromy  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == list(run.PER_LAYER)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--jobs", "2")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    table = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} \
        == dict(table)
    for name, unit in table:
        assert any(line.split()[:1] == [name] and f" {unit}" in line
                   for line in lines[:-1]), name


def test_run_without_package_source_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "deep-tables", "--seed", "1", "--seconds",
                  "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_inputs_repeat_at_a_fixed_seed():
    for name in workloads.WORKLOADS:
        a, _ = workloads.make_pool(name, 7)
        b, _ = workloads.make_pool(name, 7)
        c, _ = workloads.make_pool(name, 8)
        assert a == b and a != c
    assert workloads.make_probe(7) == workloads.make_probe(7)


def test_corrupted_structures_are_failed_jobs():
    jobs, _ = workloads.make_pool("sector-sweep", 1)
    job = next(j for j in jobs if len(j.q.pieces) < 64)
    out = job.run()
    assert job.check(out) is None
    bs = out.bs
    shifted = dataclasses.replace(
        bs, plus=(bs.plus[0] + 1e-6 * bs.plus[0],) + bs.plus[1:])
    flipped = dataclasses.replace(
        bs, degenerate=(not bs.degenerate[0],) + bs.degenerate[1:])
    for bad in (shifted, flipped):
        assert job.check(dataclasses.replace(out, bs=bad)) == "check_mismatch"
    rep = out.reports[0]
    broken = dataclasses.replace(rep.records[0], passed=False)
    bad_rep = dataclasses.replace(rep, records=(broken,) + rep.records[1:])
    assert job.check(dataclasses.replace(
        out, reports=(bad_rep,) + out.reports[1:])) == "inequality"

    class Corrupting:
        def run(self):
            return dataclasses.replace(out, bs=shifted)

        def check(self, result):
            return job.check(result)

    counted = run.Outcomes(workloads.failure_kind)
    counted.run(Corrupting())
    assert counted.failures == {"check_mismatch": 1}
    assert counted.latencies == []


def test_corrupted_identity_residual_is_a_failed_job():
    job = workloads.make_pool("deep-tables", 1)[0][0]
    out = job.run()
    assert job.check(out) is None
    bad = dataclasses.replace(
        out, trace=dataclasses.replace(out.trace, residual=1.0))
    assert job.check(bad) == "check_mismatch"


def test_corrupted_cli_output_is_a_failed_job(tmp_path):
    jobs, _ = workloads.make_pool("grid-oracle", 1, str(tmp_path))
    for job in jobs[:2]:
        out = job.run()
        assert job.check(out) is None
        assert job.check(dataclasses.replace(out, code=1)) == "check_mismatch"
    disp = jobs[0]
    assert disp.command == "dispersion"
    disp.run()
    doc = json.loads(Path(disp.out).read_text())
    doc["result"]["rows"][5]["re_k"] += 0.1
    Path(disp.out).write_text(json.dumps(doc))
    assert disp.check(workloads.GridOut(0, 0, None)) == "check_mismatch"


def test_traced_counts_repeat_and_originals_come_back():
    original = monodromy.transfer
    jobs, _ = workloads.make_pool("sector-sweep", 2)
    counts = []
    for _ in range(2):
        tr = tracer.Tracer()
        with tr:
            assert monodromy.transfer is not original
            for job in jobs[:3]:
                tr.call("bench.job", job.run)
        s = tracer.summarize(tr)
        counts.append({k: v for k, v in s.items()
                       if k.endswith(("_calls", "_evals", "structures",
                                      "gaps", "records"))})
        assert monodromy.transfer is original
        assert nanoband.band_structure.__name__ == "band_structure"
    assert counts[0] == counts[1]
    assert counts[0]["monodromy.transfer_calls"] > 0
    assert counts[0]["rootfind.solve_evals"] > 0

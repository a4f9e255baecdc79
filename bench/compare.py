"""Compare the numbers of two nanoband checkouts, output by output.

Both packages run, each in a fresh subprocess, the seed-1 and seed-2
`deep-tables` and `sector-sweep` pools and the seed-1 probe sectors
(n_max 20) of perfbench/workloads.py, then the README's CLI commands
and the seed-1 `grid-oracle` requests (without their --output file)
with --format json and --format csv.  Every output is flattened into
leaves: for each field the script prints how many floats it holds, how
many moved and by how many ulps at most; the floats written into text
(an error message, a line of a CLI command's stdout) count in the field
of that text when the rest of the text is the same.  Any other
difference (a label, a flag, a count, an anomaly, a job check, the type
or index of an error, other text of a message or of a stdout line) is
listed, and the exit code is then 1:

    python bench/compare.py --base ../parent/src
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import os
import re
import struct
import subprocess
import sys
from collections import defaultdict
from collections.abc import Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
POOLS = [("deep-tables", 1), ("deep-tables", 2), ("sector-sweep", 1),
         ("sector-sweep", 2)]
PROBE_SEED = 1
GRID_SEED = 1
# the zero-potential masses, fields of a MassTable in older checkouts
_OLD_FIELDS = ("bare_mu0", "bare_plus", "bare_minus")


def _leaves(x, path: str, out: dict) -> dict:
    """x flattened into out, path -> None, a number or a string (the
    repr of anything else); dataclasses without their inputs q and cfg
    and without the zero-potential masses bare_mu0, bare_plus and
    bare_minus (fields of MassTable in older checkouts, which no longer
    holds them), and with flat_bands where they have it (a field of
    BandStructure in older checkouts, a property solved on first read
    since); any sequence but a string item by item, as a tuple (the
    records of an InequalityReport are a tuple in older checkouts, a
    read-only view since)."""
    if dataclasses.is_dataclass(x):
        fields = {f.name: getattr(x, f.name) for f in dataclasses.fields(x)
                  if f.name not in ("q", "cfg", *_OLD_FIELDS)}
        if hasattr(x, "flat_bands"):
            fields["flat_bands"] = x.flat_bands
        x = fields
    if isinstance(x, dict):
        for k, v in x.items():
            _leaves(v, f"{path}.{k}", out)
    elif isinstance(x, Sequence) and not isinstance(x, str):
        for i, v in enumerate(x):
            _leaves(v, f"{path}[{i}]", out)
    else:
        out[path] = (x if x is None or isinstance(x, (int, float, str))
                     else repr(x))
    return out


def _readme_commands() -> list[list[str]]:
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        return [line.split()[1:] for line in fh
                if re.match(r"nanoband [a-z]+ +--", line)]


def _dump(src: str) -> dict:
    """The leaves of every output of the package in src, by job."""
    sys.path[:0] = [src, os.path.join(ROOT, "perfbench")]
    sys.dont_write_bytecode = True  # leave perfbench/ as it is
    import workloads
    from nanoband import cli

    jobs = [(f"{w}/{s}", workloads.make_pool(w, s)[0]) for w, s in POOLS]
    jobs.append((f"probe/{PROBE_SEED}", workloads.make_probe(PROBE_SEED)))
    out = {}
    for pool, pool_jobs in jobs:
        for i, job in enumerate(pool_jobs):
            try:
                res = job.run()
            except Exception as exc:  # recorded and compared, never fatal
                rec = {"error": type(exc).__name__, "message": str(exc),
                       "index": getattr(exc, "index", None)}
            else:
                rec = {"out": res, "check": job.check(res)}
            _leaves(rec, f"{pool}/{i}", out)
    requests = [("readme", i, argv)
                for i, argv in enumerate(_readme_commands())]
    # the grid-oracle requests without their --output file
    requests += [(f"grid-oracle/{GRID_SEED}", i, job.argv()[:-2])
                 for i, job in enumerate(workloads.make_pool(
                     "grid-oracle", GRID_SEED)[0])]
    for source, i, argv in requests:
        for fmt in ("json", "csv"):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main([*argv, "--format", fmt])
            text = buf.getvalue()
            rec = {"code": code, "stdout": text.splitlines(keepends=True)}
            if fmt == "json":
                rec["out"] = json.loads(text)
            _leaves(rec, f"{source}/{argv[0]}/{i}/{fmt}", out)
    return out


# a float as repr or %.17g write it: with a point or an exponent, so
# that integers (counts, indices) stay text
_NUMBER = re.compile(r"-?(?:\d+\.\d*(?:e[-+]?\d+)?|\d+e[-+]?\d+)")


def _ulps(x: float, y: float) -> float:
    """How many floats lie between x and y."""
    i, j = (struct.unpack("<q", struct.pack("<d", v))[0] for v in (x, y))
    return abs((i if i >= 0 else -(i & 2 ** 63 - 1))
               - (j if j >= 0 else -(j & 2 ** 63 - 1)))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, metavar="SRC",
                    help="the src directory of the checkout to compare with")
    ap.add_argument("--src", default=os.path.join(ROOT, "src"))
    args = ap.parse_args(argv)
    base, new = (json.loads(subprocess.run(
        [sys.executable, __file__, "--dump", path], check=True,
        stdout=subprocess.PIPE, text=True).stdout)
        for path in (args.base, args.src))
    fields = defaultdict(lambda: [0, 0, 0])  # floats, moved, max ulps
    other = []
    for path in sorted(base.keys() | new.keys()):
        x, y = base.get(path, "<missing>"), new.get(path, "<missing>")
        if type(x) is float and type(y) is float:
            pairs = [(x, y)]
        elif (type(x) is str and type(y) is str
              and _NUMBER.split(x) == _NUMBER.split(y)):
            # text that differs at most in the floats written into it
            pairs = list(zip(*(map(float, _NUMBER.findall(t))
                               for t in (x, y))))
        else:
            if type(x) is not type(y) or x != y:
                other.append(f"{path}: {x!r} -> {y!r}")
            continue
        field = fields[re.sub(r"/\d+|\[\d+\]", "", path)]
        for u, v in pairs:
            field[0] += 1
            if repr(u) != repr(v):
                field[1] += 1
                field[2] = max(field[2], _ulps(u, v))
    print(f"{'field':60s} {'floats':>7s} {'moved':>6s} {'max ulps':>9s}")
    for name, (count, moved, ulps) in sorted(fields.items()):
        print(f"{name:60s} {count:7d} {moved:6d} {ulps:9g}")
    print(f"{len(other)} other differences")
    for line in other:
        print(line)
    return 1 if other else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--dump"]:  # one side, in a process of its own
        json.dump(_dump(os.path.abspath(sys.argv[2])), sys.stdout)
    else:
        sys.exit(main())

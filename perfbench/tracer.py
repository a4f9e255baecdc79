"""In-memory span tracer installed from outside the package.

The tracer replaces each public function of the nanoband modules with a
timing wrapper, in every loaded nanoband namespace that holds the same
function object (``solve_bracketed``, for instance, is imported into both
``spectrum`` and ``monodromy``).  Nothing inside the package is edited.

Two kinds of wrapper exist:

* a span wrapper stores one record per call: id, parent id, name, start,
  end, self time, optional small numbers read from the result, and the
  exception type if the call raised;
* an aggregating wrapper, for the per-lambda functions (the monodromy jet
  and its thin callers), adds a count, a total time and a self time to
  the enclosing span instead of storing a record per call.  The jet is
  called about a million times in one deep-tables pass.

Self time is duration minus the time of wrapped callees, so the self
times of all spans and aggregates under a root add up to the root's
duration.
"""

from __future__ import annotations

import gzip
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("potential", "monodromy", "_rootfind", "spectrum", "masses",
          "quasimomentum", "verifier", "floquet_oracle", "cli")

#: Functions called once per spectral point; aggregated per enclosing span.
HOT = frozenset({
    "monodromy.transfer", "monodromy.evaluate", "monodromy.delta_with_derivs",
    "spectrum.F_with_derivs", "spectrum.xi", "spectrum.bare_edge",
    "spectrum.bare_edge_z", "spectrum.gap_phase_even",
    "spectrum.gap_phase_odd",
    "spectrum.F0", "spectrum.dF0", "spectrum.d2F0", "masses.bare_mass",
    "_rootfind.locate", "quasimomentum.k_eval",
    "floquet_oracle.build_cell_system", "floquet_oracle.dispersion_roots",
    "floquet_oracle.cos_k_from_root", "floquet_oracle.is_ac_multiplier_pair",
})


def _n_max(result):
    return result.n_max


def _records(result):
    return len(result.records), len(result.failures)


def _skipped(result):
    return len(result.skipped)


#: Small numbers read from a span's result, stored in the span record.
INFO = {
    "_rootfind.comb_roots": _n_max,
    "spectrum.band_structure": _n_max,
    "verifier.check_height_mass_gap": _records,
    "verifier.check_merged_band_bound": _records,
    "floquet_oracle.cross_validate": _skipped,
}

#: Aggregates of the jet are split by the number of potential pieces.
JET = "monodromy.transfer"


def _pieces_bucket(args) -> str:
    m = len(args[0].pieces)
    if m <= 3:
        return "1-3"
    return "64" if m == 64 else "other"


def public_functions():
    """(qualified name, module, attribute) for every public function of
    every layer, in layer order."""
    out = []
    for layer in LAYERS:
        mod = sys.modules[f"nanoband.{layer}"]
        for attr, obj in vars(mod).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                out.append((f"{layer}.{attr}", mod, attr))
    return out


class Tracer:
    """Spans and aggregates of one traced pass.  Use as a context manager:
    entering patches the package, leaving restores every original."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple] = []
        # (span id, name index, bucket) -> [count, total, self]
        self.aggs: dict[tuple, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self._stack: list[list] = [[0.0, -1]]  # frames: [child time, span id]
        self._next_id = 0
        self._patches: list[tuple] = []
        self.paused = False

    def call(self, name: str, fn):
        """fn() inside a span of the given name (a job, for instance)."""
        return self._wrap(fn, name)()

    def _name_index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            self.names.append(name)
            return len(self.names) - 1

    # -- patching ----------------------------------------------------------

    def __enter__(self):
        mods = [m for k, m in sys.modules.items()
                if k == "nanoband" or k.startswith("nanoband.")]
        for name, mod, attr in public_functions():
            fn = getattr(mod, attr)
            wrapped = self._wrap(fn, name)
            for ns in mods:
                for key, val in list(vars(ns).items()):
                    if val is fn:
                        self._patches.append((ns, key, fn))
                        setattr(ns, key, wrapped)
        return self

    def __exit__(self, *exc):
        for ns, key, fn in reversed(self._patches):
            setattr(ns, key, fn)
        self._patches.clear()
        return False

    def _wrap(self, fn, name: str):
        idx = self._name_index(name)
        stack = self._stack
        clock = time.perf_counter
        if name in HOT:
            aggs = self.aggs
            bucket_of = _pieces_bucket if name == JET else None

            def hot(*args, **kwargs):
                if self.paused:
                    return fn(*args, **kwargs)
                frame = [0.0, stack[-1][1]]
                stack.append(frame)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = clock() - t0
                    stack.pop()
                    stack[-1][0] += dur
                    key = (frame[1], idx,
                           bucket_of(args) if bucket_of else "")
                    agg = aggs[key]
                    agg[0] += 1
                    agg[1] += dur
                    agg[2] += dur - frame[0]
            return hot

        info_of = INFO.get(name)

        def span(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][1]
            frame = [0.0, sid]
            stack.append(frame)
            err = None
            info = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if info_of is not None:
                    info = info_of(result)
                return result
            except BaseException as exc:
                err = type(exc).__name__
                raise
            finally:
                t1 = clock()
                dur = t1 - t0
                stack.pop()
                stack[-1][0] += dur
                self.spans.append((sid, parent, idx, t0, t1, dur - frame[0],
                                   info, err))
        return span

    # -- output ------------------------------------------------------------

    def dump(self, path) -> None:
        """Write gzip-compressed JSON lines: first {"names": [...]}, then
        one array per span, by id: [id, parent id, name index, start,
        end, self seconds, info, error]; then one per aggregate: [span
        id, name index, bucket, calls, total seconds, self seconds]."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for rec in sorted(self.spans):
                fh.write(json.dumps(rec) + "\n")
            for (sid, idx, bucket), vals in sorted(self.aggs.items()):
                fh.write(json.dumps([sid, idx, bucket, *vals]) + "\n")


def _layer(name: str) -> str:
    head = name.split(".", 1)[0]
    return head if head in LAYERS else "bench"


def summarize(tr: Tracer) -> dict:
    """Per-layer numbers of one traced pass, keyed by metric name.

    "Evals" are jet calls made while inside the named span, nested spans
    included; a span nested in another of the same name is not counted
    twice.
    """
    names = tr.names
    parent = {s[0]: s[1] for s in tr.spans}
    name_of = {s[0]: names[s[2]] for s in tr.spans}
    by_name = defaultdict(list)
    self_by_layer: dict[str, float] = defaultdict(float)
    for s in tr.spans:
        by_name[names[s[2]]].append(s)
        self_by_layer[_layer(names[s[2]])] += s[5]

    jet_calls = defaultdict(int)  # span id -> direct jet calls
    hot_calls = defaultdict(int)  # name -> calls
    hot_total = defaultdict(float)  # name -> inclusive seconds
    bucket = defaultdict(lambda: [0, 0.0])  # jet bucket -> [calls, seconds]
    for (sid, idx, b), (n, total, self_s) in tr.aggs.items():
        name = names[idx]
        self_by_layer[_layer(name)] += self_s
        hot_calls[name] += n
        hot_total[name] += total
        if name == JET:
            jet_calls[sid] += n
            bucket[b][0] += n
            bucket[b][1] += total

    inclusive = defaultdict(int, jet_calls)
    for sid in sorted(parent, reverse=True):  # children have larger ids
        if parent[sid] >= 0:
            inclusive[parent[sid]] += inclusive[sid]

    def outermost(name: str):
        for s in by_name[name]:
            p = s[1]
            while p >= 0 and name_of.get(p) != name:
                p = parent.get(p, -1)
            if p < 0:
                yield s

    def evals(name):
        return sum(inclusive[s[0]] for s in outermost(name))

    def seconds(*ns):
        return sum(s[4] - s[3] for n in ns for s in outermost(n))

    def calls(name):
        return len(by_name[name])

    def info(name, pos=None):
        return sum(s[6] if pos is None else s[6][pos]
                   for s in by_name[name] if s[6] is not None)

    def per_call_us(calls_n, secs):
        return 1e6 * secs / calls_n if calls_n else 0.0

    comb_gaps = info("_rootfind.comb_roots")
    ver = ("verifier.check_height_mass_gap",
           "verifier.check_merged_band_bound")
    oracle_points = hot_calls["floquet_oracle.dispersion_roots"]
    m = {
        "monodromy.transfer_calls": hot_calls[JET],
        "monodromy.transfer_s": hot_total[JET],
        "monodromy.transfer_us.pieces_1-3": per_call_us(*bucket["1-3"]),
        "monodromy.transfer_us.pieces_64": per_call_us(*bucket["64"]),
        "monodromy.dirichlet_s": seconds("monodromy.dirichlet_spectrum"),
        "rootfind.solve_calls": calls("_rootfind.solve_bracketed"),
        "rootfind.solve_evals": evals("_rootfind.solve_bracketed"),
        "rootfind.scan_evals": evals("_rootfind.find_sign_change"),
        "rootfind.expand_evals": evals("_rootfind.expand_left"),
        "rootfind.evals_per_gap": (evals("_rootfind.comb_roots") / comb_gaps
                                   if comb_gaps else 0.0),
        "spectrum.structures": calls("spectrum.band_structure"),
        "spectrum.gaps": info("spectrum.band_structure"),
        "spectrum.band_structure_s": seconds("spectrum.band_structure"),
        "masses.effective_masses_s": seconds("masses.effective_masses"),
        "masses.identity_s": seconds(
            "masses.verify_trace_identity", "masses.verify_mass_series",
            "masses.verify_partial_fraction",
            "masses.verify_mass_asymptotics"),
        "verifier.check_s": seconds(*ver),
        "verifier.records": info(ver[0], 0) + info(ver[1], 0),
        "verifier.failed_records": info(ver[0], 1) + info(ver[1], 1),
        "quasimomentum.k_eval_calls": hot_calls["quasimomentum.k_eval"],
        "quasimomentum.k_eval_us": per_call_us(
            hot_calls["quasimomentum.k_eval"],
            hot_total["quasimomentum.k_eval"]),
        "quasimomentum.asymptotics_s": seconds(
            "quasimomentum.verify_deep_asymptotics",
            "quasimomentum.verify_kprime_squared"),
        "floquet_oracle.points": oracle_points,
        "floquet_oracle.us_per_point": per_call_us(
            oracle_points, seconds("floquet_oracle.cross_validate")),
        "floquet_oracle.skipped": info("floquet_oracle.cross_validate"),
        "cli.commands": calls("cli.main"),
    }
    m["self"] = {layer: self_by_layer[layer]
                 for layer in LAYERS + ("bench",)}
    return m

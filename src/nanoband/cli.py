"""Batch front-end: parse a config, run computations, emit reports.

Commands: bands, masses, dispersion, verify, oracle, flatbands.
JSON is the canonical output (floats as the shortest repr that reads
back to the same float, sorted keys, no timestamps: identical configs
give byte-identical output).
Every output embeds a schema version and the fully resolved
configuration.  CSV is a flat projection for plotting tools: one row
per entry of the result's table (gaps, mass entries, dispersion rows,
inequality records; per grid point the oracle's deviation; each flat
band with its kind), floats at 17 significant digits and flags as 0/1.

A request takes one pass: _resolve turns the flags, the config file and
the grid into the inputs, a command computes its result from them
alone, and main writes it once.

Exit codes: 0 success, 1 computation failure (e.g. a root bracket could
not be established), 2 usage errors: any malformed flag, config file or
grid, and an --output path that cannot be written (its directory is
missing, or it is a directory).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from typing import Any

import numpy as np

from . import masses as _masses
from . import quasimomentum as _qm
from . import spectrum as _spec
from . import verifier as _ver
from . import floquet_oracle as _oracle
from ._rootfind import RootBracketError
from .potential import from_config
from .spectrum import MagneticConfig

SCHEMA_VERSION = "nanoband/1"
OUTPUT_DIR_ENV = "NANOBAND_OUT_DIR"


_ENCODE = json.encoder.encode_basestring_ascii
_NONFINITE = {"nan": '"nan"', "inf": '"inf"', "-inf": '"-inf"'}
_CONTAINERS = (dict, list, tuple)


def _scalar(v) -> str:
    """One JSON value that is not a container, as json.dumps writes it,
    but nan and infinities as the strings "nan", "inf", "-inf"."""
    if isinstance(v, str):
        return _ENCODE(v)
    if v is None:
        return "null"
    if v is True or v is False:
        return "true" if v else "false"
    if isinstance(v, int):
        return int.__repr__(v)
    if isinstance(v, float):
        r = float.__repr__(v)
        return _NONFINITE.get(r, r)
    raise TypeError(f"{type(v).__name__} is not JSON serializable")


def _column(values: list) -> list[str] | None:
    """The JSON text of each value of a table column, or None if one of
    them is a container (the list is then no table)."""
    kinds = set(map(type, values))
    if kinds == {float}:  # the common column, without a call per cell
        cells = list(map(float.__repr__, values))
        if _NONFINITE.keys().isdisjoint(cells):
            return cells
    elif any(issubclass(k, _CONTAINERS) for k in kinds):
        return None
    return list(map(_scalar, values))


def _table(rows: list, nl: str) -> str | None:
    """A list of flat dicts that share one key set, written as json.dumps
    writes it with sort_keys and indent=1 from one row template and one %
    over all cells, at the indentation nl of the list; None if rows is no
    such list."""
    if not all(type(r) is dict for r in rows):
        return None
    keys = rows[0].keys()
    if not keys or not all(r.keys() == keys for r in rows):
        return None
    keys = sorted(keys)
    cols = []
    for k in keys:
        col = _column([r[k] for r in rows])
        if col is None:
            return None
        cols.append(col)
    row_nl = nl + " "
    cell_nl = row_nl + " "
    row = "{" + ",".join(
        cell_nl + _ENCODE(k).replace("%", "%%") + ": %s" for k in keys
    ) + row_nl + "}"
    template = ("[" + row_nl + ("," + row_nl).join([row] * len(rows))
                + nl + "]")
    return template % tuple([c for cells in zip(*cols) for c in cells])


def _to_json(x: Any, nl: str | None = "\n") -> str:
    """The JSON text of x, byte for byte as json.dumps writes it with
    sort_keys=True and indent=1, but nan and infinities as the strings
    "nan", "inf", "-inf" (_scalar); nl is a newline and the indentation
    of x's own line, or None for json.dumps's one-line form (no indent,
    ", " and ": " between items)."""
    if not isinstance(x, _CONTAINERS):
        return _scalar(x)
    if not x:
        return "{}" if isinstance(x, dict) else "[]"
    table = None if nl is None or isinstance(x, dict) else _table(x, nl)
    if table is not None:
        return table
    inner = None if nl is None else nl + " "
    lead, sep, end = ("", ", ", "") if nl is None else (inner, ",", nl)
    if isinstance(x, dict):
        items = [lead + _ENCODE(k) + ": " + _to_json(v, inner)
                 for k, v in sorted(x.items())]
        return "{" + sep.join(items) + end + "}"
    return "[" + sep.join([lead + _to_json(v, inner) for v in x]) + end + "]"


def _parse_grid(text) -> list[float]:
    try:
        lo_s, hi_s, n_s = text.split(":")
        lo, hi, n = float(lo_s), float(hi_s), int(n_s)
    except (AttributeError, ValueError):
        raise ValueError(f"grid must be lo:hi:count, got {text!r}") from None
    if n < 1 or not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("grid bounds must be finite and count >= 1")
    if n == 1:
        return [lo]
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def _typed(fields: dict, key: str, default, kind: type):
    """fields[key] (default if absent) as kind: int takes a JSON integer,
    float any JSON number; a bool is neither."""
    v = fields.get(key, default)
    if isinstance(v, bool) or not isinstance(v, (int, kind)):
        what = "an integer" if kind is int else "a number"
        raise TypeError(f"{key} must be {what}, got {v!r}")
    return kind(v)


def _resolve(args: argparse.Namespace):
    """The inputs of a request, (q, cfg, n_max, lams, echo): config file
    and flags merged (flags win), invariants enforced, the grid parsed
    for every command (lams is None without one; oracle's default is
    0:40:200, and dispersion needs one) and echoed.  Malformed input
    raises ArithmeticError, OSError, TypeError or ValueError, which main
    turns into a usage error."""
    file_cfg = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict):
            raise ValueError("config file must hold a JSON object")
    q_entry = args.q if args.q is not None else file_cfg.get("potential")
    if q_entry is None:
        raise ValueError("no potential given (use --q or the config file)")
    if isinstance(q_entry, str) and q_entry.strip().startswith(("[", "{")):
        q_entry = json.loads(q_entry)
    q = from_config(q_entry)

    flags = {k: getattr(args, k) for k in ("a", "B", "N", "j")
             if getattr(args, k) is not None}
    if "a" in flags and "B" in flags:
        raise ValueError("give either --a or --B/--N/--j, not both")
    mag = dict(file_cfg.get("magnetic", {}))
    if "a" in flags or "B" in flags:  # a flag's phase or field wins
        mag.pop("a", None)
        mag.pop("B", None)
    mag.update(flags)
    if ("a" in mag) == ("B" in mag):
        raise ValueError("exactly one of a (phase) or B (field) is required")
    N = _typed(mag, "N", 1, int)
    j = _typed(mag, "j", 0, int)
    if "B" in mag:
        cfg = MagneticConfig.from_field(_typed(mag, "B", None, float), N, j)
    else:
        cfg = MagneticConfig(a=_typed(mag, "a", None, float), N=N, j=j)

    n_max = (args.n_max if args.n_max is not None
             else _typed(file_cfg, "n_max", 10, int))
    if n_max < 1:
        raise ValueError("n-max must be >= 1")
    grid = args.grid if args.grid is not None else file_cfg.get("grid")
    if args.command == "oracle":
        grid = grid or "0:40:200"
    elif args.command == "dispersion" and not grid:
        raise ValueError("dispersion needs --grid lo:hi:count")
    lams = None if grid is None else _parse_grid(grid)

    echo = {
        "potential": {"label": q.label,
                      "pieces": [[w, v] for w, v in q.pieces],
                      "q0": q.q0},
        "magnetic": {"a": cfg.a, "N": cfg.N, "j": cfg.j, "B": cfg.B,
                     "a_j": cfg.a_j, "c_j": cfg.c_j, "s_j": cfg.s_j},
        "n_max": n_max,
        "grid": grid,
        "format": args.format,
    }
    return q, cfg, n_max, lams, echo


def _emit(args: argparse.Namespace, echo: dict, result: dict, table,
          columns: list[str], summary=None) -> None:
    """Write the result as JSON or, with --format csv, the dicts of its
    table (an iterable, read only here) one row each in the given
    columns, after the resolved config (and the summary, if any) in #
    comment lines."""
    if args.format == "csv":
        lines = [f"# {k}={_to_json(v, None)}" for k, v in echo.items()]
        lines.append(f"# schema_version={SCHEMA_VERSION}")
        for k, v in (summary or {}).items():
            lines.append(f"# {k}={_to_json(v, None)}")
        lines.append(",".join(columns))
        for row in table:
            lines.append(",".join(
                format(v, ".17g") if isinstance(v, float)
                else str(int(v) if isinstance(v, bool) else v)
                for v in (row[c] for c in columns)))
        text = "\n".join(lines) + "\n"
    else:
        text = _to_json({"schema_version": SCHEMA_VERSION,
                         "command": args.command, "config": echo,
                         "result": result}) + "\n"
    if args.output:
        path = args.output
        out_dir = os.environ.get(OUTPUT_DIR_ENV)
        if out_dir and not os.path.isabs(path):
            path = os.path.join(out_dir, path)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _structure_dict(bs) -> dict:
    return {
        "lambda0": bs.lambda0,
        "gaps": [{"n": n,
                  "lambda_minus": bs.minus[n - 1],
                  "lambda_plus": bs.plus[n - 1],
                  "degenerate": bs.degenerate[n - 1],
                  "critical": bs.critical[n - 1],
                  "height": bs.heights[n - 1]}
                 for n in range(1, bs.n_max + 1)],
        "bands": [{"n": n, "lo": bs.band(n)[0], "hi": bs.band(n)[1]}
                  for n in range(1, bs.n_max + 1)],
        "flat_bands": list(bs.flat_bands),
        "merged": [{"n_start": n, "n_end": n1, "lo": lo, "hi": hi}
                   for n, n1, lo, hi in bs.merged_intervals()],
        "anomalies": list(bs.anomalies),
    }


def _record_dict(r) -> dict:
    return {"check": r.name, "n": r.n, "lhs": r.lhs, "rhs": r.rhs,
            "slack": r.slack, "passed": r.passed, "skipped": r.skipped,
            "note": r.note, "extras": {k: v for k, v in r.extras}}


# Each command maps the resolved inputs (q, cfg, n_max, lams) to the
# result, its table and the table's CSV columns (verify: and a summary).

def cmd_bands(q, cfg, n_max, lams):
    structure = _structure_dict(_spec.band_structure(q, cfg, n_max))
    return structure, structure["gaps"], [
        "n", "lambda_minus", "lambda_plus", "degenerate", "critical",
        "height"]


def cmd_masses(q, cfg, n_max, lams):
    bs = _spec.band_structure(q, cfg, n_max)
    mt = _masses.effective_masses(bs)
    # the zero-potential masses at the same c, 0 at the degenerate gaps
    c, ns = cfg.c_abs, np.arange(1, n_max + 1)
    bare = (np.where(bs.degenerate, 0.0, _masses.bare_mass(c, ns, sign))
            .tolist() for sign in (+1, -1))
    result = {
        "mu0": mt.mu0,
        "bare_mu0": _masses.bare_mass(c, 0, +1),
        "entries": [{"n": n, "mu_plus": mp, "mu_minus": mm,
                     "bare_mu_plus": bp, "bare_mu_minus": bm}
                    for (n, mp, mm), bp, bm in zip(mt.entries(), *bare)],
    }
    return result, result["entries"], [
        "n", "mu_plus", "mu_minus", "bare_mu_plus", "bare_mu_minus"]


def cmd_dispersion(q, cfg, n_max, lams):
    ks = _qm.k_eval(q, cfg, np.array(lams)).tolist()
    result = {"rows": [{"lambda": lam, "re_k": k.real, "im_k": k.imag}
                       for lam, k in zip(lams, ks)]}
    return result, result["rows"], ["lambda", "re_k", "im_k"]


def cmd_verify(q, cfg, n_max, lams):
    bs = _spec.band_structure(q, cfg, n_max)
    mt = _masses.effective_masses(bs)
    trace = _masses.verify_trace_identity(mt)
    # the partial-fraction series needs depth regardless of the display
    # range; reuse the structure when it is already deep enough
    n_pf = max(n_max, 200)
    bs_pf = bs if n_pf == n_max else _spec.band_structure(q, cfg, n_pf)
    mt_pf = mt if bs_pf is bs else _masses.effective_masses(bs_pf)
    test_lams = [bs.lambda0 - d for d in (5.0, 20.0, 100.0)]
    pf = _masses.verify_partial_fraction(mt_pf, bs_pf, test_lams)
    ineq = _ver.check_height_mass_gap(bs, mt)
    merged = _ver.check_merged_band_bound(bs, mt)
    records = [_record_dict(r) for r in (*ineq.records, *merged.records)]
    result = {
        "trace_residual": trace.residual,
        "trace_partial_sum": trace.partial_sum,
        "trace_extrapolated": trace.extrapolated,
        "partial_fraction": [{"lambda": r.lam, "direct": r.direct,
                              "series": r.series,
                              "residual_rel": r.residual_rel} for r in pf],
        "inequalities": records,
        "summary": {
            "checked": ineq.checked + merged.checked,
            "failures": len(ineq.failures) + len(merged.failures),
            "worst_slack": min(ineq.worst_slack, merged.worst_slack),
            "normalization_shift": ineq.shift,
        },
    }
    return (result, records, ["check", "n", "lhs", "rhs", "slack", "passed"],
            {"trace_residual": trace.residual, **result["summary"]})


def cmd_oracle(q, cfg, n_max, lams):
    rep = _oracle.cross_validate(q, cfg, lams)
    result = {
        "max_deviation": rep.max_deviation,
        "points": len(rep.lams),
        "skipped_near_flat_bands": list(rep.skipped),
        "membership_checked": rep.membership_checked,
        "membership_mismatches": list(rep.membership_mismatches),
    }
    table = ({"lambda": lam, "deviation": dev}
             for lam, dev in zip(rep.lams, rep.deviations))
    return result, table, ["lambda", "deviation"]


def cmd_flatbands(q, cfg, n_max, lams):
    fs = _spec.flat_spectrum(q, cfg, n_max)
    result = {
        "pure_point_regime": cfg.c_abs < _spec.PURE_POINT_CUTOFF,
        "dirichlet": list(fs.dirichlet),
        "f_locus": list(fs.f_locus),
        "all": list(fs.all),
    }
    table = ({"kind": kind, "value": v} for kind in ("dirichlet", "f_locus")
             for v in result[kind])
    return result, table, ["kind", "value"]


_COMMANDS = {
    "bands": cmd_bands,
    "masses": cmd_masses,
    "dispersion": cmd_dispersion,
    "verify": cmd_verify,
    "oracle": cmd_oracle,
    "flatbands": cmd_flatbands,
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nanoband",
        description="Band structure and spectral identities for zigzag "
                    "nanotube quantum graphs in a magnetic field.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__)
        p.add_argument("--config", help="JSON config file (flags override)")
        p.add_argument("--q", help="potential: a name (zero, two-step, "
                                   "three-step) or inline JSON pieces/samples")
        p.add_argument("--a", type=float, help="magnetic phase (radians)")
        p.add_argument("--B", type=float, help="field strength (converted "
                                               "via a = 3B/16 * cot(pi/2N))")
        p.add_argument("--N", type=int, help="circumference index")
        p.add_argument("--j", type=int, help="sector index")
        p.add_argument("--n-max", dest="n_max", type=int,
                       help="highest gap index (default 10)")
        p.add_argument("--grid", help="lambda grid lo:hi:count (a negative "
                                      "lo needs the = form: --grid=-5:0:3)")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--output", help="output file (default stdout; "
                                        f"${OUTPUT_DIR_ENV} sets the "
                                        "default directory)")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        q, cfg, n_max, lams, echo = _resolve(args)
    except (ArithmeticError, OSError, TypeError, ValueError) as exc:
        parser.error(str(exc))
    try:
        out = _COMMANDS[args.command](q, cfg, n_max, lams)
    except (RootBracketError, ValueError) as exc:
        print(f"nanoband: error: {exc}", file=sys.stderr)
        return 1
    try:
        _emit(args, echo, *out)
    except OSError as exc:
        parser.error(str(exc))
    return 0


if __name__ == "__main__":
    sys.exit(main())

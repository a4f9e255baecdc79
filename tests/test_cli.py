import json
import math
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nanoband.cli import _to_json, main
from oracles import reference_json

HALF_PI = "1.5707963267948966"
GOLDEN = pathlib.Path(__file__).parent / "golden"

# The README's CLI commands and the stored output of each, as JSON and,
# for bands, masses and flatbands, as CSV too.  `oracle` is left out: its
# deviations come from LAPACK determinants, whose last bits can differ
# between BLAS builds.
README_COMMANDS = {
    "bands_zero.json": "bands --q zero --a 0 --n-max 5",
    "bands_two_step_field.json":
        "bands --q two-step --B 1.0 --N 4 --j 1 --n-max 8",
    "masses_two_step.json": "masses --q two-step --a 0.9 --n-max 10",
    "dispersion_zero.json": "dispersion --q zero --a 0 --grid 0:40:400",
    "verify_two_step.json": "verify --q two-step --a 0.9 --n-max 20",
    "flatbands_zero.json": f"flatbands --q zero --a {HALF_PI} --n-max 5",
    "bands_zero.csv": "bands --q zero --a 0 --n-max 5 --format csv",
    "bands_two_step_field.csv":
        "bands --q two-step --B 1.0 --N 4 --j 1 --n-max 8 --format csv",
    "masses_two_step.csv":
        "masses --q two-step --a 0.9 --n-max 10 --format csv",
    "flatbands_zero.csv":
        f"flatbands --q zero --a {HALF_PI} --n-max 5 --format csv",
}


# The seven commands of the README's CLI section.
README_CLI = [
    "bands --q zero --a 0 --n-max 5",
    "bands --q two-step --B 1.0 --N 4 --j 1 --n-max 8",
    "masses --q two-step --a 0.9 --n-max 10",
    "dispersion --q zero --a 0 --grid 0:40:400",
    "verify --q two-step --a 0.9 --n-max 20",
    "oracle --q two-step --a 0.6283185307179586 --grid 0.05:40:200",
    f"flatbands --q zero --a {HALF_PI} --n-max 5",
]


def run_cli(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


def test_bands_json_structure(capsys):
    code, out, _ = run_cli(["bands", "--q", "zero", "--a", "0",
                            "--n-max", "5"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == "nanoband/1"
    assert doc["command"] == "bands"
    assert doc["config"]["magnetic"]["a"] == 0.0
    degen = [g["degenerate"] for g in doc["result"]["gaps"]]
    assert degen == [False, True, False, True, False]
    assert abs(doc["result"]["lambda0"]) < 1e-10


def test_bands_odd_gaps_close_at_third_pi(capsys):
    code, out, _ = run_cli(["bands", "--q", "zero", "--a", "1.0471975511965976",
                            "--n-max", "5"], capsys)
    assert code == 0
    doc = json.loads(out)
    degen = [g["degenerate"] for g in doc["result"]["gaps"]]
    assert degen == [True, False, True, False, True]


def test_conflicting_field_and_phase_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bands", "--q", "zero", "--a", "0", "--B", "1", "--N", "3",
              "--j", "0"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_missing_magnetic_input_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bands", "--q", "zero"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv, config", [
    ("dispersion --q zero --a 0.9 --grid 1:2", None),
    ("bands --q nosuch --a 0.9", None),
    ("bands --q [1,2 --a 0.9", None),
    ("bands --q zero --a 0.9 --N 0", None),
    ("bands --q zero --B 1 --N 0", None),
    ("bands --config missing.json", None),
    ("bands --config run.json", [1, 2]),
    ("bands --config run.json",
     {"potential": {"pieces": [1, 2]}, "magnetic": {"a": 0.9}}),
    ("bands --config run.json",
     {"potential": "zero", "magnetic": {"a": 0.9}, "n_max": None}),
    ("dispersion --config run.json",
     {"potential": "zero", "magnetic": {"a": 0.9}, "grid": [0, 1, 3]}),
    ("bands --q zero --a 0.9 --grid 1:2", None),
    ("flatbands --q zero --a 0.9 --grid 0:1:0", None),
    ("masses --config run.json",
     {"potential": "zero", "magnetic": {"a": 0.9}, "grid": "0:1"}),
    ("bands --q zero --a 0.9 --output nodir/out.json", None),
    ("bands --q zero --a 0.9 --output .", None),
    ("bands --config run.json",
     {"potential": "zero", "magnetic": {"a": 0.9, "N": 2.5}}),
    ("bands --config run.json",
     {"potential": "zero", "magnetic": {"a": 0.9, "N": True}}),
    ("bands --config run.json",
     {"potential": "zero", "magnetic": {"a": 0.9}, "n_max": 7.9}),
    ("bands --config run.json",
     {"potential": "zero", "magnetic": {"a": "0.9"}}),
    ("bands --q two-step --a nan --n-max 3", None),
    ("bands --q two-step --a inf", None),
    ("bands --q two-step --B nan --N 2 --n-max 3", None),
    ("masses --q two-step --B=-inf --N 2", None),
    # json.load reads NaN
    ("bands --config run.json",
     {"potential": "two-step", "magnetic": {"a": math.nan}}),
    # a potential value that is not finite, however it is given
    ("bands --q [[0.5,NaN],[0.5,1]] --a 0.9", None),
    ("flatbands --q [[0.5,NaN],[0.5,1]] --a 0.9", None),
    ("oracle --q [[0.5,NaN],[0.5,1]] --a 0.9", None),
    ("dispersion --q [[0.5,NaN],[0.5,1]] --a 0.9 --grid 1:2:3", None),
    ("bands --q [[0.5,Infinity],[0.5,1]] --a 0.9", None),
    ("masses --q [1,-Infinity] --a 0.9", None),
    ("bands --config run.json",
     {"potential": {"samples": [1, math.inf]}, "magnetic": {"a": 0.9}}),
    ("verify --config run.json",
     {"potential": {"name": "two-step", "shift": math.nan},
      "magnetic": {"a": 0.9}}),
])
def test_malformed_input_is_a_usage_error(argv, config, tmp_path, capsys,
                                          monkeypatch):
    # a malformed flag, config file or grid, or an output path that
    # cannot be written, exits 2 with one error line, not 1 as a failed
    # computation and not with a traceback, and writes no file
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("NANOBAND_OUT_DIR", raising=False)
    if config is not None:
        (tmp_path / "run.json").write_text(json.dumps(config))
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert "nanoband: error: " in err and "Traceback" not in err
    assert not out
    assert sorted(p.name for p in tmp_path.iterdir()) == (
        [] if config is None else ["run.json"])


def test_oracle_default_grid(capsys):
    code, out, _ = run_cli(["oracle", "--q", "zero", "--a", "0.9"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["grid"] == "0:40:200"
    res = doc["result"]
    assert res["points"] + len(res["skipped_near_flat_bands"]) == 200


def test_computation_error_exit_code(capsys):
    # pure-point regime: band structure is refused with exit code 1
    code, out, err = run_cli(["bands", "--q", "zero", "--a", HALF_PI], capsys)
    assert code == 1
    assert "pure point" in err


def test_overflow_far_below_the_potential_exit_code(capsys):
    code, out, err = run_cli(["dispersion", "--q", "zero", "--a", "0.9",
                              "--grid=-7e5:0:3"], capsys)
    assert code == 1 and not out
    assert err.startswith("nanoband: error: lambda=-700000.0 ")


def test_silent_overflow_below_the_potential_exit_code(capsys):
    # xi at -4e5 is inf although cosh of the piece is finite
    code, out, err = run_cli(["dispersion", "--q", "zero", "--a", "0.9",
                              "--grid=-4e5:0:2"], capsys)
    assert code == 1 and not out
    assert err.startswith("nanoband: error: lambda=-400000.0 ")


def test_byte_identical_reruns(capsys):
    args = ["verify", "--q", "two-step", "--a", "0.9", "--n-max", "12"]
    _, out1, _ = run_cli(args, capsys)
    _, out2, _ = run_cli(args, capsys)
    assert out1 == out2


def test_dispersion_row_count(capsys):
    code, out, _ = run_cli(["dispersion", "--q", "zero", "--a", "0",
                            "--grid", "0:40:400"], capsys)
    assert code == 0
    doc = json.loads(out)
    rows = doc["result"]["rows"]
    assert len(rows) == 400
    assert rows[0]["lambda"] == 0.0
    assert rows[-1]["lambda"] == 40.0


def test_dispersion_csv_rows(capsys):
    code, out, _ = run_cli(["dispersion", "--q", "zero", "--a", "0",
                            "--grid", "0:10:50", "--format", "csv"], capsys)
    assert code == 0
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert lines[0] == "lambda,re_k,im_k"
    assert len(lines) == 51


def test_flatbands_pure_point_regime(capsys):
    code, out, _ = run_cli(["flatbands", "--q", "zero", "--a", HALF_PI,
                            "--n-max", "5"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["pure_point_regime"] is True
    diri = doc["result"]["dirichlet"]
    assert abs(diri[0] - math.pi ** 2) < 1e-9
    zeta = 0.5 * math.acos(-7.0 / 9.0)
    locus = doc["result"]["f_locus"]
    assert abs(locus[0] - zeta ** 2) < 1e-9
    assert len(doc["result"]["all"]) == len(diri) + len(locus)


def test_masses_output(capsys):
    code, out, _ = run_cli(["masses", "--q", "two-step", "--a", "0.9",
                            "--n-max", "4"], capsys)
    assert code == 0
    doc = json.loads(out)
    entries = doc["result"]["entries"]
    assert len(entries) == 4
    assert entries[0]["mu_plus"] > 0 > entries[0]["mu_minus"]


def test_verify_output_summary(capsys):
    code, out, _ = run_cli(["verify", "--q", "two-step", "--a", "0.9",
                            "--n-max", "10"], capsys)
    assert code == 0
    doc = json.loads(out)
    res = doc["result"]
    assert res["summary"]["failures"] == 0
    assert res["trace_residual"] < 0.05
    assert all(r["residual_rel"] < 1e-2 for r in res["partial_fraction"])
    assert any(r["check"].startswith("h <=") for r in res["inequalities"])


def test_oracle_output(capsys):
    code, out, _ = run_cli(["oracle", "--q", "zero", "--a", "0",
                            "--grid", "0.05:40:100"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["max_deviation"] < 1e-7
    assert doc["result"]["membership_mismatches"] == []


def test_config_file_and_flag_override(tmp_path, capsys):
    cfg = {"potential": {"pieces": [[0.5, 2.0], [0.5, -2.0]]},
           "magnetic": {"a": 0.9}, "n_max": 3}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run_cli(["bands", "--config", str(path)], capsys)
    assert code == 0
    assert len(json.loads(out)["result"]["gaps"]) == 3
    code, out, _ = run_cli(["bands", "--config", str(path),
                            "--n-max", "5"], capsys)
    assert len(json.loads(out)["result"]["gaps"]) == 5


def test_inline_json_potential(capsys):
    code, out, _ = run_cli(["bands", "--q", "[[0.5, 2.0], [0.5, -2.0]]",
                            "--a", "0.9", "--n-max", "2"], capsys)
    assert code == 0
    assert json.loads(out)["config"]["potential"]["q0"] == 0.0


def test_output_file_and_env_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("NANOBAND_OUT_DIR", str(tmp_path))
    code, out, _ = run_cli(["bands", "--q", "zero", "--a", "0",
                            "--n-max", "2", "--output", "bands.json"], capsys)
    assert code == 0
    assert out == ""
    doc = json.loads((tmp_path / "bands.json").read_text())
    assert doc["command"] == "bands"


def test_field_strength_conversion_echo(capsys):
    code, out, _ = run_cli(["bands", "--q", "zero", "--B", "1.0",
                            "--N", "4", "--j", "0", "--n-max", "2"], capsys)
    assert code == 0
    mag = json.loads(out)["config"]["magnetic"]
    ref = (3.0 / 16.0) / math.tan(math.pi / 8)
    assert abs(mag["a"] - ref) < 1e-12
    assert mag["B"] == 1.0


def test_float_serialization_round_trips(capsys):
    import nanoband
    code, out, _ = run_cli(["bands", "--q", "two-step", "--a", "0.9",
                            "--n-max", "2"], capsys)
    doc = json.loads(out)
    bs = nanoband.band_structure(nanoband.make_potential("two-step"),
                                 nanoband.MagneticConfig(a=0.9), 2)
    assert doc["result"]["lambda0"] == bs.lambda0
    assert doc["result"]["gaps"][1]["lambda_plus"] == bs.plus[1]


def test_verify_csv_summary_block(capsys):
    code, out, _ = run_cli(["verify", "--q", "two-step", "--a", "0.9",
                            "--n-max", "8", "--format", "csv"], capsys)
    assert code == 0
    comments = [l for l in out.splitlines() if l.startswith("#")]
    assert any(l.startswith("# trace_residual=") for l in comments)
    assert any(l.startswith("# failures=") for l in comments)
    body = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert body[0].startswith("check,")
    assert len(body) > 8  # one line per gap and check


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "nanoband.cli", "bands", "--q", "zero",
         "--a", "0", "--n-max", "2"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["command"] == "bands"


@pytest.mark.parametrize("golden", sorted(README_COMMANDS))
def test_readme_commands_match_golden_bytes(golden, capsys):
    code, out, _ = run_cli(README_COMMANDS[golden].split(), capsys)
    assert code == 0
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")


def test_dispersion_at_near_pure_point_edge_is_clean(capsys):
    # at c = 1e-4 the edge computed by `bands` sits a little outside the
    # comb branch (xi ~ 1/c is steep), within the edge resolution that
    # k_eval allows for: the dispersion there is a value
    a = repr(math.acos(1e-4))
    code, out, _ = run_cli(["bands", "--q", "two-step", "--a", a], capsys)
    assert code == 0
    edge = repr(json.loads(out)["result"]["gaps"][0]["lambda_minus"])
    code, out, err = run_cli(["dispersion", "--q", "two-step", "--a", a,
                              "--grid", f"{edge}:{edge}:1"], capsys)
    assert code == 0, err


def test_parser_serves_many_requests_in_one_process(capsys):
    # the parser is built once per process and reused by every main()
    # call; an earlier usage error or failed computation leaves no trace
    # in the bytes of a later request
    from nanoband.cli import _build_parser
    assert _build_parser() is _build_parser()
    with pytest.raises(SystemExit) as exc:
        main(["bands", "--q", "zero"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, _, err = run_cli(["bands", "--q", "zero", "--a", HALF_PI], capsys)
    assert code == 1 and "pure point" in err
    code, out, _ = run_cli(README_COMMANDS["dispersion_zero.json"].split(),
                           capsys)
    assert code == 0
    assert out == (GOLDEN / "dispersion_zero.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("command", README_CLI)
def test_readme_json_is_what_the_standard_encoder_writes(command, capsys):
    code, out, _ = run_cli(command.split(), capsys)
    assert code == 0
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=1) + "\n"


# Payloads for the JSON writer: the scalars a CLI result can hold and
# the edge cases of the standard encoder, nested in dicts, lists and
# tuples, and tables (lists of flat dicts sharing one key set) whose
# rows insert their keys in different orders, or with one row of
# another key set, or with one nested value.
_TEXT = st.one_of(
    st.text(max_size=6),
    st.sampled_from(['"', "\\", "\x00\x1f\n\t", "caf\u00e9 \u2203",
                     "\U0001f600", "%", "%s", "100%%", "%(k)s"]))
_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16,
                     1e-5]),
    st.floats().map(np.float64))
_SCALARS = st.one_of(_FLOATS, st.integers(), st.integers(min_value=2 ** 64),
                     st.booleans(), st.none(), _TEXT)


@st.composite
def _tables(draw, values):
    keys = draw(st.lists(_TEXT, min_size=1, max_size=4, unique=True))
    rows = [{k: draw(_SCALARS) for k in draw(st.permutations(keys))}
            for _ in range(draw(st.integers(1, 4)))]
    i = draw(st.integers(0, len(rows) - 1))
    kind = draw(st.sampled_from(["table", "other keys", "nested"]))
    if kind == "other keys":
        rows[i] = {draw(_TEXT): v for v in rows[i].values()}
    elif kind == "nested":
        rows[i][keys[0]] = draw(st.one_of(st.lists(values, max_size=2),
                                          st.dictionaries(_TEXT, values,
                                                          max_size=2)))
    return rows


_PAYLOADS = st.recursive(
    _SCALARS,
    lambda values: st.one_of(
        st.lists(values, max_size=4), st.tuples(values, values),
        st.dictionaries(_TEXT, values, max_size=4), _tables(values)),
    max_leaves=24)


@settings(max_examples=400, deadline=None)
@given(_PAYLOADS)
def test_json_writer_matches_the_standard_encoder(payload):
    assert _to_json(payload) == reference_json(payload)


# every kind of value the CSV comment lines can hold, nested
_NESTED = {"b": {"t": (1, (2.5, ())), "e": {}, "l": []},
           "a": [True, False, None, {"z": -3, "y": {"x": [math.nan]}}],
           "inf": (math.inf, -math.inf), "big": 2 ** 70, "": "%s"}


@settings(max_examples=400, deadline=None)
@given(_PAYLOADS)
@example(_NESTED)
def test_one_line_json_matches_the_standard_encoder(payload):
    # the form of the CSV comment lines: json.dumps without an indent
    assert _to_json(payload, None) == reference_json(payload, None)

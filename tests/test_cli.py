import argparse
import csv
import importlib
import inspect
import io
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import jsonschema
import pytest

from ulbkit import __version__, asymptotics, levenshtein, oracle
from ulbkit.cli import build_parser, main
from ulbkit.pmspace import make_space
from ulbkit.potentials import builtin
from ulbkit.ulb import ulb

SCHEMA = json.loads(
    (Path(__file__).resolve().parents[1] / "docs" / "schemas" / "report.schema.json").read_text()
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ulb_report(capsys):
    code, out, _ = run_cli(
        capsys, "ulb", "--space", "sphere", "--n", "3", "--M", "4",
        "--potential", "riesz", "--p", "1",
    )
    assert code == 0
    report = json.loads(out)
    assert report["schema_version"] == 3
    assert report["tool"]["name"] == "ulbkit"
    assert report["params"]["n"] == 3
    assert report["result"]["value_sum"] == pytest.approx(7.348469, abs=1e-6)
    assert report["result"]["certificate_checks"]["below_h"]


def test_quadrature_report(capsys):
    code, out, _ = run_cli(
        capsys, "quadrature", "--space", "hamming", "--n", "8", "--q", "2", "--M", "16"
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert result["tau"] == 2
    assert result["nodes"][0] == pytest.approx(-1.0)
    assert result["weights"] == pytest.approx([1 / 16, 14 / 16], abs=1e-12)
    assert result["power_sum_residual"] < 1e-12


def test_testfns_report(capsys):
    code, out, _ = run_cli(
        capsys, "testfns", "--space", "sphere", "--n", "4", "--M", "24", "--jmax", "10"
    )
    assert code == 0
    result = json.loads(out)["result"]
    tau = result["tau"]
    for j, v in zip(result["j"], result["P"]):
        if 1 <= j <= tau:
            assert abs(v) < 1e-8
    assert result["first_negative_j"] is not None


def test_determinism(capsys):
    argv = ["ulb", "--space", "sphere", "--n", "4", "--M", "10",
            "--potential", "gaussian", "--c", "1"]
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_validation_errors_exit_2(capsys):
    code, _, err = run_cli(
        capsys, "ulb", "--space", "johnson", "--n", "9", "--w", "5", "--M", "5",
        "--potential", "riesz", "--p", "1",
    )
    assert code == 2
    assert json.loads(err)["error"]["type"] == "ParameterError"
    code, _, err = run_cli(
        capsys, "ulb", "--space", "sphere", "--n", "3", "--M", "4", "--potential", "log"
    )
    assert code == 2
    assert json.loads(err)["error"]["type"] == "MonotonicityError"
    # H(1000,2)'s levels end at tau 300 with its systems; past them the
    # refusal is a degree overflow, not a failed Stieltjes run
    code, out, err = run_cli(
        capsys, "ulb", "--space", "hamming", "--n", "1000", "--q", "2", "--M", str(2 * 10**264),
        "--potential", "gaussian", "--c", "1",
    )
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "DegreeOverflowError" and error["message"].endswith("(needs tau >= 301)")
    # a tolerance must be finite and >= 0
    for flag, value in (("--abs-tol", "nan"), ("--rel-tol", "-1e-9"), ("--abs-tol", "inf")):
        code, out, err = run_cli(
            capsys, "ulb", "--space", "sphere", "--n", "3", "--M", "4",
            "--potential", "riesz", "--p", "1", f"{flag}={value}",
        )
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "ParameterError" and "finite and >= 0" in error["message"]
    # oracle exhaustive checks n and M before the size of the search
    for n, M in (("4", "-1"), ("-2", "3"), ("30", "1"), ("4", "17")):
        code, out, err = run_cli(
            capsys, "oracle", "exhaustive", "--n", n, "--M", M, "--potential", "riesz", "--p", "1"
        )
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "ParameterError"
        assert ("n >= 2" if n == "-2" else "2 <= M") in error["message"]
    # as is one whose search would take minutes
    code, out, err = run_cli(
        capsys, "oracle", "exhaustive", "--n", "12", "--M", "4095",
        "--potential", "riesz", "--p", "1",
    )
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "ParameterError" and "pair terms" in error["message"]
    # oracle minimize needs at least one restart
    for restarts in ("0", "-3"):
        code, out, err = run_cli(
            capsys, "oracle", "minimize", "--n", "3", "--M", "4", "--restarts", restarts,
            "--potential", "riesz", "--p", "1",
        )
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "ParameterError" and "restarts >= 1" in error["message"]
    # every energy report carries the sum and the mean: there is no --convention
    space = ["--space", "sphere", "--n", "3", "--potential", "riesz", "--p", "1"]
    for argv in (["ulb", *space, "--M", "4"], ["improve", *space, "--M", "7", "--degree", "6"],
                 ["oracle", "energy", *space, "--config", "simplex"],
                 ["oracle", "exhaustive", "--n", "4", "--M", "3", "--potential", "riesz", "--p", "1"]):
        code, out, err = run_cli(capsys, *argv, "--convention", "mean")
        assert code == 2 and out == ""
        assert "unrecognized arguments: --convention mean" in err


@pytest.mark.parametrize(
    "potential, flag, value",
    [("riesz", "--p", "nan"), ("riesz", "--p", "inf"), ("gaussian", "--c", "nan")],
)
def test_non_finite_potential_parameter_exits_2(capsys, potential, flag, value):
    # refused as a parameter, not later as a potential that is not absolutely monotone
    code, out, err = run_cli(
        capsys, "ulb", "--space", "sphere", "--n", "3", "--M", "4",
        "--potential", potential, flag, value,
    )
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "ParameterError" and f"needs a finite {flag[2:]} > 0" in error["message"]


def test_missing_potential_param_exit_2(capsys):
    code, _, err = run_cli(
        capsys, "ulb", "--space", "sphere", "--n", "3", "--M", "4", "--potential", "riesz"
    )
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [["ulb", "--space", "sphere", "--n", "3", "--M", "abc", "--potential", "riesz", "--p", "1"],
     ["asymptotics", "--family", "sphere", "--tau", "1", "--potential", "gaussian", "--c", "1",
      "--n-range", "8:x"],
     ["ulb", "--space", "sphere", "--n", "3", "--M", "5:3", "--potential", "riesz", "--p", "1"]],
    ids=["ulb-M", "asymptotics-n-range", "ulb-M-empty"],
)
def test_bad_integer_range_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    # "bad integer range '8:x'", "empty range '5:3'"
    assert error["type"] == "ParameterError" and "range '" in error["message"]


@pytest.mark.parametrize(
    "argv, message",
    [(["ulb", "--space", "sphere", "--n", "3", "--M", "4"], "a --potential is required"),
     (["design-energy", "--space", "sphere", "--n", "3", "--M", "12", "--tau", "5",
       "--direction", "lower", "--potential", "riesz", "--p", "1"],
      "a --poly coefficient list is required"),
     (["oracle", "energy", "--space", "sphere", "--n", "3", "--potential", "riesz", "--p", "1"],
      "need --config or --points-json"),
     (["ulb", "--space", "sphere", "--n", "3", "--M", "4", "--potential", "series",
       "--coeffs", "1,x"], "bad number list '1,x'")],
    ids=["no-potential", "no-poly", "no-code", "bad-coeffs"],
)
def test_a_missing_or_malformed_input_exits_2(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "ParameterError" and error["message"] == message


_SPACE = ["field_dim", "n", "q", "space", "w"]
_POTENTIAL = ["c", "coeffs", "j", "p", "potential"]
_IO = ["format", "out"]
# every option each subcommand declares: each one is read by its handler
_FLAGS = {
    "ulb": _SPACE + _POTENTIAL + _IO + ["M", "abs_tol", "odd_branch", "rel_tol"],
    "quadrature": _SPACE + _IO + ["M"],
    "lev-bound": _SPACE + _IO + ["s", "tau"],
    "design-bound": _SPACE + _IO + ["tau"],
    "testfns": _SPACE + _IO + ["M", "jmax"],
    "improve": _SPACE + _POTENTIAL + _IO + ["M", "degree", "eta"],
    "design-energy": _SPACE + _POTENTIAL + _IO + ["I", "M", "direction", "poly", "poly_basis", "tau"],
    "separated-energy": _SPACE + _POTENTIAL + _IO + ["M", "poly", "poly_basis", "s"],
    "oracle energy": _SPACE + _POTENTIAL + _IO + ["config", "points_json"],
    "oracle strength": _SPACE + _IO + ["config", "points_json", "tau_max"],
    "oracle named": _SPACE + _IO + ["config"],
    "oracle minimize": _POTENTIAL + _IO + ["M", "n", "restarts", "seed"],
    "oracle exhaustive": _POTENTIAL + _IO + ["M", "n"],
    "asymptotics": _POTENTIAL + _IO + ["delta", "family", "n_range", "rho", "tau"],
    "selfcheck": _IO,
}


def _declared_flags(parser, prefix=""):
    out = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                out |= _declared_flags(child, f"{prefix} {name}".strip())
            return out
    out[prefix] = sorted(
        a.dest for a in parser._actions if a.option_strings and a.dest != "help"
    )
    return out


def test_cli_flag_surface():
    declared = _declared_flags(build_parser())
    assert declared == {cmd: sorted(flags) for cmd, flags in _FLAGS.items()}
    assert sum(len(flags) for flags in declared.values()) == 165


_SUBCOMMAND_NAMES = sorted({cmd.split()[0] for cmd in _FLAGS})
_ORACLE_NAMES = [cmd.split()[1] for cmd in _FLAGS if cmd.startswith("oracle ")]


@pytest.mark.parametrize(
    "argv",
    [[], ["--help"], ["-h"], ["--version"], ["nope"], ["--nope"], ["-", "ulb"], ["--", "nope"],
     ["--", "quadrature", "--help"], ["-x", "ulb", "--help"], ["ulb", "--space", "cube"],
     ["ulb", "--space", "sphere", "--n", "3"], ["quadrature", "--M", "x"],
     ["oracle"], ["oracle", "nope"], ["oracle", "minimize", "--n", "3"],
     ["selfcheck", "--format", "yaml"],
     ["ulb", "--space", "sphere", "--n", "3", "--M", "4", "--potential", "riesz", "--p", "1", "-y"]]
    + [[cmd, "--help"] for cmd in _SUBCOMMAND_NAMES]
    + [["oracle", name, "--help"] for name in _ORACLE_NAMES],
    ids=" ".join,
)
def test_cli_builds_only_the_chosen_subcommand_byte_for_byte(capsys, monkeypatch, argv):
    # main builds the arguments of the chosen subcommand only; help, usage
    # errors and exit codes are those of the parser with every subcommand
    built = []

    def chosen(command=None):
        built.append(command)
        return build_parser(command)

    monkeypatch.setattr("ulbkit.cli.build_parser", chosen)
    got = run_cli(capsys, *argv)
    monkeypatch.setattr("ulbkit.cli.build_parser", lambda command=None: build_parser())
    assert got == run_cli(capsys, *argv)
    assert built and built[0] is not None


def test_cli_parser_of_one_subcommand_parses_as_the_full_one():
    full = build_parser()
    space = ["--space", "hamming", "--n", "5", "--q", "2"]
    for argv in (["ulb", *space, "--M", "4:6", "--potential", "riesz", "--p", "1"],
                 ["oracle", "exhaustive", "--n", "4", "--M", "3", "--potential", "gaussian"],
                 ["design-energy", *space, "--M", "4", "--tau", "2", "--direction", "lower",
                  "--I", "-1", "0.5"],
                 ["selfcheck"]):
        assert build_parser(argv[0]).parse_args(argv) == full.parse_args(argv)
    # the others list their names and help but declare no flag
    assert _declared_flags(build_parser("quadrature")) == {
        name: sorted(_FLAGS["quadrature"]) if name == "quadrature" else []
        for name in _SUBCOMMAND_NAMES
    }


@pytest.mark.parametrize(
    "argv,library",
    [(["quadrature", "--space", "sphere", "--n", "3", "--M", "12", "--seed", "1"], False),
     (["improve", "--space", "sphere", "--n", "3", "--M", "7", "--degree", "6",
       "--potential", "riesz", "--p", "1", "--abs-tol", "1e-3"], False),
     (["oracle", "named", "--space", "sphere", "--n", "3", "--config", "icosahedron",
       "--points-json", "f"], False),
     # declared flags the space or the potential does not take: the library refuses them
     (["ulb", "--space", "sphere", "--n", "3", "--q", "7", "--M", "4",
       "--potential", "riesz", "--p", "1"], True),
     (["ulb", "--space", "sphere", "--n", "3", "--M", "4",
       "--potential", "gaussian", "--c", "1", "--p", "9"], True)],
    ids=["quadrature-seed", "improve-abs-tol", "named-points-json", "sphere-q", "gaussian-p"],
)
def test_subcommands_reject_flags_they_do_not_read(capsys, argv, library):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    if library:
        assert json.loads(err)["error"]["type"] == "ParameterError"


def test_m_range_sweep(capsys):
    code, out, _ = run_cli(
        capsys, "ulb", "--space", "sphere", "--n", "3", "--M", "4:6",
        "--potential", "riesz", "--p", "1",
    )
    assert code == 0
    reports = json.loads(out)["result"]["reports"]
    assert [r["M"] for r in reports] == [4, 5, 6]
    assert reports[0]["value_sum"] < reports[1]["value_sum"] < reports[2]["value_sum"]


def test_design_energy_subcommand(capsys):
    code, out, _ = run_cli(
        capsys, "design-energy", "--space", "sphere", "--n", "3", "--M", "10",
        "--tau", "3", "--direction", "lower", "--poly", "0.3",
        "--potential", "riesz", "--p", "1",
    )
    assert code == 0
    assert json.loads(out)["result"]["bound"] == pytest.approx(0.3 * 10 * 9, rel=1e-12)


def test_separated_energy_subcommand(capsys):
    code, out, _ = run_cli(
        capsys, "separated-energy", "--space", "sphere", "--n", "3", "--M", "6",
        "--s", "0.0", "--poly", "1.2", "--potential", "gaussian", "--c", "1",
    )
    assert code == 0
    assert json.loads(out)["result"]["bound"] == pytest.approx(1.2 * 6 * 5, rel=1e-12)


def test_design_energy_interval_with_a_negative_end(capsys):
    # f = h(-0.5) lies above the increasing h below -0.5, so only the
    # interval makes it a certificate
    argv = ["design-energy", "--space", "sphere", "--n", "3", "--M", "8", "--tau", "2",
            "--direction", "lower", "--poly", "0.5773502691896257",
            "--potential", "riesz", "--p", "1"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and json.loads(err)["error"]["type"] == "ConditionError"
    code, out, _ = run_cli(capsys, *argv, "--I", "-0.5", "0.5")
    assert code == 0
    report = json.loads(out)
    assert report["params"]["I"] == [-0.5, 0.5]
    assert report["result"]["bound"] == pytest.approx(0.5773502691896257 * 8 * 7, rel=1e-12)


def test_design_and_separated_energy_refuse_meaningless_inputs(capsys):
    for argv in (
        ["design-energy", "--space", "sphere", "--n", "3", "--M", "10", "--tau", "-3",
         "--direction", "lower", "--poly", "0.3,0,0,0,0", "--potential", "riesz", "--p", "1"],
        ["separated-energy", "--space", "sphere", "--n", "3", "--M", "6", "--s", "-2",
         "--poly", "0.1", "--potential", "gaussian", "--c", "1"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["type"] == "ParameterError"


@pytest.mark.parametrize("poly", ["0.1,nan", "inf", "nan,0,0", "inf,1"])
@pytest.mark.parametrize(
    "argv",
    [["design-energy", "--tau", "0", "--direction", "lower", "--potential", "riesz", "--p", "1"],
     ["design-energy", "--tau", "0", "--direction", "upper", "--potential", "gaussian", "--c", "1"],
     ["separated-energy", "--s", "0.0", "--potential", "gaussian", "--c", "1"]],
    ids=["lower", "upper", "separated"],
)
def test_non_finite_certificates_are_refused(capsys, argv, poly):
    # a NaN coefficient used to pass every comparison and print "bound": null
    for basis in ("monomial", "q"):
        code, out, err = run_cli(capsys, *argv, "--space", "sphere", "--n", "3", "--M", "10",
                                 "--poly", poly, "--poly-basis", basis)
        # stderr holds the JSON error alone, no numpy warning
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["type"] == "ParameterError"


def test_oracle_exhaustive_refuses_a_huge_instance_at_once():
    # the size check must not build C(2^24, 2^23) exactly; a subprocess
    # with a timeout, so a slow refusal fails instead of stalling the suite
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "ulbkit.cli", "oracle", "exhaustive", "--n", "24",
         "--M", str(2**23), "--potential", "riesz", "--p", "1"],
        capture_output=True, text=True, timeout=20, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert "C(2^24, 8388608) > 1e7" in json.loads(proc.stderr)["error"]["message"]


def test_oracle_subcommands(capsys):
    code, out, _ = run_cli(
        capsys, "oracle", "strength", "--space", "sphere", "--n", "3",
        "--config", "icosahedron", "--tau-max", "8",
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert result["strength"] == 5 and result["M"] == 12
    code, out, _ = run_cli(
        capsys, "oracle", "energy", "--space", "sphere", "--n", "3",
        "--config", "simplex", "--potential", "riesz", "--p", "1",
    )
    result = json.loads(out)["result"]
    assert result["energy_sum"] == pytest.approx(7.348469, abs=1e-6)
    assert result["energy_mean"] == result["energy_sum"] / 4
    code, out, _ = run_cli(
        capsys, "oracle", "exhaustive", "--n", "4", "--M", "2",
        "--potential", "riesz", "--p", "1",
    )
    result = json.loads(out)["result"]
    assert result["energy_sum"] == pytest.approx(1.0, rel=1e-12)
    assert result["energy_mean"] == result["energy_sum"] / 2


# stdout of `oracle exhaustive --n 4 --M 3 --potential riesz --p 1`: the
# code and energy_sum as the pair-by-pair search printed them
EXHAUSTIVE_4_3 = """{
  "command": "oracle",
  "params": {
    "M": 3,
    "command": "oracle",
    "n": 4,
    "oracle_cmd": "exhaustive",
    "p": 1.0,
    "potential": "riesz"
  },
  "result": {
    "M": 3,
    "energy_mean": 1.2412048797105326,
    "energy_sum": 3.723614639131598,
    "space": "H(4,2)",
    "words": [
      [
        0,
        0,
        0,
        0
      ],
      [
        0,
        0,
        1,
        1
      ],
      [
        1,
        1,
        0,
        1
      ]
    ]
  },
  "schema_version": 3,
  "tool": {
    "name": "ulbkit",
    "version": "VERSION"
  }
}
"""


def test_oracle_searches_print_the_same_bytes(capsys):
    argv = ("oracle", "minimize", "--n", "3", "--M", "7", "--potential", "riesz", "--p", "1",
            "--restarts", "20", "--seed", "1")
    first = run_cli(capsys, *argv)
    assert first[0] == 0
    assert run_cli(capsys, *argv) == first
    code, out, _ = run_cli(capsys, "oracle", "exhaustive", "--n", "4", "--M", "3",
                           "--potential", "riesz", "--p", "1")
    assert code == 0
    assert out == EXHAUSTIVE_4_3.replace("VERSION", __version__)


def test_oracle_points_json(tmp_path, capsys):
    path = tmp_path / "code.json"
    path.write_text(json.dumps({"points": [[0, 0, 1], [0, 0, -1]]}))
    code, out, _ = run_cli(
        capsys, "oracle", "energy", "--space", "sphere", "--n", "3",
        "--points-json", str(path), "--potential", "gaussian", "--c", "1",
    )
    assert code == 0
    assert json.loads(out)["result"]["energy_sum"] == pytest.approx(2 * 2.718281828459045**-1)


def test_asymptotics_csv(capsys):
    code, out, _ = run_cli(
        capsys, "asymptotics", "--family", "sphere", "--tau", "1", "--delta", "0",
        "--potential", "gaussian", "--c", "1", "--n-range", "8:16:4", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    header = lines[0].split(",")
    for col in ("n", "M", "s", "alpha_0", "rho_0_M", "remainder", "limit", "ratio1", "ratio2"):
        assert col in header
    assert len(lines) == 4


def test_ulb_csv_cells_are_the_json_report_values(capsys):
    argv = ["ulb", "--space", "sphere", "--n", "3", "--M", "10:14", "--potential", "riesz", "--p", "1"]
    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    reports = json.loads(run_cli(capsys, *argv)[1])["result"]["reports"]
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == len(reports) == 5
    nested = 0
    for row, report in zip(rows, reports):
        assert set(row) == set(report)
        for key, cell in row.items():
            if isinstance(report[key], (dict, list)):
                # a nested cell is JSON, keys sorted, as in the JSON report
                assert cell == json.dumps(report[key], sort_keys=True), key
                assert json.loads(cell) == report[key], key
                nested += 1
            else:
                assert cell == str(report[key]), key
    # the rule, the certificate and its checks of each report
    assert nested == 15


def test_report_roundtrip_and_out_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "quadrature", "--space", "sphere", "--n", "3", "--M", "12",
        "--out", str(out_path),
    )
    assert code == 0 and out == ""
    report = json.loads(out_path.read_text())
    assert report["result"]["M"] == 12


def test_asymptotics_missing_rho_yields_null_limit(capsys):
    code, out, _ = run_cli(
        capsys, "asymptotics", "--family", "sphere", "--tau", "2",
        "--potential", "gaussian", "--c", "1", "--n-range", "8:12:4",
    )
    assert code == 0
    result = json.loads(out)["result"]  # strict JSON: NaN mapped to null
    assert result["limit"] is None
    assert all(row["limit"] is None for row in result["rows"])


def _hamming_rows():
    query = asymptotics.AsymptoticQuery("hamming", 9, builtin("gaussian", c=1), n_range=(8, 48))
    rows = asymptotics.sweep(query)
    assert rows[0] == {"n": 8, "skipped": "H(8,2) has no level 9"}
    return {"family": "hamming", "tau": 9, "delta": 0.0, "limit": asymptotics.limit_expression(query),
            "rows": rows}


# inputs of the schema test, each with the result the library gives for it
LIBRARY_RESULTS = {
    ("lev-bound", "--space", "sphere", "--n", "3", "--tau", "3", "--s", "0.2"): lambda: {
        "space": "S^2", "tau": 3, "s": 0.2,
        "bound": levenshtein.lev_bound(make_space("sphere", n=3), 3, 0.2)},
    ("design-bound", "--space", "johnson", "--n", "12", "--w", "4", "--tau", "3"): lambda: {
        "space": "J(12,4)", "tau": 3,
        "bound": levenshtein.design_bound(make_space("johnson", n=12, w=4), 3)},
    ("oracle", "named", "--space", "sphere", "--n", "3", "--config", "icosahedron"): lambda: {
        "space": "S^2", "config": "icosahedron", "M": 12,
        "points": oracle.named_config(make_space("sphere", n=3), "icosahedron").points.tolist()},
    # H(8,2) has no level 9: its row is skipped with a note
    ("asymptotics", "--family", "hamming", "--tau", "9", "--n-range", "8,48",
     "--potential", "gaussian", "--c", "1"): _hamming_rows,
}


def test_reports_validate_against_schema(capsys):
    cases = [
        ["ulb", "--space", "sphere", "--n", "3", "--M", "12",
         "--potential", "riesz", "--p", "1"],
        ["improve", "--space", "sphere", "--n", "3", "--M", "7", "--degree", "6",
         "--potential", "riesz", "--p", "1"],
        ["quadrature", "--space", "johnson", "--n", "10", "--w", "5", "--M", "20"],
        ["testfns", "--space", "hamming", "--n", "8", "--q", "2", "--M", "20", "--jmax", "8"],
        ["asymptotics", "--family", "sphere", "--tau", "3",
         "--potential", "gaussian", "--c", "1", "--n-range", "8:16:4"],
        ["selfcheck"],
        # tau 27..55 on S^2; exit 0 means both certificate checks passed
        ["ulb", "--space", "sphere", "--n", "3", "--M", "225", "--potential", "riesz", "--p", "1"],
        ["ulb", "--space", "sphere", "--n", "3", "--M", "400", "--potential", "riesz", "--p", "1"],
        ["ulb", "--space", "sphere", "--n", "3", "--M", "825", "--potential", "riesz", "--p", "1"],
        ["ulb", "--space", "sphere", "--n", "3", "--M", "825",
         "--potential", "gaussian", "--c", "1"],
        ["oracle", "energy", "--space", "sphere", "--n", "3", "--config", "icosahedron",
         "--potential", "riesz", "--p", "1"],
        ["oracle", "exhaustive", "--n", "4", "--M", "3", "--potential", "gaussian", "--c", "1"],
    ] + [list(argv) for argv in LIBRARY_RESULTS]
    rule_schema = {"$ref": "#/$defs/rule", "$defs": SCHEMA["$defs"]}
    bound_schema = {"$ref": "#/$defs/bound_report", "$defs": SCHEMA["$defs"]}
    row_schema = {"$ref": "#/$defs/asymptotic_row", "$defs": SCHEMA["$defs"]}
    for argv in cases:
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0, argv
        report = json.loads(out)
        jsonschema.validate(report, SCHEMA)
        if argv[0] in ("ulb", "improve"):
            jsonschema.validate(report["result"], bound_schema)
            jsonschema.validate(report["result"]["rule"], rule_schema)
        if argv[0] == "oracle" and argv[1] in ("energy", "exhaustive"):
            result = report["result"]
            assert result["energy_mean"] == result["energy_sum"] / result["M"], argv
        if argv[0] == "ulb":
            # every certificate coefficient is reported, and the checks read all of them
            result = report["result"]
            coeffs = result["certificate_q_coeffs"]
            assert len(coeffs) == result["rule"]["tau"] + 1, argv
            assert result["certificate_checks"]["min_q_coefficient"] == min(coeffs), argv
        elif argv[0] == "quadrature":
            jsonschema.validate(report["result"], rule_schema)
        elif argv[0] == "asymptotics":
            for row in report["result"]["rows"]:
                jsonschema.validate(row, row_schema)
        if tuple(argv) in LIBRARY_RESULTS:
            assert report["result"] == LIBRARY_RESULTS[tuple(argv)](), argv


def test_human_format_echoes_the_parameters_and_the_json_result(capsys):
    argv = ["design-bound", "--space", "johnson", "--n", "12", "--w", "4", "--tau", "3"]
    code, out, _ = run_cli(capsys, *argv, "--format", "human")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == f"ulbkit {__version__} :: design-bound"
    result_at = lines.index("result:")
    assert lines[1:result_at] == ["  command = design-bound", "  n = 12", "  space = johnson",
                                  "  tau = 3", "  w = 4"]
    code, default, _ = run_cli(capsys, *argv)
    assert code == 0
    result = json.loads("\n".join(lines[result_at + 1:]))
    assert result == json.loads(default)["result"] and result["bound"] == 33


def test_sweep_keeps_order_and_bytes(capsys):
    argv = ["ulb", "--space", "sphere", "--n", "3", "--M", "4:8",
            "--potential", "riesz", "--p", "1"]
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second
    reports = json.loads(first)["result"]["reports"]
    assert [r["M"] for r in reports] == [4, 5, 6, 7, 8]


def test_separation_solve_with_steep_lev_bound(capsys):
    # tau 1 on S^289, where dL/ds is about 8e4
    code, out, _ = run_cli(capsys, "quadrature", "--space", "sphere", "--n", "290", "--M", "285")
    assert code == 0
    assert json.loads(out)["result"]["tau"] == 1


def test_tolerance_flags_are_live(capsys):
    base = ["ulb", "--space", "sphere", "--n", "3", "--M", "4",
            "--potential", "riesz", "--p", "1"]
    code, _, _ = run_cli(capsys, *base)
    assert code == 0
    # an absurdly tight cross-check tolerance must trip the validation
    code, _, err = run_cli(capsys, *base, "--rel-tol", "1e-18")
    assert code == 1
    assert json.loads(err)["error"]["type"] == "ConditionError"


def test_condition_violation_exits_1(capsys):
    code, _, err = run_cli(
        capsys, "design-energy", "--space", "sphere", "--n", "3", "--M", "10",
        "--tau", "3", "--direction", "lower", "--poly", "5.0",
        "--potential", "riesz", "--p", "1",
    )
    assert code == 1
    assert json.loads(err)["error"]["type"] == "ConditionError"


def test_selfcheck_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "selfcheck")
    assert code == 0
    assert json.loads(out)["result"]["healthy"]


def test_selfcheck_reports_a_raising_check(monkeypatch):
    # a space whose rule construction starts raising must not be skipped
    from ulbkit import levenshtein, selfcheck
    from ulbkit.errors import ConvergenceError

    def broken(space, M):
        raise ConvergenceError("broken on purpose")

    monkeypatch.setattr(levenshtein, "quadrature_rule", broken)
    healthy, results = selfcheck.run_all()
    assert not healthy
    failed = {name: detail for name, ok, detail in results if not ok}
    assert "ConvergenceError" in failed["quadrature-exactness"]


@pytest.mark.parametrize("failed", ["below_h", "f_geq"])
@pytest.mark.parametrize(
    "argv",
    [["ulb", "--space", "sphere", "--n", "3", "--M", "4:6"],
     ["improve", "--space", "sphere", "--n", "3", "--M", "7", "--degree", "6"]],
    ids=["ulb", "improve"],
)
def test_failed_certificate_exits_1(capsys, monkeypatch, argv, failed):
    # the package attribute ulbkit.ulb is the function; this is the module
    ulb_module = importlib.import_module("ulbkit.ulb")
    real = ulb_module.verify_certificate

    def broken(*args, **kwargs):
        return replace(real(*args, **kwargs), **{failed: False})

    monkeypatch.setattr(ulb_module, "verify_certificate", broken)
    code, out, err = run_cli(capsys, *argv, "--potential", "riesz", "--p", "1")
    assert code == 1 and out == ""
    error = json.loads(err)
    assert error["schema_version"] == 3
    assert error["error"]["type"] == "ConditionError"
    assert "S^2" in error["error"]["message"] and failed in error["error"]["message"]
    assert ("M=4" if argv[0] == "ulb" else "M=7") in error["error"]["message"]


def test_overflowing_derivatives_leave_stderr_empty():
    # Riesz p=1 derivatives overflow to inf well below order 445; a fresh
    # process shows that no numpy warning reaches stderr
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "ulbkit.cli", "ulb", "--space", "sphere", "--n", "3",
         "--M", "5000", "--potential", "riesz", "--p", "1"],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stderr == ""


def test_bound_commands_leave_the_cli_only_modules_unloaded():
    # a fresh process, so no earlier test has imported them
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    script = (
        "import sys\n"
        "from ulbkit.cli import main\n"
        "main(['ulb', '--space', 'sphere', '--n', '3', '--M', '4', '--potential', 'riesz',"
        " '--p', '1'])\n"
        "main(['quadrature', '--space', 'hamming', '--n', '8', '--q', '2', '--M', '16'])\n"
        "lazy = ('ulbkit.oracle', 'ulbkit.asymptotics', 'ulbkit.designbounds',"
        " 'ulbkit.selfcheck', 'csv', 'numpy.polynomial')\n"
        "print([m for m in lazy if m in sys.modules], file=sys.stderr)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stderr == "[]\n"


def test_tolerance_defaults_are_the_library_defaults():
    ulb_defaults = inspect.signature(ulb).parameters
    args = build_parser().parse_args(
        ["ulb", "--space", "sphere", "--n", "3", "--M", "4", "--potential", "riesz", "--p", "1"]
    )
    assert args.abs_tol == ulb_defaults["abs_tol"].default
    assert args.rel_tol == ulb_defaults["rel_tol"].default

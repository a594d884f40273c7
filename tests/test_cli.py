import argparse
import importlib
import inspect
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import jsonschema
import pytest

from ulbkit.cli import build_parser, main
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
    assert report["schema_version"] == 2
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


def test_missing_potential_param_exit_2(capsys):
    code, _, err = run_cli(
        capsys, "ulb", "--space", "sphere", "--n", "3", "--M", "4", "--potential", "riesz"
    )
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [["ulb", "--space", "sphere", "--n", "3", "--M", "abc", "--potential", "riesz", "--p", "1"],
     ["asymptotics", "--family", "sphere", "--tau", "1", "--potential", "gaussian", "--c", "1",
      "--n-range", "8:x"]],
    ids=["ulb-M", "asymptotics-n-range"],
)
def test_bad_integer_range_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["type"] == "ParameterError"


_SPACE = ["field_dim", "n", "q", "space", "w"]
_POTENTIAL = ["c", "coeffs", "j", "p", "potential"]
_IO = ["format", "out"]
# every option each subcommand declares: each one is read by its handler
_FLAGS = {
    "ulb": _SPACE + _POTENTIAL + _IO + ["M", "abs_tol", "convention", "odd_branch", "rel_tol"],
    "quadrature": _SPACE + _IO + ["M"],
    "lev-bound": _SPACE + _IO + ["s", "tau"],
    "design-bound": _SPACE + _IO + ["tau"],
    "testfns": _SPACE + _IO + ["M", "jmax"],
    "improve": _SPACE + _POTENTIAL + _IO + ["M", "convention", "degree", "eta"],
    "design-energy": _SPACE + _POTENTIAL + _IO + ["I", "M", "direction", "poly", "poly_basis", "tau"],
    "separated-energy": _SPACE + _POTENTIAL + _IO + ["M", "poly", "poly_basis", "s"],
    "oracle energy": _SPACE + _POTENTIAL + _IO + ["config", "convention", "points_json"],
    "oracle strength": _SPACE + _IO + ["config", "points_json", "tau_max"],
    "oracle named": _SPACE + _IO + ["config"],
    "oracle minimize": _POTENTIAL + _IO + ["M", "n", "restarts", "seed"],
    "oracle exhaustive": _POTENTIAL + _IO + ["M", "convention", "n"],
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
    assert sum(len(flags) for flags in declared.values()) == 169


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
    assert json.loads(out)["result"]["energy"] == pytest.approx(7.348469, abs=1e-6)
    code, out, _ = run_cli(
        capsys, "oracle", "exhaustive", "--n", "4", "--M", "2",
        "--potential", "riesz", "--p", "1",
    )
    assert json.loads(out)["result"]["energy"] == pytest.approx(1.0, rel=1e-12)


def test_oracle_points_json(tmp_path, capsys):
    path = tmp_path / "code.json"
    path.write_text(json.dumps({"points": [[0, 0, 1], [0, 0, -1]]}))
    code, out, _ = run_cli(
        capsys, "oracle", "energy", "--space", "sphere", "--n", "3",
        "--points-json", str(path), "--potential", "gaussian", "--c", "1",
    )
    assert code == 0
    assert json.loads(out)["result"]["energy"] == pytest.approx(2 * 2.718281828459045**-1)


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
    ]
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
    assert error["schema_version"] == 2
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


def test_tolerance_defaults_are_the_library_defaults():
    ulb_defaults = inspect.signature(ulb).parameters
    args = build_parser().parse_args(
        ["ulb", "--space", "sphere", "--n", "3", "--M", "4", "--potential", "riesz", "--p", "1"]
    )
    assert args.abs_tol == ulb_defaults["abs_tol"].default
    assert args.rel_tol == ulb_defaults["rel_tol"].default

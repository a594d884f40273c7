"""Command-line front end.

Every subcommand echoes its parameters and writes a machine-readable
report to stdout (JSON, or CSV with ``--format csv``) and an error to
stderr, so ``> file`` saves the report.  Exit codes: 0 success, 2
parameter/validation error, 1 computation failure, including a bound
whose certificate fails a check.
"""

import argparse
import gc
import io
import json
import sys
from dataclasses import asdict, is_dataclass

import numpy as np

# the oracle, asymptotics and designbounds modules and csv are imported
# by the handlers that use them, so a ulb or quadrature call does not
# load them
from . import __version__, levenshtein, orthopoly, pmspace, potentials
from .ulb import _IDENTITY_TOL, UlbReport, improve_with_qj, test_functions, ulb
from .errors import (
    ConditionError,
    DegreeOverflowError,
    DomainError,
    MonotonicityError,
    ParameterError,
)

SCHEMA_VERSION = 5

_VALIDATION_ERRORS = (
    ParameterError,
    DegreeOverflowError,
    DomainError,
    MonotonicityError,
)


def _jsonable(obj):
    if is_dataclass(obj) and not isinstance(obj, type):
        return _jsonable(asdict(obj))
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        obj = obj.item()
    if isinstance(obj, float) and not np.isfinite(obj):
        return None  # keep the reports strict JSON
    return obj


def _add_space_args(p):
    p.add_argument("--space", required=True, choices=["sphere", "hamming", "johnson", "projective"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, help="Hamming alphabet size")
    p.add_argument("--w", type=int, help="Johnson weight")
    p.add_argument("--field-dim", type=int, choices=[1, 2, 4], help="projective field dimension")


def _space_from(args) -> pmspace.SpaceDescriptor:
    return pmspace.make_space(args.space, **_given(args, "n", "q", "w", "field_dim"))


def _add_potential_args(p):
    p.add_argument("--potential", required=True, choices=["riesz", "gaussian", "log", "monomial", "series"])
    p.add_argument("--p", type=float, help="riesz power")
    p.add_argument("--c", type=float, help="gaussian rate")
    p.add_argument("--j", type=int, help="monomial power")
    p.add_argument("--coeffs", type=str, help="comma-separated series coefficients")


def _potential_from(args) -> potentials.Potential:
    params = _given(args, "p", "c", "j", "coeffs")
    if "coeffs" in params:
        params["coeffs"] = _floats(params["coeffs"])
    return potentials.builtin(args.potential, **params)


def _given(args, *names):
    """The flags among names that were given, for the library to validate."""
    return {k: getattr(args, k) for k in names if getattr(args, k) is not None}


def _add_common(p):
    p.add_argument("--format", choices=["json", "csv"], default="json")


def _floats(text):
    try:
        return [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise ParameterError(f"bad number list {text!r}") from exc


def _int_range(text):
    """lo:hi[:step] or a comma list; must be nonempty."""
    try:
        if ":" in text:
            parts = [int(x) for x in text.split(":")]
            lo, hi = parts[0], parts[1]
            step = parts[2] if len(parts) > 2 else 1
            out = list(range(lo, hi + (1 if step > 0 else -1), step))  # hi included
        else:
            out = [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise ParameterError(f"bad integer range {text!r}") from exc
    if not out:
        raise ParameterError(f"empty range {text!r}")
    return out


def _poly_from(args, space):
    """Q-coefficients of --poly, converted from monomial coefficients unless --poly-basis q."""
    coeffs = np.array(_floats(args.poly))
    return coeffs if args.poly_basis == "q" else orthopoly.expand_in_q(space, coeffs)


def _echo(args):
    skip = {"func", "format"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip and v is not None}


def _rule_payload(rule):
    return {k: v for k, v in vars(rule).items() if k != "space"}


def _report_payload(rep: UlbReport):
    checks = rep.certificate_checks
    failed = [name for name in ("below_h", "f_geq") if not getattr(checks, name)]
    if failed:
        # fail closed: a bound whose certificate fails a check is not emitted
        raise ConditionError(
            f"certificate of the bound for {rep.space.label()}, M={rep.M} fails"
            f" {' and '.join(failed)} (max excess {checks.max_excess:.3e} at"
            f" t={checks.worst_t:.6g}, min Q-coefficient {checks.min_q_coefficient:.3e})"
        )
    out = {
        "space": rep.space.label(),
        "M": rep.M,
        "value_sum": rep.value_sum,
        "value_mean": rep.value_mean,
        "rule": _rule_payload(rep.rule),
        "certificate_q_coeffs": _jsonable(rep.certificate),
        "certificate_checks": _jsonable(rep.certificate_checks),
    }
    if rep.improvement:
        out["improvement"] = _jsonable(rep.improvement)
    return out


# --- subcommand handlers -----------------------------------------------------


def _cmd_ulb(args):
    space = _space_from(args)
    h = _potential_from(args)
    ms = _int_range(args.M)
    reports = [_report_payload(ulb(space, m, h, rel_tol=args.rel_tol)) for m in ms]
    return {"reports": reports} if len(ms) > 1 else reports[0]


def _cmd_quadrature(args):
    space = _space_from(args)
    return _rule_payload(levenshtein.quadrature_rule(space, args.M))


def _cmd_lev_bound(args):
    space = _space_from(args)
    return {
        "space": space.label(),
        "tau": levenshtein.separation_level(space, args.s),
        "s": args.s,
        "bound": levenshtein.lev_bound(space, args.s),
    }


def _cmd_design_bound(args):
    space = _space_from(args)
    return {
        "space": space.label(),
        "tau": args.tau,
        "bound": levenshtein.design_bound(space, args.tau),
    }


def _cmd_testfns(args):
    space = _space_from(args)
    if args.jmax is None:  # params echo the value used
        args.jmax = min(10, space.max_degree or 10)
    rep = test_functions(space, args.M, range(0, args.jmax + 1))
    return {
        "space": space.label(),
        "M": rep.M,
        "s": rep.s,
        "tau": rep.tau,
        "j": list(rep.js),
        "P": list(rep.values),
        "first_negative_j": rep.first_negative_j,
    }


def _cmd_improve(args):
    space = _space_from(args)
    h = _potential_from(args)
    rep = improve_with_qj(space, args.M, h, args.degree)
    return _report_payload(rep)


def _cmd_design_energy(args):
    from . import designbounds

    space = _space_from(args)
    fn = designbounds.design_lower_bound if args.direction == "lower" else designbounds.design_upper_bound
    subset = tuple(args.I) if args.I else None
    bound = fn(space, args.tau, args.M, _potential_from(args), _poly_from(args, space), subset)
    return {"space": space.label(), "direction": args.direction, "bound": bound}


def _cmd_separated_energy(args):
    from . import designbounds

    space = _space_from(args)
    bound = designbounds.separated_upper_bound(
        space, args.M, _potential_from(args), _poly_from(args, space), args.s
    )
    return {"space": space.label(), "s": args.s, "bound": bound}


def _load_code(space, args):
    from . import oracle

    if args.config is not None:
        return oracle.named_config(space, args.config)
    path = args.points_json
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ParameterError(f"--points-json {path}: {exc}") from None
    if isinstance(data, dict):
        if "points" not in data:
            raise ParameterError(f"--points-json {path}: a JSON object needs \"points\"")
        data = data["points"]
    return oracle.make_code(space, data)


def _cmd_oracle(args):
    from . import oracle

    sub = args.oracle_cmd
    if sub in ("energy", "strength", "named"):
        space = _space_from(args)
        if sub == "named":
            code = oracle.named_config(space, args.config)
            return {"space": space.label(), "config": args.config, "M": code.size,
                    "points": _jsonable(code.points)}
        code = _load_code(space, args)
        if sub == "energy":
            h = _potential_from(args)
            val = oracle.energy(space, code, h)
            return {"space": space.label(), "M": code.size, "energy_sum": val,
                    "energy_mean": val / code.size}
        s, ell = oracle.separation(space, code)
        return {"space": space.label(), "M": code.size,
                "strength": oracle.design_strength(space, code),
                "separation": s, "min_t": ell}
    h = _potential_from(args)
    if sub == "minimize":
        code, val, info = oracle.minimize_sphere(
            args.n, args.M, h, restarts=args.restarts, seed=args.seed
        )
        return {"space": code.space.label(), "M": args.M, "energy_sum": val,
                "points": _jsonable(code.points), "restart_energies": _jsonable(info["restart_energies"])}
    code, val = oracle.exhaustive_hamming(args.n, args.M, h)
    return {"space": code.space.label(), "M": args.M, "energy_sum": val,
            "energy_mean": val / args.M, "words": _jsonable(code.points)}


def _cmd_asymptotics(args):
    from . import asymptotics

    h = _potential_from(args)
    query = asymptotics.AsymptoticQuery(
        args.family, args.tau, h, delta=args.delta, rho=args.rho,
        n_range=tuple(_int_range(args.n_range)) if args.n_range else (),
    )
    out = {"family": args.family, "tau": args.tau, "delta": args.delta,
           "rows": asymptotics.sweep(query)}
    try:
        out["limit"] = asymptotics.limit_expression(query)
    except ParameterError:
        out["limit"] = None
    return out


# --- wiring ------------------------------------------------------------------


def _ulb_args(p):
    _add_space_args(p), _add_potential_args(p), _add_common(p)
    p.add_argument("--M", required=True, help="cardinality, range lo:hi[:step], or comma list")
    p.add_argument("--rel-tol", type=float, default=_IDENTITY_TOL, help="value cross-checks")
    p.set_defaults(func=_cmd_ulb)


def _quadrature_args(p):
    _add_space_args(p), _add_common(p)
    p.add_argument("--M", type=int, required=True)
    p.set_defaults(func=_cmd_quadrature)


def _lev_bound_args(p):
    _add_space_args(p), _add_common(p)
    p.add_argument("--s", type=float, required=True)
    p.set_defaults(func=_cmd_lev_bound)


def _design_bound_args(p):
    _add_space_args(p), _add_common(p)
    p.add_argument("--tau", type=int, required=True)
    p.set_defaults(func=_cmd_design_bound)


def _testfns_args(p):
    _add_space_args(p), _add_common(p)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--jmax", type=int, help="largest j (default 10, or the space's degree cap if less)")
    p.set_defaults(func=_cmd_testfns)


def _improve_args(p):
    _add_space_args(p), _add_potential_args(p), _add_common(p)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--degree", type=int, required=True, help="degree j of the improving polynomial")
    p.set_defaults(func=_cmd_improve)


def _design_energy_args(p):
    _add_space_args(p), _add_potential_args(p), _add_common(p)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--tau", type=int, required=True)
    p.add_argument("--direction", choices=["lower", "upper"], required=True)
    p.add_argument("--poly", type=str, required=True, help="comma-separated coefficients")
    p.add_argument("--poly-basis", choices=["monomial", "q"], default="monomial")
    p.add_argument("--I", nargs=2, type=float, metavar=("LO", "HI"), help="inner-product interval")
    p.set_defaults(func=_cmd_design_energy)


def _separated_energy_args(p):
    _add_space_args(p), _add_potential_args(p), _add_common(p)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--poly", type=str, required=True)
    p.add_argument("--poly-basis", choices=["monomial", "q"], default="monomial")
    p.set_defaults(func=_cmd_separated_energy)


def _oracle_args(p):
    osub = p.add_subparsers(dest="oracle_cmd", required=True)
    for name in ("energy", "strength", "named"):
        op = osub.add_parser(name)
        _add_space_args(op), _add_common(op)
        # a code comes from exactly one of the two
        code = op if name == "named" else op.add_mutually_exclusive_group(required=True)
        code.add_argument("--config", type=str, required=name == "named")
        if name != "named":
            code.add_argument("--points-json", type=str)
        if name == "energy":
            _add_potential_args(op)
        op.set_defaults(func=_cmd_oracle)
    for name in ("minimize", "exhaustive"):
        op = osub.add_parser(name)
        _add_potential_args(op), _add_common(op)
        op.add_argument("--n", type=int, required=True)
        op.add_argument("--M", type=int, required=True)
        if name == "minimize":
            op.add_argument("--restarts", type=int, default=20)
            op.add_argument("--seed", type=int, default=0)
        op.set_defaults(func=_cmd_oracle)


def _asymptotics_args(p):
    _add_potential_args(p), _add_common(p)
    p.add_argument("--family", choices=["sphere", "hamming"], required=True)
    p.add_argument("--tau", type=int, required=True)
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--rho", type=float)
    p.add_argument("--n-range", type=str, help="lo:hi[:step]")
    p.set_defaults(func=_cmd_asymptotics)


# (name, help, the function that adds its arguments), in the order of --help
_SUBCOMMANDS = (
    ("ulb", "universal lower energy bound", _ulb_args),
    ("quadrature", "1/M-quadrature rule", _quadrature_args),
    ("lev-bound", "cardinality bound at a separation", _lev_bound_args),
    ("design-bound", "minimum design cardinality bound", _design_bound_args),
    ("testfns", "improvability test functions", _testfns_args),
    ("improve", "improve the bound with a degree-j polynomial", _improve_args),
    ("design-energy", "energy bounds for designs", _design_energy_args),
    ("separated-energy", "upper energy bound at fixed separation", _separated_energy_args),
    ("oracle", "ground-truth energies and configurations", _oracle_args),
    ("asymptotics", "fixed-level large-dimension sweep", _asymptotics_args),
)


def build_parser(command=None) -> argparse.ArgumentParser:
    """The argument parser; given a command, only that subcommand gets its arguments.

    Every subcommand is listed with its help either way, so the top-level
    help and usage errors are those of the full parser; so are the help,
    errors and results of ``command`` itself.  None builds every
    subcommand's arguments.
    """
    ap = argparse.ArgumentParser(
        prog="ulbkit",
        description="Energy bounds for codes in polynomial metric spaces",
    )
    ap.add_argument("--version", action="version", version=f"ulbkit {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, text, add_arguments in _SUBCOMMANDS:
        p = sub.add_parser(name, help=text)
        if command is None or command == name:
            add_arguments(p)
    return ap


def _emit(args, payload) -> str:
    report = {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "ulbkit", "version": __version__},
        "command": args.command,
        "params": _jsonable(_echo(args)),
        "result": _jsonable(payload),
    }
    if args.format == "json":
        return json.dumps(report, indent=2, sort_keys=True) + "\n"
    import csv

    rows = payload.get("rows", payload.get("reports", [payload]))
    buf = io.StringIO()
    cols = sorted({k for r in rows for k in r})
    writer = csv.DictWriter(buf, fieldnames=cols)
    writer.writeheader()
    for r in rows:
        writer.writerow({k: _csv_cell(r.get(k, "")) for k in cols})
    return buf.getvalue()


def _csv_cell(value):
    """A scalar as it is; a dict, list or array as JSON, keys sorted and non-finite values null."""
    if isinstance(value, (dict, list, np.ndarray)):
        return json.dumps(_jsonable(value), sort_keys=True)
    return value


def main(argv=None) -> int:
    """Run one command and return its exit code.

    Without ``argv`` it runs as the program (``python -m ulbkit.cli`` and
    the ``ulbkit`` script), on ``sys.argv[1:]``, and ends with
    ``gc.freeze()`` once its output is written: the process is about to
    exit, and frozen objects skip the interpreter's final cyclic
    collections over everything numpy, argparse and ulbkit leave alive.
    A call with ``argv`` leaves the collector as it was.
    """
    code = _run(sys.argv[1:] if argv is None else list(argv))
    if argv is None:
        gc.freeze()
    return code


def _run(argv) -> int:
    # the top level takes no option with a value, so the first argument
    # that is not an option is the subcommand argparse runs, if it runs one
    ap = build_parser(next((a for a in argv if not a.startswith("-")), ""))
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        payload = args.func(args)
    except _VALIDATION_ERRORS as exc:
        _fail(args, exc)
        return 2
    except Exception as exc:  # keep failures machine-readable
        _fail(args, exc)
        return 1
    sys.stdout.write(_emit(args, payload))
    return 0


def _fail(args, exc):
    obj = {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "ulbkit", "version": __version__},
        "error": {"type": type(exc).__name__, "message": str(exc)},
    }
    sys.stderr.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())

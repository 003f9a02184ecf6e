"""Command-line front end: solvers, curve sampling, thermo tables, suite.

Subcommands
-----------
tc         solve the transition temperature and report the closed forms
gap-curve  sample the squared-gap curve with derivatives (CSV or JSON)
thermo     tabulate the potential and specific heat on a temperature grid
jump       report the closed-form and measured second-derivative jump
verify     run the certification suite; exit 0 iff everything passes

Parameters come from built-in defaults, overlaid by an optional
`key = value` config file (--config), overlaid by explicit flags; nothing
is read from the environment.  tc and jump print named values, gap-curve
and thermo a table, each shape through one writer.  All numeric output
round-trips 64-bit floats losslessly; outputs for identical inputs are
byte-stable.

Exit codes: 0 success, 1 validation or usage error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .errors import BcsgapError
from .gap import _CURVE_COLUMNS, _csv, _rows, sample_gap_curve, solve_gap_at
from .model import build_params, load_config
from .thermo import _THERMO_COLUMNS, _closed_form_jumps, _points, measured_second_derivative_jump
from .verify import run_suite

__all__ = ["main"]

_PARAM_FLAGS = ("u0n0", "hbar_omega_d", "k_b", "eps", "n0", "mu")


def _fmt(x: float) -> str:
    return f"{x:.17g}"


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every later main call of the process."""
    parser = argparse.ArgumentParser(
        prog="bcsgap",
        description="Cutoff pairing-model gap solver and transition certifier.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p):
        for flag in _PARAM_FLAGS:
            p.add_argument(f"--{flag.replace('_', '-')}", type=float, default=None)
        p.add_argument("--config", metavar="PATH", default=None)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", metavar="PATH", default=None)

    p_tc = sub.add_parser("tc", help="solve the transition temperature")
    add_common(p_tc)

    p_curve = sub.add_parser("gap-curve", help="sample the squared-gap curve")
    add_common(p_curve)
    p_curve.add_argument("--points", type=int, default=201)
    p_curve.add_argument("--grid", choices=("uniform", "chebyshev"), default="uniform")

    p_thermo = sub.add_parser("thermo", help="tabulate the potential on a grid")
    add_common(p_thermo)
    p_thermo.add_argument("--points", type=int, default=11)
    p_thermo.add_argument("--tmin", type=float, default=None)
    p_thermo.add_argument("--tmax", type=float, default=None)

    p_jump = sub.add_parser("jump", help="second-derivative jump at the transition")
    add_common(p_jump)

    p_verify = sub.add_parser("verify", help="run the certification suite")
    add_common(p_verify)
    p_verify.add_argument("--points", type=int, default=201,
                          help="gap-curve grid size used by the suite")

    return parser


def _params_from(args):
    """Defaults, then config file, then explicit flags."""
    merged: dict = {}
    if args.config is not None:
        merged.update(load_config(args.config))
    for flag in _PARAM_FLAGS:
        value = getattr(args, flag)
        if value is not None:
            merged[flag] = value
    return build_params(**merged)


def _emit(text: str, out_path) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as handle:
            handle.write(text)


def _write_values(args, values: dict) -> int:
    """Named values as one JSON object or as `key = value` lines."""
    if args.format == "json":
        text = json.dumps(values, indent=2) + "\n"
    else:
        text = "".join(f"{k} = {_fmt(v)}\n" for k, v in values.items())
    _emit(text, args.out)
    return 0


def _write_table(args, params, items, columns: dict) -> int:
    """A table as CSV, or as JSON with the parameters and one object per row."""
    if args.format == "json":
        text = json.dumps({"params": params.as_dict(), "points": _rows(items, columns)}, indent=2) + "\n"
    else:
        text = _csv(items, columns)
    _emit(text, args.out)
    return 0


def _run_tc(args) -> int:
    params = _params_from(args)
    f_prime = solve_gap_at(params.t_c, params).f_prime
    return _write_values(args, {
        "T_c": params.t_c,
        "Delta0": params.delta0,
        "Delta": params.delta,
        "f_prime_at_T_c": f_prime,
    })


def _run_gap_curve(args) -> int:
    params = _params_from(args)
    curve = sample_gap_curve(params, args.points, grid=args.grid)
    return _write_table(args, params, curve.points, _CURVE_COLUMNS)


def _run_thermo(args) -> int:
    params = _params_from(args)
    t_c = params.t_c
    tmin = 0.5 * t_c if args.tmin is None else args.tmin
    tmax = 1.5 * t_c if args.tmax is None else args.tmax
    n = args.points
    if not isinstance(n, int) or n < 2:
        raise ValueError(f"--points must be an integer >= 2, got {n!r}")
    if not 0.0 < tmin < tmax:
        raise ValueError(f"need 0 < tmin < tmax, got tmin={tmin!r} tmax={tmax!r}")
    ts = [tmin + (tmax - tmin) * i / (n - 1) for i in range(n)]
    return _write_table(args, params, _points(ts, params), _THERMO_COLUMNS)


def _run_jump(args) -> int:
    params = _params_from(args)
    closed, cv_jump = _closed_form_jumps(params)
    return _write_values(args, {
        "second_derivative_jump_closed_form": closed,
        "second_derivative_jump_measured": measured_second_derivative_jump(params).jump,
        "specific_heat_jump": cv_jump,
    })


def _run_verify(args) -> int:
    params = _params_from(args)
    report = run_suite(params, grid_size=args.points)
    if args.format == "json":
        text = report.to_json() + "\n"
    else:
        lines = []
        for c in report.checks:
            flag = "PASS" if c.passed else "FAIL"
            lines.append(
                f"{flag} {c.name} measured={_fmt(c.measured)} "
                f"expected={_fmt(c.expected)} tolerance={_fmt(c.tolerance)}"
            )
        lines.append("pass" if report.passed else "fail")
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0 if report.passed else 2


_DISPATCH = {
    "tc": _run_tc,
    "gap-curve": _run_gap_curve,
    "thermo": _run_thermo,
    "jump": _run_jump,
    "verify": _run_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        return _DISPATCH[args.subcommand](args)
    except (BcsgapError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

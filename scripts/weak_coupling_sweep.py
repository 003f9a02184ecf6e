#!/usr/bin/env python3
"""Sweep the coupling and track k_B t_c / (band edge * exp(-1/coupling)).

As the coupling weakens this ratio approaches 2 e^gamma / pi from above; the
corrections die off so fast that below coupling ~0.15 the distance parks at
the float64 noise floor (a few 1e-16).  With --oracle each row is checked
against an independent high-precision bisection solve of the transition
temperature (slower: one mpmath solve per row).
"""

import argparse
import math
import pathlib
import sys

from bcsgap import build_params

LIMIT = 1.1338659173110975311  # 2 e^gamma / pi, 20 significant digits


def parse_args() -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--couplings",
        default="0.5,0.4,0.3,0.2,0.15,0.12,0.10,0.08",
        help="comma-separated dimensionless couplings, strongest first",
    )
    ap.add_argument("--eps", type=float, default=0.0)
    ap.add_argument(
        "--oracle",
        action="store_true",
        help="cross-check each t_c against an mpmath bisection solve",
    )
    return ap.parse_args()


def _load_oracle():
    tests_dir = pathlib.Path(__file__).resolve().parent.parent / "tests"
    sys.path.insert(0, str(tests_dir))
    try:
        from oracles import mp_tc
    except ImportError:
        print(f"oracle mode needs {tests_dir}/oracles.py", file=sys.stderr)
        return None
    return mp_tc


def main() -> int:
    args = parse_args()
    couplings = [float(tok) for tok in args.couplings.split(",") if tok.strip()]
    mp_tc = _load_oracle() if args.oracle else None
    if args.oracle and mp_tc is None:
        return 1
    header = f"{'coupling':>9} {'t_c':>24} {'ratio':>22} {'ratio - limit':>14}"
    if args.oracle:
        header += f" {'vs oracle':>12}"
    print(header)
    for u in couplings:
        params = build_params(u0n0=u, eps=args.eps)
        t_c = params.t_c
        ratio = params.k_b * t_c / (params.hbar_omega_d * math.exp(-1.0 / u))
        row = f"{u:>9.4g} {t_c:>24.17g} {ratio:>22.17g} {ratio - LIMIT:>14.3e}"
        if mp_tc is not None:
            reference = float(mp_tc(u, params.hbar_omega_d, params.k_b, params.eps))
            row += f" {abs(t_c - reference) / reference:>12.3e}"
        print(row)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

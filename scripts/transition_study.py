#!/usr/bin/env python3
"""End-to-end transition study: gap curve, thermodynamic table, jump summary.

Writes three artifacts into --out-dir:
  gap_curve.csv   squared gap with derivatives on [0, t_c]
  thermo.csv      potential, entropy, specific heat on a grid straddling t_c
  jump.json       closed-form vs extrapolated curvature jump, specific-heat gap

The console output is a short human-readable digest of the same numbers.
"""

import argparse
import json
import pathlib

from bcsgap import (
    build_params,
    measured_second_derivative_jump,
    sample_gap_curve,
    second_derivative_jump,
    specific_heat_jump,
    thermo_to_csv,
)
from bcsgap.thermo import _points


def parse_args() -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--u0n0", type=float, default=0.3)
    ap.add_argument("--hbar-omega-d", type=float, default=1.0)
    ap.add_argument("--k-b", type=float, default=1.0)
    ap.add_argument("--eps", type=float, default=0.0)
    ap.add_argument("--n0", type=float, default=1.0)
    ap.add_argument("--mu", type=float, default=10.0)
    ap.add_argument("--curve-points", type=int, default=201)
    ap.add_argument("--thermo-points", type=int, default=41)
    ap.add_argument(
        "--out-dir", type=pathlib.Path, default=pathlib.Path("transition_study_out")
    )
    return ap.parse_args()


def main() -> int:
    args = parse_args()
    params = build_params(
        u0n0=args.u0n0,
        hbar_omega_d=args.hbar_omega_d,
        k_b=args.k_b,
        eps=args.eps,
        n0=args.n0,
        mu=args.mu,
    )
    args.out_dir.mkdir(parents=True, exist_ok=True)

    print(f"t_c      = {params.t_c:.17g}")
    print(f"gap at 0 = {params.delta:.17g}")

    curve = sample_gap_curve(params, args.curve_points)
    (args.out_dir / "gap_curve.csv").write_text(curve.to_csv())
    print(f"gap curve: {args.curve_points} nodes -> {args.out_dir / 'gap_curve.csv'}")

    # grid straddling the transition so the specific-heat step is visible
    lo, hi = 0.25 * params.t_c, 1.5 * params.t_c
    n = args.thermo_points
    # the whole grid is one batch: one gap solve and one quadrature pass per branch
    points = _points([lo + (hi - lo) * i / (n - 1) for i in range(n)], params)
    (args.out_dir / "thermo.csv").write_text(thermo_to_csv(points))
    cold = max(p.c_v for p in points if p.branch == "superconducting")
    warm = min(p.c_v for p in points if p.branch == "normal")
    print(f"thermo: c_v peaks at {cold:.6g} cold side, drops to {warm:.6g} warm side")

    closed = second_derivative_jump(params)
    measured = measured_second_derivative_jump(params)
    summary = {
        "params": params.as_dict(),
        "curvature_jump_closed_form": closed,
        "curvature_jump_measured": measured.jump,
        "curvature_below": measured.below,
        "curvature_above": measured.above,
        "specific_heat_jump": specific_heat_jump(params),
    }
    (args.out_dir / "jump.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(
        f"curvature jump: closed {closed:.12g}, measured {measured.jump:.12g}, "
        f"relative gap {abs(measured.jump - closed) / abs(closed):.3e}"
    )
    print(f"specific-heat jump: {summary['specific_heat_jump']:.12g}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""Fit the table of the gap Newton's seed, gap._SEED_TABLE, from the solver.

The seed over f(0) at tau = t / t_c is gl(tau) [S(x) + G1(x) / U^2 +
G2(x) / U^4 + H(x) eps], clipped to [0, 1], with gl the Ginzburg-Landau
interpolation tanh^2(sqrt(A (1/tau - 1))), x = (tau - 0.65) / 0.35 and
U = hbar_omega_d / (2 k_b t_c); the table holds the coefficients of the
four polynomials in x, one column each.  Every fit is a least-squares fit
weighted by gl, so it minimises the seed's error in f / f(0), on Chebyshev
nodes of x in [-1, 1], that is tau in [0.3, 1], from solved curves at
couplings and cutoffs that neither the benchmark's timed workloads nor the
validation grid use:

  S        the curve at u0n0 = 0.04, where 1/U^2 is 1e-21: the universal
           weak-coupling curve over gl;
  G1, G2   the remainder over u0n0 in FIT_COUPLINGS, jointly;
  H        the response of the curve at u0n0 = 0.2 to eps = 1e-2, and the
           one to eps = 1e-4 as the check that it is linear.

    python3 scripts/fit_seed.py           # print the table and its accuracy
    python3 scripts/fit_seed.py --check   # exit 1 unless the checked-in table is as accurate

The accuracy of a table is, at each (u0n0, eps) cell of VALIDATION_COUPLINGS
times VALIDATION_CUTOFFS, the largest |seed / f(0) - f / f(0)| over the
nodes; --check regenerates the table and fails if the checked-in one's
accuracy differs from the regenerated one's by more than 1% (or 1e-10) in
any cell.  It compares accuracies, not digits: the solved curves move at
rounding level with the seed they start from, and H, a difference over
eps = 1e-4 divided by gl, carries that rounding into its 8th digit.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bcsgap import build_params, gap  # noqa: E402

DEGREE = 12
NODES = 160
S_COUPLING = 0.04
FIT_COUPLINGS = (0.1, 0.2, 0.35, 0.45)
H_COUPLING, H_CUTOFF, H_LINEARITY_CUTOFF = 0.2, 1e-4, 1e-2
VALIDATION_COUPLINGS = (0.12, 0.14, 0.17, 0.23, 0.26, 0.3, 0.33)
VALIDATION_CUTOFFS = (0.0, 1e-3)

_X = np.cos(np.pi * (np.arange(NODES) + 0.5) / NODES)
_TAUS = 0.65 + 0.35 * _X
_POWERS = _X[:, None] ** np.arange(DEGREE + 1)
_GL = np.tanh(np.sqrt(gap._GL_SLOPE * (1.0 / _TAUS - 1.0))) ** 2


def solved_fraction(u0n0, eps=0.0):
    """f / f(0) of the solved curve at the nodes, and the model in core units, whose hbar_omega_d is 2U."""
    p = build_params(u0n0=u0n0, eps=eps)
    (_, f, *_), _ = gap._solved_columns(_TAUS * p.t_c, p, 1)
    return f / p.delta**2, p.core


def _weighted_fit(design, target):
    """Least-squares coefficients c of gl * (design @ c) = target, over one or more stacked curves of nodes."""
    weights = np.tile(_GL, design.shape[0] // NODES)
    return np.linalg.lstsq(design * weights[:, None], target, rcond=None)[0]


def fit_table():
    """The seed table, shape (DEGREE + 1, 4), and the relative change of H from H_CUTOFF to H_LINEARITY_CUTOFF."""
    fraction, _ = solved_fraction(S_COUPLING)
    s = _weighted_fit(_POWERS, fraction)
    rows, remainders = [], []
    for u0n0 in FIT_COUPLINGS:
        fraction, core = solved_fraction(u0n0)
        u = core.hbar_omega_d / 2.0
        rows.append(np.hstack([_POWERS / u**2, _POWERS / u**4]))
        remainders.append(fraction - _GL * (_POWERS @ s))
    g = _weighted_fit(np.vstack(rows), np.concatenate(remainders))
    base, _ = solved_fraction(H_COUPLING)
    h, h_wide = (_weighted_fit(_POWERS, (solved_fraction(H_COUPLING, eps)[0] - base) / eps)
                  for eps in (H_CUTOFF, H_LINEARITY_CUTOFF))
    nonlinearity = np.abs(_GL * (_POWERS @ (h - h_wide))).max() / np.abs(_GL * (_POWERS @ h)).max()
    return np.column_stack([s, g[: DEGREE + 1], g[DEGREE + 1:], h]), nonlinearity


def accuracy(table):
    """{(u0n0, eps): largest |seed / f(0) - f / f(0)| over the nodes} on the validation grid."""
    out = {}
    for u0n0 in VALIDATION_COUPLINGS:
        for eps in VALIDATION_CUTOFFS:
            fraction, core = solved_fraction(u0n0, eps)
            seed = gap._seed_fraction(_TAUS, core, table)
            out[u0n0, eps] = float(np.abs(seed - fraction).max())
    return out


def table_source(table):
    """The table as gap.py holds it."""
    lines = ["_SEED_TABLE = np.array(["]
    for k, row in enumerate(table.tolist()):
        lines.append(f"    [{', '.join(repr(c) for c in row)}],  # x^{k}")
    lines.append("])")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true", help="compare the checked-in table's accuracy with a regenerated one's")
    args = ap.parse_args(argv)
    table, nonlinearity = fit_table()
    fitted = accuracy(table)
    if not args.check:
        print(table_source(table))
        print(f"# H changes by {nonlinearity:.2%} from eps = {H_CUTOFF:g} to {H_LINEARITY_CUTOFF:g}")
        for (u0n0, eps), err in fitted.items():
            print(f"# u0n0 = {u0n0:g}, eps = {eps:g}: |seed - f| / f(0) <= {err:.2e}")
        return 0
    checked_in = accuracy(gap._SEED_TABLE)
    bad = [cell for cell in fitted if abs(checked_in[cell] - fitted[cell]) > 1e-2 * fitted[cell] + 1e-10]
    for u0n0, eps in bad:
        print(f"u0n0 = {u0n0:g}, eps = {eps:g}: checked-in table {checked_in[u0n0, eps]:.3e}, "
              f"regenerated {fitted[u0n0, eps]:.3e}", file=sys.stderr)
    print(f"{len(fitted) - len(bad)} of {len(fitted)} validation cells agree")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

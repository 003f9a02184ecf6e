#!/usr/bin/env python3
"""Print one SHA-256 over a fixed list of bcsgap outputs.

Two trees whose digests agree give the same bytes on every output below,
so a claim that a change leaves the numbers bit-identical takes one run of

    python3 scripts/output_digest.py

in each checkout.  The package is imported from the src/ directory next to
this script, not from wherever it is installed.  The outputs, in order:

  1. the five CLI subcommands at defaults: tc, gap-curve, thermo, jump and
     verify, each as its text and its exit code;
  2. verify --format json at --u0n0 0.1, at --u0n0 0.2 and at --eps 1e-3;
  3. a weak-coupling thermo grid: at every u0n0 in GRID_COUPLINGS, eps in
     GRID_CUTOFFS and mu in GRID_BANDS (hbar_omega_d = 1), one batch at
     GRID_RATIOS times t_c, then thermodynamic_potential, normal_potential
     and tail_potential alone at the LONE_RATIOS of them; every float as its
     repr, a cell that build_params refuses as its error's type name.
"""

import contextlib
import hashlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bcsgap import BcsgapError, build_params  # noqa: E402
from bcsgap.cli import main  # noqa: E402
from bcsgap.thermo import _points, normal_potential, tail_potential, thermodynamic_potential  # noqa: E402

CLI_RUNS = (
    ("tc",),
    ("gap-curve",),
    ("thermo",),
    ("jump",),
    ("verify",),
    ("verify", "--format", "json", "--u0n0", "0.1"),
    ("verify", "--format", "json", "--u0n0", "0.2"),
    ("verify", "--format", "json", "--eps", "1e-3"),
)
GRID_COUPLINGS = (0.12, 0.15, 0.2, 0.26)
# 12 lies just inside the CutoffTooLarge bound, about 12.53 at these couplings.
GRID_CUTOFFS = (0.0, 1e-3, 1.0, 5.0, 12.0)
# mu far below, below, above and far above the window edge hbar_omega_d = 1.
GRID_BANDS = (1e-6, 0.5, 10.0, 1e6)
GRID_RATIOS = (0.02, 0.1, 0.5, 0.9, 1.0, 1.1, 1.5, 3.0)
LONE_RATIOS = (0.1, 1.1, 3.0)


def _cli(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return f"exit {code}\n{out.getvalue()}"


def _cell(u0n0: float, eps: float, mu: float) -> str:
    try:
        p = build_params(u0n0=u0n0, eps=eps, mu=mu)
    except BcsgapError as exc:
        return type(exc).__name__
    rows = [repr(tuple(vars(point).values())) for point in _points([r * p.t_c for r in GRID_RATIOS], p)]
    for r in LONE_RATIOS:
        t = r * p.t_c
        rows.append(repr(tuple(vars(thermodynamic_potential(t, p)).values())))
        rows.append(repr(tail_potential(t, p)))
        if t > p.t_c:
            rows.append(repr(normal_potential(t, p)))
    return "\n".join(rows)


def outputs():
    """(label, text) of every digested output, in their fixed order."""
    for argv in CLI_RUNS:
        yield " ".join(argv), _cli(argv)
    for u0n0 in GRID_COUPLINGS:
        for eps in GRID_CUTOFFS:
            for mu in GRID_BANDS:
                yield f"thermo u0n0={u0n0!r} eps={eps!r} mu={mu!r}", _cell(u0n0, eps, mu)


def digest() -> str:
    h = hashlib.sha256()
    for label, text in outputs():
        h.update(f"{label}\n{len(text)}\n{text}".encode())
    return h.hexdigest()


if __name__ == "__main__":
    print(digest())

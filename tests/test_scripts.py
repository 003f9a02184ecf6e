"""The scripts under scripts/ run end to end and write what they promise."""

import json
import os
import subprocess
import sys
from pathlib import Path

from bcsgap.thermo import _points, thermo_to_csv

ROOT = Path(__file__).resolve().parent.parent


def _run(script, *args, cwd):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src if not path else src + os.pathsep + path}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )


def test_transition_study_writes_its_artifacts(tmp_path, default_params):
    out = tmp_path / "out"
    run = _run(
        "transition_study.py",
        "--curve-points", "21",
        "--thermo-points", "7",
        "--out-dir", str(out),
        cwd=tmp_path,
    )
    assert run.returncode == 0, run.stderr
    for name in ("gap_curve.csv", "thermo.csv", "jump.json"):
        assert (out / name).is_file()
    # the script's grid straddling the transition, solved in process as one batch
    p = default_params
    lo, hi = 0.25 * p.t_c, 1.5 * p.t_c
    points = _points([lo + (hi - lo) * i / 6 for i in range(7)], p)
    assert (out / "thermo.csv").read_bytes() == thermo_to_csv(points).encode()


def test_transition_study_reports_the_specific_heat_jump_with_a_cutoff(tmp_path):
    out = tmp_path / "out"
    run = _run(
        "transition_study.py",
        "--eps", "0.5",
        "--curve-points", "5",
        "--thermo-points", "3",
        "--out-dir", str(out),
        cwd=tmp_path,
    )
    assert run.returncode == 0, run.stderr
    assert json.loads((out / "jump.json").read_text())["specific_heat_jump"] > 0.0
    assert "specific-heat jump:" in run.stdout


def test_weak_coupling_sweep_runs(tmp_path):
    run = _run("weak_coupling_sweep.py", "--couplings", "0.3,0.2", cwd=tmp_path)
    assert run.returncode == 0, run.stderr
    assert len(run.stdout.strip().splitlines()) == 3  # header and one row per coupling

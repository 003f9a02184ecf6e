"""The scripts under scripts/ run end to end and write what they promise."""

import json
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

from bcsgap import gap, quad
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


def test_transition_study_solves_t_c_once(tmp_path, monkeypatch, window_passes):
    # the jump summary takes f'(t_c) from one second-order pass at (t_c, 0);
    # the curve is the other second-order pass
    study = runpy.run_path(str(ROOT / "scripts" / "transition_study.py"))
    argv = ["transition_study.py", "--curve-points", "5", "--thermo-points", "3", "--out-dir", str(tmp_path)]
    monkeypatch.setattr(sys, "argv", argv)
    assert study["main"]() == 0
    assert [size for order, size in window_passes if order == 2] == [5, 1]


def test_output_digest_prints_one_stable_sha256(tmp_path):
    # a bit-identity claim compares this line between two trees, so it must
    # not change from one run to the next
    runs = [_run("output_digest.py", cwd=tmp_path) for _ in range(2)]
    for run in runs:
        assert run.returncode == 0, run.stderr
    assert re.fullmatch(r"[0-9a-f]{64}\n", runs[0].stdout)
    assert runs[1].stdout == runs[0].stdout


def test_warm_caches_give_the_digest_of_cold_ones(cold_caches):
    # node tables, the t_c condition's integrals and the band bounds are
    # built once and then reused: a second digest in one interpreter, from
    # warm caches, has the bits of the first
    digest = runpy.run_path(str(ROOT / "scripts" / "output_digest.py"))["digest"]
    cold = digest()
    hits = quad._built_table.cache_info().hits
    assert digest() == cold
    assert quad._built_table.cache_info().hits > hits


def test_fit_seed_check_accepts_the_checked_in_table(tmp_path):
    run = _run("fit_seed.py", "--check", cwd=tmp_path)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "14 of 14 validation cells agree\n"


def test_fit_seed_check_refuses_a_table_it_did_not_make(monkeypatch, capsys):
    # a table off by 1e-6 in its constant term is a different seed accuracy
    fit = runpy.run_path(str(ROOT / "scripts" / "fit_seed.py"))
    table = gap._SEED_TABLE.copy()
    table[0, 0] += 1e-6
    monkeypatch.setattr(gap, "_SEED_TABLE", table)
    assert fit["main"](["--check"]) == 1
    assert "checked-in table" in capsys.readouterr().err

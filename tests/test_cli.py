"""End-to-end command-line coverage, driven through cli.main()."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bcsgap
from bcsgap.cli import main
from bcsgap.model import build_params


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_tc_text_output(capsys):
    code, out, _ = run(capsys, "tc")
    assert code == 0
    lines = out.strip().split("\n")
    labels = [line.split(" = ")[0] for line in lines]
    assert labels == ["T_c", "Delta0", "Delta", "f_prime_at_T_c"]
    assert float(lines[0].split(" = ")[1]) == pytest.approx(0.04044952519089008)


def test_tc_json_output(capsys):
    code, out, _ = run(capsys, "tc", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["T_c"] == pytest.approx(0.04044952519089008)
    assert payload["Delta"] == payload["Delta0"]  # no cutoff by default


def test_tc_respects_flags(capsys):
    _, narrow, _ = run(capsys, "tc", "--u0n0", "0.2")
    _, default, _ = run(capsys, "tc")
    t_narrow = float(narrow.split("\n")[0].split(" = ")[1])
    t_default = float(default.split("\n")[0].split(" = ")[1])
    assert t_narrow < t_default  # weaker coupling condenses later


def test_gap_curve_csv(capsys):
    code, out, _ = run(capsys, "gap-curve", "--points", "21")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "T,f,f_prime,f_second,residual"
    assert len(lines) == 22
    last = lines[-1].split(",")
    assert float(last[1]) == 0.0  # gap closes at the transition


def test_gap_curve_json(capsys):
    code, out, _ = run(capsys, "gap-curve", "--points", "5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["points"]) == 5
    assert payload["params"]["u0n0"] == 0.3
    assert payload["points"][0]["f"] > payload["points"][-1]["f"]


@pytest.mark.parametrize(
    "command, points, bound",
    [("gap-curve", "1", ">= 2"), ("verify", "2", ">= 3"), ("thermo", "1", ">= 2")],
    ids=["gap-curve", "verify", "thermo"],
)
def test_gap_curve_rejects_tiny_grid(capsys, command, points, bound):
    code, out, err = run(capsys, command, "--points", points)
    assert (code, out) == (1, "")
    assert err.startswith("error:")
    assert bound in err


def test_thermo_straddles_transition(capsys):
    code, out, _ = run(capsys, "thermo", "--points", "7")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "T,omega,omega_t,omega_tt,entropy,c_v,branch"
    branches = [line.split(",")[-1] for line in lines[1:]]
    assert "superconducting" in branches and "normal" in branches
    assert branches == sorted(branches, reverse=True)  # cold side first


def test_thermo_weak_coupling_row_one_ulp_below_tc(capsys):
    # a two-row window from one ulp below t_c to one ulp above it at
    # u0n0 = 0.1: the first row is on the superconducting branch, and its
    # c_v over the normal c_v at the same temperature is the BCS ratio
    # 1 + 12 / (7 zeta(3))
    t_c = build_params(u0n0=0.1).t_c
    below, above = (float(np.nextafter(t_c, side)) for side in (0.0, 1.0))
    code, out, err = run(capsys, "thermo", "--u0n0", "0.1", "--points", "2", "--tmin", repr(below), "--tmax", repr(above))
    assert code == 0, err
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    assert [float(r[0]) for r in rows] == [below, above]
    assert rows[0][-1] == "superconducting" and rows[1][-1] == "normal"
    t, c_v = float(rows[0][0]), float(rows[0][5])
    c_n = -t * float(rows[1][3])  # the normal omega_tt is constant in t here
    assert c_v / c_n == pytest.approx(1.0 + 12.0 / (7.0 * 1.2020569031595942), rel=1e-6)


def test_thermo_rejects_reversed_window(capsys):
    code, out, err = run(capsys, "thermo", "--tmin", "0.2", "--tmax", "0.1")
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "need 0 < tmin < tmax" in err


def test_thermo_explicit_window(capsys):
    code, out, _ = run(
        capsys, "thermo", "--points", "3", "--tmin", "0.02", "--tmax", "0.03"
    )
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    assert [float(r[0]) for r in rows] == pytest.approx([0.02, 0.025, 0.03])
    assert all(r[-1] == "superconducting" for r in rows)


def test_thermo_window_from_below_band_rounding(capsys):
    code, out, err = run(capsys, "thermo", "--points", "2", "--tmin", "1e-20", "--tmax", "0.02")
    assert code == 0, err
    assert float(out.strip().split("\n")[1].split(",")[5]) == 0.0  # c_v at 1e-20


def test_cold_thermo_row_prints_no_negative_zero(capsys):
    # S = -omega_t and c_v = -T omega_tt of exact zeros are +0, in CSV and JSON
    argv = ("thermo", "--points", "11", "--tmin", "1e-20", "--tmax", "0.02")
    _, csv_text, _ = run(capsys, *argv)
    assert csv_text.split("\n")[1].split(",")[4:6] == ["0", "0"]
    _, json_text, _ = run(capsys, *argv, "--format", "json")
    row = json.loads(json_text)["points"][0]
    assert [math.copysign(1.0, row[k]) for k in ("entropy", "c_v")] == [1.0, 1.0]
    assert (row["entropy"], row["c_v"]) == (0.0, 0.0)


def test_cold_thermo_rows_have_positive_entropy_and_specific_heat(capsys):
    # both are integrals of positive rows; the row at 0.0247 t_c printed 0, 0
    # when they were a normal part minus a condensation part
    code, out, err = run(capsys, "thermo", "--points", "41", "--tmin", "1e-20", "--tmax", "0.04")
    assert code == 0, err
    t_c = build_params().t_c
    rows = [[float(v) for v in line.split(",")[:6]] for line in out.strip().split("\n")[1:]]
    cold = [row for row in rows if row[0] >= 0.02 * t_c]
    assert len(cold) == 40
    for t, _, _, _, entropy, c_v in cold:
        assert entropy > 0.0 and c_v > 0.0, (t, entropy, c_v)


def test_jump_text_output(capsys):
    code, out, _ = run(capsys, "jump")
    assert code == 0
    labels = [line.split(" = ")[0] for line in out.strip().split("\n")]
    assert labels == [
        "second_derivative_jump_closed_form",
        "second_derivative_jump_measured",
        "specific_heat_jump",
    ]


def test_jump_with_cutoff_prints_cv_line(capsys):
    code, out, _ = run(capsys, "jump", "--eps", "1e-3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["specific_heat_jump"] > 0.0
    assert payload["second_derivative_jump_closed_form"] < 0.0


def test_jump_solves_t_c_once(capsys, window_passes):
    # f'(t_c) comes from one second-order pass at (t_c, 0) and feeds both
    # closed forms; the measured jump's four cold points take one
    # first-order pass
    code, _, _ = run(capsys, "jump")
    assert code == 0
    assert sorted(window_passes) == [(1, 4), (2, 1)]


def test_verify_text_and_exit_code(capsys):
    code, out, _ = run(capsys, "verify", "--points", "51")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[-1] == "pass"
    assert all(line.startswith("PASS ") for line in lines[:-1])
    assert len(lines) == 32


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--points", "51", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True


def test_python_dash_m_runs_the_cli(capsys):
    # python -m bcsgap from a source checkout prints what main() prints
    argv = ["verify", "--format", "json"]
    src = str(Path(bcsgap.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    command = [sys.executable, "-m", "bcsgap", *argv]
    done = subprocess.run(command, capture_output=True, text=True, env=env, check=False)
    code, out, _ = run(capsys, *argv)
    assert (done.returncode, done.stdout) == (code, out) == (0, out)


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# coupling study\nu0n0 = 0.25\nhbar_omega_d = 2.0\n")
    _, from_cfg, _ = run(capsys, "tc", "--config", str(cfg))
    _, overridden, _ = run(capsys, "tc", "--config", str(cfg), "--u0n0", "0.3")
    t_cfg = float(from_cfg.split("\n")[0].split(" = ")[1])
    t_over = float(overridden.split("\n")[0].split(" = ")[1])
    assert t_cfg != t_over
    _, direct, _ = run(capsys, "tc", "--u0n0", "0.3", "--hbar-omega-d", "2.0")
    assert overridden == direct  # flag wins over the file, byte for byte


def test_missing_config_reports_error(capsys, tmp_path):
    code, _, err = run(capsys, "tc", "--config", str(tmp_path / "absent.cfg"))
    assert code == 1
    assert err.startswith("error:")


def test_output_does_not_depend_on_the_environment(capsys, monkeypatch):
    # the quadrature accuracy is fixed in the library; the variable the CLI
    # once read for it changes nothing, whatever its value (its name is
    # spelled in parts, so that a search for the retired name finds no use)
    name = "_".join(("BCSGAP", "QUAD", "RELTOL"))
    monkeypatch.delenv(name, raising=False)
    code, unset, _ = run(capsys, "tc")
    assert code == 0
    for value in ("1e-10", "not-a-number"):
        monkeypatch.setenv(name, value)
        assert run(capsys, "tc") == (0, unset, "")


@pytest.mark.parametrize("command, points", [("gap-curve", "5"), ("thermo", "3")])
def test_table_csv_and_json_hold_the_same_columns_and_floats(capsys, command, points):
    _, csv_text, _ = run(capsys, command, "--points", points)
    _, json_text, _ = run(capsys, command, "--points", points, "--format", "json")
    header, *lines = csv_text.strip().split("\n")
    rows = json.loads(json_text)["points"]
    assert len(rows) == len(lines) == int(points)
    for line, row in zip(lines, rows):
        assert list(row) == header.split(",")
        cells = [v if k == "branch" else float(v) for k, v in zip(row, line.split(","))]
        assert cells == list(row.values())


def test_out_file(tmp_path, capsys):
    target = tmp_path / "curve.csv"
    code, out, _ = run(capsys, "gap-curve", "--points", "5", "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("T,f,")


def test_runs_are_deterministic(capsys):
    _, first, _ = run(capsys, "gap-curve", "--points", "31")
    _, second, _ = run(capsys, "gap-curve", "--points", "31")
    assert first == second


def test_argparse_failures(capsys):
    code, _, _ = run(capsys, "gap-curve", "--no-such-flag")
    assert code == 1
    code, _, _ = run(capsys, "not-a-subcommand")
    assert code == 1


def test_help_exits_cleanly(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "tc" in out and "verify" in out

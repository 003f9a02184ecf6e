"""The self-check suite: it must pass on good physics and fail on bad."""

import dataclasses
import json
import math

import numpy as np
import pytest

from bcsgap import verify
from bcsgap.gap import sample_gap_curve, solve_gap_at
from bcsgap.model import build_params
from bcsgap.thermo import _closed_form_jumps, measured_second_derivative_jump
from bcsgap.verify import Check, VerificationReport, run_suite


@pytest.fixture(scope="module")
def default_report(default_params):
    return run_suite(default_params, grid_size=51)


def test_suite_passes_on_defaults(default_report):
    failed = [c.name for c in default_report.checks if not c.passed]
    assert failed == []
    assert default_report.passed


def test_suite_certified_quadratures_are_pinned(default_params, integrate_calls):
    # t_c's gap point is the curve's last row, not a solve of its own
    run_suite(default_params)
    assert len(integrate_calls) == 153


@pytest.mark.parametrize("u0n0, eps", [(0.3, 0.0), (0.1, 0.0), (0.3, 1e-3), (0.12, 1e-3), (3.0, 1.0)])
def test_default_curve_ends_on_the_lone_t_c_solve(u0n0, eps):
    # at 201 nodes t_c is alone in the curve's last block, so the suite's
    # t_c point keeps the bits of solve_gap_at(t_c)
    p = build_params(u0n0=u0n0, eps=eps)
    assert sample_gap_curve(p, 201).points[-1] == solve_gap_at(p.t_c, p)


def test_check_names_sorted_and_unique(default_report):
    names = [c.name for c in default_report.checks]
    assert names == sorted(names)
    assert len(names) == len(set(names))
    assert len(names) == 31


def test_cutoff_keeps_specific_heat_checks(eps_params):
    report = run_suite(eps_params, grid_size=51)
    names = {c.name for c in report.checks}
    assert len(report.checks) == 31
    assert {"cv_jump_fd", "cv_jump_identity", "cv_jump_positive"} <= names
    assert report.passed


def test_zero_tolerances_fail_difference_checks(default_params, monkeypatch):
    for name in ("_CLOSED_FORM_TOL", "_FIRST_DERIVATIVE_TOL", "_SECOND_DERIVATIVE_TOL", "_JUMP_TOL"):
        monkeypatch.setattr(verify, name, 0.0)
    report = run_suite(default_params, grid_size=51)
    assert not report.passed
    failed = {c.name for c in report.checks if not c.passed}
    # a five-point stencil never reproduces an analytic derivative to the
    # last bit, so these cannot survive a zero tolerance
    assert {"fprime_fd_max_rel", "fsecond_fd_max_rel"} <= failed
    # the extrapolated jump survives only if it meets the closed form exactly,
    # the one from f'(t_c) of the suite's own curve
    jump = next(c for c in report.checks if c.name == "jump_measured_vs_closed")
    closed = _closed_form_jumps(default_params, sample_gap_curve(default_params, 51).points[-1])[0]
    exact = measured_second_derivative_jump(default_params).jump == closed
    assert jump.tolerance == 0.0 and jump.passed == exact
    # counting checks (n violations == 0) are tolerance-free and still pass
    passed = {c.name for c in report.checks if c.passed}
    assert "kernel_negativity" in passed
    assert "partials_negative_grid" in passed


@pytest.mark.parametrize("bad", [2, 2.5, np.float64(5.0), "5", np.int64(2)])
def test_grid_size_validation(default_params, bad):
    with pytest.raises(ValueError, match=">= 3"):
        run_suite(default_params, grid_size=bad)


def test_numpy_grid_size_is_accepted(default_params):
    report = run_suite(default_params, grid_size=np.int64(5))
    assert report.grid_size == 5
    assert report.passed


def test_check_semantics():
    assert Check(name="x", measured=1.0, expected=1.0, tolerance=0.0).passed
    assert Check(name="x", measured=1.5, expected=1.0, tolerance=0.5).passed
    assert not Check(name="x", measured=1.6, expected=1.0, tolerance=0.5).passed
    assert not Check(name="x", measured=math.nan, expected=0.0, tolerance=1.0).passed


def test_report_json_is_stable(default_params, default_report):
    second = run_suite(default_params, grid_size=51)
    assert default_report.to_json() == second.to_json()
    payload = json.loads(default_report.to_json())
    assert payload["pass"] is True
    assert payload["params"]["u0n0"] == 0.3
    assert len(payload["checks"]) == 31
    assert set(payload["checks"][0]) == {
        "name", "measured", "expected", "tolerance", "pass",
    }
    assert "wall_time" not in payload  # timing must not break byte equality
    assert default_report.wall_time > 0.0


def test_report_fields(default_report, default_params):
    assert isinstance(default_report, VerificationReport)
    assert default_report.params is default_params
    assert default_report.grid_size == 51


def test_suite_on_alternate_coupling():
    params = build_params(u0n0=0.25, hbar_omega_d=2.0)
    report = run_suite(params, grid_size=51)
    failed = [c.name for c in report.checks if not c.passed]
    assert failed == []


_SCALE = 2.0**10


@pytest.mark.parametrize(
    "kwargs",
    [
        *({"u0n0": u} for u in (0.06, 0.1, 0.3, 1.0, 10.0, 100.0)),
        *({"eps": e} for e in (1e-2, 0.3, 2.0)),
        *({"mu": m} for m in (1e-3, 0.5, 1e6)),
        *({"hbar_omega_d": s, "mu": 10.0 * s} for s in (_SCALE, 1.0 / _SCALE)),
        *({"k_b": s} for s in (_SCALE, 1.0 / _SCALE)),
    ],
    ids=lambda kw: ",".join(f"{k}={v:g}" for k, v in kw.items()),
)
def test_suite_passes_across_the_accepted_domain(kwargs):
    # the continuity checks compare one-sided limits at t_c, so the slope of
    # the potential is not charged to its continuity at any coupling or scale
    report = run_suite(build_params(**kwargs), grid_size=51)
    assert [c.name for c in report.checks if not c.passed] == []


def test_suite_work_count(integrate_calls):
    # every gap-curve probe of the suite is solved in one batch, not one
    # Newton solve per stencil point; t_c is solved once, the eight jump
    # points are one thermo batch, and the partials grid integrates only
    # the two kernels its signs come from; the Newton steps take no
    # certified call
    p = build_params()
    integrate_calls.clear()
    assert run_suite(p).passed
    assert len(integrate_calls) <= 160

"""Deterministic certification suite for the transition-order claim.

Every check reduces to one number compared against one expectation with one
absolute tolerance, so the report is a flat list of uniform entries.  The
suite draws no random numbers: sampling grids are fixed, finite-difference
steps are fixed fractions of the model scales, and repeated runs with the
same inputs serialize to identical bytes.

Tolerance conventions: comparison checks are held to one of four fixed
tolerances, grouped by derivative order below, or to a fixed multiple of
one; counting checks (monotonicity violations, sign violations) report a count
against zero with zero tolerance; a few protocol constants (transition-point
defect, dropped cancellation term, series/direct branch seam) certify
implementation invariants rather than finite-difference accuracy.
"""

from __future__ import annotations

import json
import math
import operator
import time
from dataclasses import dataclass

import numpy as np

from .gap import _solved_points, _tanh_integral, sample_gap_curve
from .kernels import (
    _CURV_SERIES,
    _ORDER_KERNELS,
    _SERIES_CUT,
    _SLOPE_SERIES,
    _poly_even,
    _ungated_pass,
    curvature_kernel,
    gap_residual,
    gap_residual_second_partials,
    slope_kernel,
)
from .model import ModelParams
from .thermo import (
    _closed_form_jumps,
    condensation_potential,
    extrapolate_to_zero,
    measured_second_derivative_jump,
    thermodynamic_potential,
)

__all__ = ["Check", "VerificationReport", "run_suite"]

# Comparison tolerances, grouped by derivative order.  _CLOSED_FORM_TOL
# bounds relative deviations between two independent exact expressions;
# _FIRST_DERIVATIVE_TOL and _SECOND_DERIVATIVE_TOL bound analytic vs
# finite-difference deviations of the respective order; _JUMP_TOL bounds the
# extrapolated discontinuity measurements.  Derived scales: endpoint
# extrapolations use 0.1 * _JUMP_TOL, the second-derivative FD sweep and the
# mixed-partial symmetry check use 0.01 * _SECOND_DERIVATIVE_TOL, and the
# kernel derivative identity uses 0.1 * _FIRST_DERIVATIVE_TOL.
_CLOSED_FORM_TOL = 1e-10
_FIRST_DERIVATIVE_TOL = 1e-6
_SECOND_DERIVATIVE_TOL = 1e-3
_JUMP_TOL = 1e-3

# protocol constants (see module docstring)
_TC_DEFECT_TOL = 1e-12
_CANCELLATION_TOL = 1e-8
_BRANCH_SEAM_TOL = 1e-14
_TIE_FLOOR = 1e-10  # times f(0); allows unresolvable low-temperature ties
_RESOLVABLE_FROM = 0.3  # fraction of t_c above which strict decrease is demanded
_FD_STEP = 1e-5  # times t_c, five-point stencils on the gap curve
_STENCIL = (-2.0, -1.0, 1.0, 2.0)  # five-point offsets, in steps, without the centre
_ONESIDED_STEP = 1e-3  # times t_c, one-sided probes at t = 0
_EXTRAP_KS = (2, 3, 4, 5)  # offsets t_c * 10^-k for endpoint extrapolation
_PARTIALS_GRID = 50


@dataclass(frozen=True)
class Check:
    """One certified number: passes iff |measured - expected| <= tolerance."""

    name: str
    measured: float
    expected: float
    tolerance: float

    def __post_init__(self):
        object.__setattr__(self, "measured", float(self.measured))
        object.__setattr__(self, "expected", float(self.expected))
        object.__setattr__(self, "tolerance", float(self.tolerance))

    @property
    def passed(self) -> bool:
        return abs(self.measured - self.expected) <= self.tolerance


@dataclass(frozen=True)
class VerificationReport:
    """Suite outcome: checks sorted by name, overall pass iff all pass."""

    params: ModelParams
    grid_size: int
    checks: tuple
    wall_time: float

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def to_json(self) -> str:
        """Byte-stable serialization; wall_time is deliberately excluded."""
        payload = {
            "params": self.params.as_dict(),
            "checks": [
                {
                    "name": c.name,
                    "measured": c.measured,
                    "expected": c.expected,
                    "tolerance": c.tolerance,
                    "pass": c.passed,
                }
                for c in self.checks
            ],
            "pass": self.passed,
        }
        return json.dumps(payload, indent=2)


def _five_point(values, h):
    vm2, vm1, vp1, vp2 = values
    return (vm2 - 8.0 * vm1 + 8.0 * vp1 - vp2) / (12.0 * h)


def run_suite(params: ModelParams, grid_size: int = 201) -> VerificationReport:
    """Run every certification check and assemble the report.

    The checks cover: the transition-point defect, the two closing anchors
    of the residual, the sampled gap curve (endpoints, residuals, guarded
    monotonicity), analytic derivatives against finite differences, the
    endpoint closed forms by extrapolation, the condensation part and its
    slope vanishing at the transition, potential and entropy continuity,
    the measured second-derivative jump against the closed form, the
    specific-heat discontinuity, the thermal kernel identities,
    mixed-partial symmetry, and residual-partial negativity on a grid.
    Deterministic: rerunning with equal inputs yields an equal
    report.  grid_size must be at least 3, so that the derivative stencils
    have an interior node.
    """
    try:
        grid_size = operator.index(grid_size)
    except TypeError:
        raise ValueError(f"grid_size must be an integer >= 3, got {grid_size!r}") from None
    if grid_size < 3:
        raise ValueError(f"grid_size must be an integer >= 3, got {grid_size!r}")
    start = time.perf_counter()
    checks = []
    add = checks.append

    t_c = params.t_c
    delta_sq = params.delta**2
    # the probe grids run on the core view: temperatures in t_c, energies in k_b t_c
    core = params.core

    # -- transition point and residual anchors ---------------------------
    defect = _tanh_integral(params.eps, core.hbar_omega_d / 2.0)
    add(Check(
        "tc_definition_residual",
        abs(defect - 1.0 / params.u0n0) * params.u0n0,
        0.0,
        _TC_DEFECT_TOL,
    ))
    add(Check("anchor_residual_t0", abs(gap_residual(0.0, delta_sq, params)), 0.0, _CLOSED_FORM_TOL))
    add(Check("anchor_residual_tc", abs(gap_residual(t_c, 0.0, params)), 0.0, _CLOSED_FORM_TOL))

    # -- sampled gap curve ------------------------------------------------
    curve = sample_gap_curve(params, grid_size)
    ts = np.array([p.t for p in curve.points])
    fs = np.array([p.f for p in curve.points])
    add(Check("gap_endpoint_t0", abs(fs[0] - delta_sq) / delta_sq, 0.0, _CLOSED_FORM_TOL))
    add(Check("gap_endpoint_tc", abs(fs[-1]) / delta_sq, 0.0, _CLOSED_FORM_TOL))
    add(Check(
        "gap_max_residual",
        max(p.residual for p in curve.points),
        0.0,
        _CLOSED_FORM_TOL,
    ))
    diffs = np.diff(fs)
    # below the resolvable region the true decrease per step is sub-ulp, so
    # only increases beyond the tie floor count as violations there
    add(Check(
        "gap_monotone_guarded",
        float(np.sum(diffs > _TIE_FLOOR * fs[0])),
        0.0,
        0.0,
    ))
    resolvable = ts[:-1] >= _RESOLVABLE_FROM * t_c
    add(Check(
        "gap_monotone_resolvable",
        float(np.sum(~(diffs[resolvable] < 0.0))),
        0.0,
        0.0,
    ))

    # -- every interior probe of the curve in one batched solve -----------
    # stencil nodes and their offsets, the one-sided points at t = 0, and
    # the extrapolation points below t_c, each with f, f' and f''
    stride = max(1, (grid_size - 1) // 16)
    node_idx = list(range(stride, grid_size - 1, stride))
    nodes = ts[node_idx] / t_c
    n = nodes.size
    h = _FD_STEP
    h0 = _ONESIDED_STEP
    hs = [10.0 ** (-k) for k in _EXTRAP_KS]
    probes = np.concatenate([nodes, *(nodes + o * h for o in _STENCIL), [h0, 2.0 * h0], 1.0 - np.array(hs)])
    f, fp, fs = np.array([(q.f, q.f_prime, q.f_second) for q in _solved_points(probes, core)]).T

    # -- analytic derivatives vs five-point stencils ----------------------
    fp_a, fs_a = fp[:n], fs[:n]
    fd1 = _five_point(f[n:5 * n].reshape(4, n), h)
    fd2 = _five_point(fp[n:5 * n].reshape(4, n), h)
    fp_floor = 0.01 * np.max(np.abs(fp_a))
    fs_floor = 0.01 * np.max(np.abs(fs_a))
    add(Check(
        "fprime_fd_max_rel",
        np.max(np.abs(fp_a - fd1) / np.maximum(np.abs(fp_a), fp_floor)),
        0.0,
        _FIRST_DERIVATIVE_TOL,
    ))
    add(Check(
        "fsecond_fd_max_rel",
        np.max(np.abs(fs_a - fd2) / np.maximum(np.abs(fs_a), fs_floor)),
        0.0,
        0.01 * _SECOND_DERIVATIVE_TOL,
    ))

    # -- flat start: both derivatives vanish at t = 0 ---------------------
    f_h0, f_2h0 = f[5 * n:5 * n + 2]
    add(Check(
        "fprime_t0_onesided",
        abs((f_h0 - core.delta**2) / h0),
        0.0,
        _FIRST_DERIVATIVE_TOL,
    ))
    add(Check(
        "fsecond_t0_onesided",
        abs((f_2h0 - 2.0 * f_h0 + core.delta**2) / h0**2),
        0.0,
        0.01 * _SECOND_DERIVATIVE_TOL,
    ))

    # -- closed-form endpoint derivatives by interior extrapolation -------
    tc_gap = curve.points[-1]
    fp_tc, fs_tc = tc_gap.f_prime / params.scales[1], tc_gap.f_second / params.scales[2]
    add(Check(
        "fprime_tc_extrapolated",
        abs(extrapolate_to_zero(hs, fp[5 * n + 2:]) - fp_tc) / abs(fp_tc),
        0.0,
        0.1 * _JUMP_TOL,
    ))
    add(Check(
        "fsecond_tc_extrapolated",
        abs(extrapolate_to_zero(hs, fs[5 * n + 2:]) - fs_tc) / abs(fs_tc),
        0.0,
        0.1 * _JUMP_TOL,
    ))
    add(Check("fprime_tc_negative", max(0.0, fp_tc), 0.0, 0.0))

    # -- condensation part closes the potential smoothly ------------------
    point_tc = thermodynamic_potential(t_c, params)
    d0, d1, d2 = condensation_potential(t_c, params, tc_gap)
    omega_scale = abs(point_tc.omega)
    add(Check("delta_tc_zero", abs(d0), 0.0, _CLOSED_FORM_TOL * omega_scale))
    add(Check(
        "delta_slope_tc_zero",
        abs(d1),
        0.0,
        _CLOSED_FORM_TOL * max(1.0, abs(point_tc.omega_t)),
    ))
    jump_closed, dcv = _closed_form_jumps(params, tc_gap)
    add(Check(
        "jump_equals_delta_curvature",
        abs(d2 - jump_closed) / abs(jump_closed),
        0.0,
        _CLOSED_FORM_TOL,
    ))

    # -- continuity and the jump, from the one-sided limits at t_c --------
    measured = measured_second_derivative_jump(params)
    add(Check(
        "omega_continuity_tc",
        abs(measured.omega[0] - measured.omega[1]),
        0.0,
        _CLOSED_FORM_TOL * omega_scale,
    ))
    add(Check(
        "entropy_continuity_tc",
        abs(measured.omega_t[0] - measured.omega_t[1]),
        0.0,
        _FIRST_DERIVATIVE_TOL * max(1.0, abs(point_tc.entropy)),
    ))
    add(Check(
        "jump_measured_vs_closed",
        abs(measured.jump - jump_closed) / abs(jump_closed),
        0.0,
        _JUMP_TOL,
    ))
    add(Check("cv_jump_positive", max(0.0, -dcv), 0.0, 0.0))
    add(Check(
        "cv_jump_identity",
        abs(dcv + t_c * jump_closed) / dcv,
        0.0,
        _CLOSED_FORM_TOL,
    ))
    add(Check(
        "cv_jump_fd",
        abs(dcv + t_c * measured.jump) / dcv,
        0.0,
        _JUMP_TOL,
    ))

    # -- thermal kernels ---------------------------------------------------
    add(Check(
        "kernel_zero_values",
        abs(slope_kernel(0.0) + 2.0 / 3.0) + abs(curvature_kernel(0.0) + 16.0 / 15.0),
        0.0,
        0.0,
    ))
    eta = np.logspace(-3.0, math.log10(50.0), 100)
    g_vals = slope_kernel(eta)
    big_g_vals = curvature_kernel(eta)
    add(Check(
        "kernel_negativity",
        float(np.sum(g_vals >= 0.0) + np.sum(big_g_vals >= 0.0)),
        0.0,
        0.0,
    ))
    h_eta = np.minimum(1e-3 * np.maximum(1.0, eta), 0.25 * eta)
    fd_slope = _five_point(
        [slope_kernel(eta + o * h_eta) for o in _STENCIL], h_eta
    )
    identity = -eta * big_g_vals
    add(Check(
        "kernel_identity_fd",
        float(np.max(np.abs(fd_slope - identity) / np.abs(identity))),
        0.0,
        0.1 * _FIRST_DERIVATIVE_TOL,
    ))
    cut = np.asarray(_SERIES_CUT, dtype=float)
    seam = max(
        abs(float(_poly_even(cut, _SLOPE_SERIES)) - slope_kernel(_SERIES_CUT))
        / abs(slope_kernel(_SERIES_CUT)),
        abs(float(_poly_even(cut, _CURV_SERIES)) - curvature_kernel(_SERIES_CUT))
        / abs(curvature_kernel(_SERIES_CUT)),
    )
    add(Check("branch_agreement_at_cut", seam, 0.0, _BRANCH_SEAM_TOL))

    # -- mixed second partial from both finite-difference directions ------
    t_m, y_m = 0.7, 0.3 * core.y_max
    second = gap_residual_second_partials(t_m, y_m, core)
    h_y = 1e-5 * core.y_max
    h_t = 1e-5
    steps = np.array(_STENCIL)
    p, _ = _ungated_pass(
        np.concatenate([np.full(4, t_m), t_m + steps * h_t]),
        np.concatenate([y_m + steps * h_y, np.full(4, y_m)]),
        core,
        _ORDER_KERNELS[1],
    )
    dty_from_y = _five_point(p.d_t[:4], h_y)
    dty_from_t = _five_point(p.d_y[4:], h_t)
    add(Check(
        "mixed_partial_symmetry",
        max(abs(dty_from_y - second.d_ty), abs(dty_from_t - second.d_ty))
        / abs(second.d_ty),
        0.0,
        0.01 * _SECOND_DERIVATIVE_TOL,
    ))

    # -- residual partials strictly negative off the zero-temperature edge
    grid_t, grid_y = np.meshgrid(
        [i / _PARTIALS_GRID for i in range(1, _PARTIALS_GRID + 1)],
        [core.y_max * (j / _PARTIALS_GRID) for j in range(_PARTIALS_GRID)],
        indexing="ij",
    )
    # only the two kernels the signs come from
    p, _ = _ungated_pass(grid_t.ravel(), grid_y.ravel(), core, ("sech", "slope"))
    violations = np.sum(~(p.d_t < 0.0)) + np.sum(~(p.d_y < 0.0))
    add(Check("partials_negative_grid", float(violations), 0.0, 0.0))

    # -- the analytically dropped slope term is machine-level -------------
    # re-integrated at the warm nodes in one call, not read off the curve
    warm = [*node_idx, grid_size - 1]
    ys = np.array([curve.points[i].f / params.scales[0] for i in warm])
    values = _ungated_pass(ts[warm] / t_c, ys, core, ("value",))[0].value
    residuals = [gap_residual(0.0, curve.points[0].f, params), *values]
    cancel = params.n0 * max(abs(r) for r in residuals)
    add(Check(
        "cancellation_residual_max",
        (params.u0n0 / params.n0) * cancel,
        0.0,
        _CANCELLATION_TOL,
    ))

    checks.sort(key=lambda c: c.name)
    names = [c.name for c in checks]
    if len(set(names)) != len(names):
        raise RuntimeError("duplicate check name in suite")
    return VerificationReport(
        params=params,
        grid_size=grid_size,
        checks=tuple(checks),
        wall_time=time.perf_counter() - start,
    )

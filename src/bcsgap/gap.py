"""Transition temperature, gap closed forms, and the squared-gap curve.

The curve f(t) = (gap at temperature t)^2 is the zero set of the residual
from the kernels module.  Endpoints are exact: f(0) is the closed-form
squared gap and f(t_c) = 0.  Both unknowns, f(t) and t_c, are roots of
functions that are strictly decreasing and convex in the variable solved
for, so plain Newton iterations converge without a bracket: a step from
the right of the root lands at or left of it, and from the left the
iterates rise monotonically to it (Fourier's condition).
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    BracketFailure,
    NoBracket,
    NonFiniteInput,
    NonPositiveParameter,
    NotSolved,
    OutsideDomain,
    ToleranceNotMet,
)
from .kernels import (
    gap_residual,
    gap_residual_second_partials,
    window_integrals,
    window_pass,
)
from .model import ModelParams, _as_finite_float, _require_positive
from .quad import DEFAULT_SPEC, QuadSpec, integrate

__all__ = [
    "RESIDUAL_TOL",
    "GapCurve",
    "GapPoint",
    "gap_derivatives_at",
    "gap_point_at",
    "sample_gap_curve",
    "solve_gap_at",
    "solve_tc",
]

RESIDUAL_TOL = 1e-10  # |residual| above this marks a gap point as unsolved
_NEWTON_STEPS = 60  # cap on Newton steps in either root finder
_TC_WINDOW = (1e-8, 1e8)  # transition-temperature bracket in hbar_omega_d / k_b units
_TC_RESIDUAL = 1e-12  # relative defect u0n0 * |d| allowed in the transition-temperature condition


def solve_tc(
    u0n0: float,
    hbar_omega_d: float,
    k_b: float,
    eps: float = 0.0,
    quad_spec: QuadSpec | None = None,
) -> float:
    """Temperature at which the pairing condition closes with zero gap.

    Solves  integral of tanh(x)/x over [eps, U] equal to 1/u0n0, where
    U = hbar_omega_d / (2 k_b t).  In s = ln t the defect d has slope
    -tanh(U) and curvature U sech^2(U) > 0, so it is decreasing and convex:
    Newton on s from the lower end of the search window rises monotonically
    to the unique root.  It stops on the relative defect u0n0 * |d|, the
    form in which the condition is stated.
    """
    values = {"u0n0": u0n0, "hbar_omega_d": hbar_omega_d, "k_b": k_b, "eps": eps}
    for name, v in values.items():
        if not isinstance(v, numbers.Real):
            raise NonFiniteInput(f"{name} must be a real number, got {v!r}")
        values[name] = v = _as_finite_float(name, v)
        if name != "eps":
            _require_positive(name, v)
    u0n0, hbar_omega_d, k_b, eps = values.values()
    if eps < 0.0:
        raise NonPositiveParameter(f"eps must be >= 0, got {eps}")

    base = quad_spec or DEFAULT_SPEC
    # The defect must resolve well below the 1e-12 residual contract.
    spec = replace(base, rel_tol=min(1e-14, base.rel_tol))
    target = 1.0 / u0n0
    scale = hbar_omega_d / k_b

    def defect(t: float) -> float:
        upper = hbar_omega_d / (2.0 * k_b * t)
        if upper <= eps:
            return -target
        val, _ = integrate(lambda x: np.tanh(x) / x, eps, upper, spec, scale=1.0)
        return val - target

    lo, hi = _TC_WINDOW[0] * scale, _TC_WINDOW[1] * scale
    t, d = lo, defect(lo)
    if not (d > 0.0 > defect(hi)):
        raise NoBracket(
            f"no transition temperature in [{lo:.3e}, {hi:.3e}] for "
            f"u0n0 = {u0n0}, eps = {eps}"
        )
    for _ in range(_NEWTON_STEPS):
        if u0n0 * abs(d) <= 0.25 * _TC_RESIDUAL:
            break
        t_next = t * math.exp(d / math.tanh(hbar_omega_d / (2.0 * k_b * t)))
        if t_next == t:
            break
        t = t_next
        d = defect(t)
    if u0n0 * abs(d) > _TC_RESIDUAL:
        raise ToleranceNotMet(
            f"relative transition-temperature defect {u0n0 * d:.3e} above {_TC_RESIDUAL:g}"
        )
    return t


@dataclass(frozen=True)
class GapPoint:
    """One solved node of the squared-gap curve."""

    t: float
    f: float
    residual: float
    f_prime: float | None = None
    f_second: float | None = None


@dataclass(frozen=True)
class GapCurve:
    """Ordered gap-curve samples plus the parameter snapshot they came from."""

    points: tuple[GapPoint, ...]
    params: ModelParams

    def to_csv(self) -> str:
        lines = ["T,f,f_prime,f_second,residual"]
        for p in self.points:
            lines.append(
                f"{p.t:.17g},{p.f:.17g},{_opt(p.f_prime)},{_opt(p.f_second)},{p.residual:.17g}"
            )
        return "\n".join(lines) + "\n"


def _opt(v: float | None) -> str:
    return "" if v is None else f"{v:.17g}"


def _newton(ts: np.ndarray, seeds: np.ndarray, params: ModelParams) -> np.ndarray:
    """Squared gap at each interior temperature in ts by batched Newton.

    For 0 < t < t_c the residual is strictly decreasing in y and convex
    (its second y-derivative is -I_curv / (4 (2 k_b t)^5) > 0 because
    curvature_kernel < 0), so Newton steps y <- max(0, y - F / F_y)
    converge without a bracket: from a seed right of the root the first
    step lands at or left of it, and from there the iterates rise
    monotonically.  A node stops when its step does not move y or its
    residual is at most 1e-13; it then drops out of the batch.  An iterate
    at y = 0 with F(t, 0) <= 0 means no root exists.  Returns the roots.
    """
    y = np.array(seeds, dtype=float)
    active = np.arange(ts.size)
    for _ in range(_NEWTON_STEPS):
        if active.size == 0:
            break
        t, y_now = ts[active], y[active]
        p = window_pass(t, y_now, params, order=0)
        stuck = (y_now == 0.0) & (p.value <= 0.0)
        if stuck.any():
            raise BracketFailure(
                f"residual has no root in [0, y_max] at t = {float(t[stuck][0])!r}; "
                "parameters are outside the solvable regime"
            )
        y_next = np.maximum(0.0, y_now - p.value / p.d_y)
        done = (y_next == y_now) | (np.abs(p.value) <= 1e-13)
        y[active] = y_next
        active = active[~done]
    if active.size:
        raise ToleranceNotMet(f"gap solve at t = {float(ts[active[0]])!r} did not converge")
    return y


def solve_gap_at(t: float, params: ModelParams) -> GapPoint:
    """Solve the gap equation for the squared gap at one temperature.

    Endpoints short-circuit to exact values.  For 0 < t < t_c this is the
    batched Newton iteration at a single node, seeded with f(0), which lies
    at or right of the root.  The residual of the returned point is
    re-evaluated at the accepted root.
    """
    if not (isinstance(t, numbers.Real) and math.isfinite(t)):
        raise NonFiniteInput(f"temperature must be finite, got {t!r}")
    t = float(t)
    if t < 0.0 or t > params.t_c:
        raise OutsideDomain(f"temperature {t!r} outside [0, {params.t_c!r}]")
    if t == 0.0:
        y = params.delta**2
        return GapPoint(t=0.0, f=y, residual=abs(gap_residual(0.0, y, params)))
    if t == params.t_c:
        return GapPoint(t=t, f=0.0, residual=abs(gap_residual(t, 0.0, params)))

    y = float(_newton(np.array([t]), np.array([params.delta**2]), params)[0])
    return GapPoint(t=t, f=y, residual=abs(gap_residual(t, y, params)))


def _tc_endpoint_derivatives(params: ModelParams) -> tuple[float, float]:
    """Closed-form slope and curvature of the squared-gap curve at t_c.

    Quotients of pairing-window integrals of the thermal kernels evaluated
    at eta = xi / (2 k_b t_c); these are the limits of the interior
    implicit-function formulas as the gap closes.
    """
    kb, t_c = params.k_b, params.t_c
    kinds = ("sech", "slope", "eta_tanh", "mixed", "curv")
    i_sech, i_slope, i_eta_tanh, i_mixed, i_curv = window_integrals(t_c, 0.0, params, kinds)[:, 0].tolist()
    i_shift = i_eta_tanh - i_sech

    f_prime = 8.0 * kb**2 * t_c * i_sech / i_slope
    f_second = (
        16.0 * kb**2 * i_shift / i_slope
        - 32.0 * kb**2 * i_sech * i_mixed / i_slope**2
        + 8.0 * kb**2 * i_sech**2 * i_curv / i_slope**3
    )
    return f_prime, f_second


def _implicit_derivatives(p):
    """f' and f'' of the curve from the residual partials at solved points.

    f'' is divided by d_y once, not by d_y**3, so no intermediate leaves the
    range of the partials themselves at small energy scales.
    """
    f_prime = -p.d_t / p.d_y
    f_second = -(p.d_tt + (2.0 * p.d_ty + p.d_yy * f_prime) * f_prime) / p.d_y
    return f_prime, f_second


def _check_residual(residual) -> None:
    if not residual <= RESIDUAL_TOL:
        raise NotSolved(
            f"gap_point residual {residual:.3e} above {RESIDUAL_TOL:g}"
        )


def gap_derivatives_at(t: float, params: ModelParams, gap_point: GapPoint) -> tuple[float, float]:
    """First and second temperature derivatives of the squared-gap curve.

    Interior temperatures use the implicit-function quotients of the
    residual partials at the solved point; t = 0 returns exact zeros and
    t = t_c the closed-form integral quotients.
    """
    if gap_point is None or gap_point.t != t:
        raise NotSolved(f"gap_point was solved at t = {getattr(gap_point, 't', None)!r}, not {t!r}")
    _check_residual(gap_point.residual)
    if t == 0.0:
        return 0.0, 0.0
    if t == params.t_c:
        return _tc_endpoint_derivatives(params)
    return _implicit_derivatives(gap_residual_second_partials(t, gap_point.f, params))


def _interior_points(ts: np.ndarray, params: ModelParams) -> list[GapPoint]:
    """Solved points with f' and f'' at interior temperatures 0 < t < t_c.

    One batched Newton iteration seeded with f(0), then one second-order
    window pass at the roots for residuals, f', f''.
    """
    ys = _newton(ts, np.full(ts.size, params.delta**2), params)
    p = window_pass(ts, ys, params, order=2)
    residuals = np.abs(p.value)
    _check_residual(float(np.max(residuals, initial=0.0)))
    columns = (ts, ys, residuals, *_implicit_derivatives(p))
    return [
        GapPoint(t=t, f=y, residual=r, f_prime=fp, f_second=fs)
        for t, y, r, fp, fs in zip(*(c.tolist() for c in columns))
    ]


def gap_point_at(t: float, params: ModelParams) -> GapPoint:
    """Solved point at one temperature in [0, t_c], with f' and f''.

    One Newton solve and one second-order pass; t = 0 and t = t_c keep their
    closed forms.
    """
    if isinstance(t, numbers.Real) and 0.0 < t < params.t_c:
        return _interior_points(np.array([float(t)]), params)[0]
    point = solve_gap_at(t, params)
    f_prime, f_second = gap_derivatives_at(point.t, params, point)
    return replace(point, f_prime=f_prime, f_second=f_second)


def sample_gap_curve(params: ModelParams, n_points: int, grid: str = "uniform") -> GapCurve:
    """Solve the squared-gap curve on [0, t_c] with derivatives at each node.

    All interior nodes are solved together by one batched Newton iteration
    seeded with f(0); one second-order window pass at the roots then gives
    every residual, f' and f''.  grid = "chebyshev" clusters nodes at both
    endpoints, where the curve bends hardest.
    """
    try:
        n_points = operator.index(n_points)
    except TypeError:
        raise ValueError(f"n_points must be an integer >= 2, got {n_points!r}") from None
    if n_points < 2:
        raise ValueError(f"n_points must be an integer >= 2, got {n_points!r}")
    if grid == "uniform":
        ts = np.linspace(0.0, params.t_c, n_points)
    elif grid == "chebyshev":
        k = np.arange(n_points, dtype=float)
        ts = 0.5 * params.t_c * (1.0 - np.cos(np.pi * k / (n_points - 1)))
    else:
        raise ValueError(f"grid must be 'uniform' or 'chebyshev', got {grid!r}")
    ts[0], ts[-1] = 0.0, params.t_c

    ends = [gap_point_at(t, params) for t in (0.0, params.t_c)]
    return GapCurve(points=(ends[0], *_interior_points(ts[1:-1], params), ends[1]), params=params)

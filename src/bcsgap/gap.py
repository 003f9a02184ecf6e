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
import operator
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    BracketFailure,
    NoBracket,
    NonPositiveParameter,
    NotSolved,
    OutsideDomain,
    ToleranceNotMet,
)
from .kernels import gap_residual, gap_residual_second_partials, window_pass
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
    u0n0, hbar_omega_d, k_b, eps = (_as_finite_float(name, v) for name, v in values.items())
    for name, v in (("u0n0", u0n0), ("hbar_omega_d", hbar_omega_d), ("k_b", k_b)):
        _require_positive(name, v)
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


def _checked_temperature(t, params: ModelParams) -> float:
    t = _as_finite_float("temperature", t)
    if t < 0.0 or t > params.t_c:
        raise OutsideDomain(f"temperature {t!r} outside [0, {params.t_c!r}]")
    return t


def solve_gap_at(t: float, params: ModelParams) -> GapPoint:
    """Solve the gap equation for the squared gap at one temperature.

    t = 0 short-circuits to the closed-form gap; every other temperature is
    one row of the solved-point path, whose residual is re-evaluated at the
    accepted root.
    """
    t = _checked_temperature(t, params)
    if t == 0.0:
        y = params.delta**2
        return GapPoint(t=0.0, f=y, residual=abs(gap_residual(0.0, y, params)))
    return _solved_points(np.array([t]), params, order=0)[0]


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


def _require_solved(t: float, gap_point: GapPoint) -> None:
    """Raise NotSolved unless gap_point was solved at t to RESIDUAL_TOL."""
    if gap_point is None or gap_point.t != t:
        raise NotSolved(f"gap_point was solved at t = {getattr(gap_point, 't', None)!r}, not {t!r}")
    _check_residual(gap_point.residual)


def gap_derivatives_at(t: float, params: ModelParams, gap_point: GapPoint) -> tuple[float, float]:
    """First and second temperature derivatives of the squared-gap curve.

    Every temperature in (0, t_c] uses the implicit-function quotients of
    the residual partials at the solved point; t = 0 returns exact zeros.
    """
    _require_solved(t, gap_point)
    if t == 0.0:
        return 0.0, 0.0
    return _implicit_derivatives(gap_residual_second_partials(t, gap_point.f, params))


def _solved_points(ts: np.ndarray, params: ModelParams, order: int) -> list[GapPoint]:
    """Solved points at temperatures 0 < t <= t_c, with f' and f'' at order 2.

    f(t_c) = 0 and the colder roots come from one batched Newton iteration
    seeded with f(0); one window pass of the given order at the roots then
    gives every residual and, at order 2, f' and f'' by the implicit-function
    quotients, t_c included.
    """
    ys = np.zeros(ts.size)
    cold = ts < params.t_c
    ys[cold] = _newton(ts[cold], np.full(np.count_nonzero(cold), params.delta**2), params)
    p = window_pass(ts, ys, params, order)
    residuals = np.abs(p.value)
    _check_residual(float(np.max(residuals, initial=0.0)))
    columns = (ts, ys, residuals, *(_implicit_derivatives(p) if order == 2 else ()))
    return [GapPoint(*row) for row in zip(*(c.tolist() for c in columns))]


def gap_point_at(t: float, params: ModelParams) -> GapPoint:
    """Solved point at one temperature in [0, t_c], with f' and f''.

    One row of the solved-point path; t = 0 keeps its closed forms.
    """
    t = _checked_temperature(t, params)
    if t == 0.0:
        return replace(solve_gap_at(0.0, params), f_prime=0.0, f_second=0.0)
    return _solved_points(np.array([t]), params, order=2)[0]


def sample_gap_curve(params: ModelParams, n_points: int, grid: str = "uniform") -> GapCurve:
    """Solve the squared-gap curve on [0, t_c] with derivatives at each node.

    Every node above t = 0 is a row of one solved-point batch: one batched
    Newton iteration seeded with f(0) for the nodes below t_c, then one
    second-order window pass, t_c included, for every residual, f' and f''.
    grid = "chebyshev" clusters nodes at both endpoints, where the curve
    bends hardest.
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
    points = (gap_point_at(0.0, params), *_solved_points(ts[1:], params, order=2))
    return GapCurve(points=points, params=params)

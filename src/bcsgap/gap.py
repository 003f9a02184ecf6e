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
    curvature_kernel,
    gap_residual,
    gap_residual_second_partials,
    residual_and_slope,
    sech2,
    slope_kernel,
)
from .model import ModelParams
from .quad import DEFAULT_SPEC, QuadSpec, integrate

__all__ = [
    "RESIDUAL_TOL",
    "GapCurve",
    "GapPoint",
    "closed_form_gaps",
    "gap_derivatives_at",
    "sample_gap_curve",
    "solve_gap_at",
    "solve_tc",
]

RESIDUAL_TOL = 1e-10  # |residual| above this marks a gap point as unsolved
_NEWTON_STEPS = 60  # cap on Newton steps in either root finder
_TC_WINDOW = (1e-8, 1e8)  # transition-temperature bracket in hbar_omega_d / k_b units
_TC_RESIDUAL = 1e-12  # absolute defect allowed in the transition-temperature condition


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
    to the unique root.
    """
    for name, v in (("u0n0", u0n0), ("hbar_omega_d", hbar_omega_d), ("k_b", k_b)):
        if not (isinstance(v, (int, float)) and math.isfinite(v)):
            raise NonFiniteInput(f"{name} must be finite, got {v!r}")
        if not v > 0.0:
            raise NonPositiveParameter(f"{name} must be > 0, got {v}")
    if not (isinstance(eps, (int, float)) and math.isfinite(eps)):
        raise NonFiniteInput(f"eps must be finite, got {eps!r}")
    if eps < 0.0:
        raise NonPositiveParameter(f"eps must be >= 0, got {eps}")

    base = quad_spec or DEFAULT_SPEC
    # The defect must resolve well below the 1e-12 residual contract.
    spec = QuadSpec(
        rel_tol=min(1e-14, base.rel_tol),
        abs_tol=base.abs_tol,
        max_subdivisions=base.max_subdivisions,
    )
    target = 1.0 / u0n0
    scale = hbar_omega_d / k_b

    def defect(t: float) -> float:
        upper = hbar_omega_d / (2.0 * k_b * t)
        if upper <= eps:
            return -target
        val, _ = integrate(lambda x: np.tanh(x) / x, eps, upper, spec)
        return val - target

    lo, hi = _TC_WINDOW[0] * scale, _TC_WINDOW[1] * scale
    t, d = lo, defect(lo)
    if not (d > 0.0 > defect(hi)):
        raise NoBracket(
            f"no transition temperature in [{lo:.3e}, {hi:.3e}] for "
            f"u0n0 = {u0n0}, eps = {eps}"
        )
    for _ in range(_NEWTON_STEPS):
        if abs(d) <= 0.25 * _TC_RESIDUAL:
            break
        t_next = t * math.exp(d / math.tanh(hbar_omega_d / (2.0 * k_b * t)))
        if t_next == t:
            break
        t = t_next
        d = defect(t)
    if abs(d) > _TC_RESIDUAL:
        raise ToleranceNotMet(
            f"transition-temperature defect {d:.3e} above {_TC_RESIDUAL:g}"
        )
    return t


def closed_form_gaps(params: ModelParams) -> tuple[float, float]:
    """Zero-temperature gap pair (full window, cutoff window).

    The first entry ignores the cutoff; the second applies it and is the
    actual f(0)**0.5.  They coincide exactly when eps = 0, and the cutoff
    one is strictly smaller otherwise.
    """
    return params.delta0, params.delta


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


def solve_gap_at(t: float, params: ModelParams, hint: float | None = None) -> GapPoint:
    """Solve the gap equation for the squared gap at one temperature.

    Endpoints short-circuit to exact values.  For 0 < t < t_c the residual
    is strictly decreasing in y and convex (its second y-derivative is
    -I_curv / (4 (2 k_b t)^5) > 0 because curvature_kernel < 0), so Newton
    steps y <- max(0, y - F / F_y) converge without a bracket.  The seed is
    the continuation hint when it lies in (0, y_max), else f(0), which lies
    at or right of the root.  A step that reaches y = 0 with F(t, 0) <= 0
    means no root exists.  The residual of the returned point is
    re-evaluated at the accepted root.
    """
    if not math.isfinite(t):
        raise NonFiniteInput(f"temperature must be finite, got {t!r}")
    if t < 0.0 or t > params.t_c:
        raise OutsideDomain(f"temperature {t!r} outside [0, {params.t_c!r}]")
    if t == 0.0:
        y = params.delta**2
        return GapPoint(t=0.0, f=y, residual=abs(gap_residual(0.0, y, params)))
    if t == params.t_c:
        return GapPoint(t=t, f=0.0, residual=abs(gap_residual(t, 0.0, params)))

    caches: dict = {}
    y = hint if hint is not None and 0.0 < hint < params.y_max else params.delta**2
    for _ in range(_NEWTON_STEPS):
        val, d_y = residual_and_slope(t, y, params, caches=caches)
        if y == 0.0 and val <= 0.0:
            raise BracketFailure(
                f"residual has no root in [0, y_max] at t = {t!r}; "
                "parameters are outside the solvable regime"
            )
        y_next = max(0.0, y - val / d_y)
        converged = y_next == y or abs(val) <= 1e-13
        y = y_next
        if converged:
            break
    else:
        raise ToleranceNotMet(f"gap solve at t = {t!r} did not converge")

    return GapPoint(t=t, f=y, residual=abs(gap_residual(t, y, params, cache=caches["value"])))


def _tc_endpoint_derivatives(params: ModelParams) -> tuple[float, float]:
    """Closed-form slope and curvature of the squared-gap curve at t_c.

    Quotients of pairing-window integrals of the thermal kernels evaluated
    at eta = xi / (2 k_b t_c); these are the limits of the interior
    implicit-function formulas as the gap closes.
    """
    kb, t_c = params.k_b, params.t_c
    c = 2.0 * kb * t_c
    a, b, spec = params.xi_min, params.hbar_omega_d, params.quad_spec

    def over(f):
        val, _ = integrate(lambda xi: f(xi / c), a, b, spec)
        return val

    i_sech = over(sech2)
    i_slope = over(slope_kernel)
    i_shift = over(lambda e: (e * np.tanh(e) - 1.0) * sech2(e))
    i_mixed = over(lambda e: np.tanh(e) / e * sech2(e))
    i_curv = over(curvature_kernel)

    f_prime = 8.0 * kb**2 * t_c * i_sech / i_slope
    f_second = (
        16.0 * kb**2 * i_shift / i_slope
        - 32.0 * kb**2 * i_sech * i_mixed / i_slope**2
        + 8.0 * kb**2 * i_sech**2 * i_curv / i_slope**3
    )
    return f_prime, f_second


def gap_derivatives_at(t: float, params: ModelParams, gap_point: GapPoint) -> tuple[float, float]:
    """First and second temperature derivatives of the squared-gap curve.

    Interior temperatures use the implicit-function quotients of the
    residual partials at the solved point; t = 0 returns exact zeros and
    t = t_c the closed-form integral quotients.
    """
    if gap_point is None or gap_point.t != t:
        raise NotSolved(f"gap_point was solved at t = {getattr(gap_point, 't', None)!r}, not {t!r}")
    if not gap_point.residual <= RESIDUAL_TOL:
        raise NotSolved(
            f"gap_point residual {gap_point.residual:.3e} above {RESIDUAL_TOL:g}"
        )
    if t == 0.0:
        return 0.0, 0.0
    if t == params.t_c:
        return _tc_endpoint_derivatives(params)
    p = gap_residual_second_partials(t, gap_point.f, params)
    f_prime = -p.d_t / p.d_y
    f_second = (
        -p.d_tt * p.d_y**2 + 2.0 * p.d_ty * p.d_t * p.d_y - p.d_yy * p.d_t**2
    ) / p.d_y**3
    return f_prime, f_second


def sample_gap_curve(params: ModelParams, n_points: int, grid: str = "uniform") -> GapCurve:
    """Solve the squared-gap curve on [0, t_c] with derivatives at each node.

    Nodes are swept upward in temperature, each solve seeded with the
    previous solution as a continuation hint.  grid = "chebyshev" clusters
    nodes at both endpoints, where the curve bends hardest.
    """
    if not isinstance(n_points, int) or n_points < 2:
        raise ValueError(f"n_points must be an integer >= 2, got {n_points!r}")
    if grid == "uniform":
        ts = np.linspace(0.0, params.t_c, n_points)
    elif grid == "chebyshev":
        k = np.arange(n_points, dtype=float)
        ts = 0.5 * params.t_c * (1.0 - np.cos(np.pi * k / (n_points - 1)))
    else:
        raise ValueError(f"grid must be 'uniform' or 'chebyshev', got {grid!r}")
    ts[0], ts[-1] = 0.0, params.t_c

    points: list[GapPoint] = []
    hint: float | None = None
    for t in ts:
        point = solve_gap_at(float(t), params, hint=hint)
        f_prime, f_second = gap_derivatives_at(float(t), params, point)
        point = replace(point, f_prime=f_prime, f_second=f_second)
        points.append(point)
        hint = point.f if 0.0 < point.f < params.y_max else None
    return GapCurve(points=tuple(points), params=params)

"""Transition temperature, gap closed forms, and the squared-gap curve.

The curve f(t) = (gap at temperature t)^2 is the zero set of the residual
from the kernels module.  f(t_c) = 0 exactly, and t = 0 is solved like
every other node, at the coldest temperature the kernels evaluate, where
every thermal factor has underflowed and the root is the closed-form
squared gap.  Both unknowns, f(t) and t_c, are roots of
functions that are strictly decreasing and convex in the variable solved
for, so plain Newton iterations converge without a bracket: a step from
the right of the root lands at or left of it, and from the left the
iterates rise monotonically to it (Fourier's condition).  So any seed in
[0, f(0)] converges, and the gap's is the closed-form interpolation
f(0) tanh^2(A sqrt(t_c / t - 1)), whose slope into t_c is the
Ginzburg-Landau one of weak coupling (Gor'kov, Sov. Phys. JETP 9 (1959)
1364), centred on the BCS curve (Muehlschlegel, Z. Phys. 155 (1959) 313)
and capped at f(0), which it holds exactly below 0.2998 t_c.

Only the accepted iterate needs a certified residual (inexact Newton:
Dembo, Eisenstat and Steihaug, SIAM J. Numer. Anal. 19 (1982) 400).  So
the gap's Newton steps take the window quadrature's first round alone,
with no error estimate, and the certified window pass at the roots, which
also gives the derivatives, is the one certificate of each solve.  For
the same reason a node whose residuals already fall quadratically stops
once the rate measured from its last two residuals puts the next one far
below Newton's stop level: the step it takes is the root, and the
certified pass is the evaluation that confirms it (Kelley, Solving
Nonlinear Equations with Newton's Method, SIAM 2003, ch. 1).  A root
whose certified residual is above Newton's stop level is solved again
with certified steps and takes a certified pass of its own.  A caller's
own pairing-window rows at the roots, as thermo's at a cold temperature,
ride in that certified pass, so they cost no window pass of their own.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    NonPositiveParameter,
    NotSolved,
    OutsideDomain,
    ToleranceNotMet,
)
from .kernels import _COLDEST, _EDGE, _ORDER_KERNELS, _gated_pass, _window_partials
from .model import ModelParams, _as_finite_float, _require_positive
from .quad import integrate

__all__ = [
    "RESIDUAL_TOL",
    "GapCurve",
    "GapPoint",
    "gap_derivatives_at",
    "sample_gap_curve",
    "solve_gap_at",
    "solve_tc",
]

RESIDUAL_TOL = 1e-10  # |residual| above this marks a gap point as unsolved
_NEWTON_STEPS = 60  # cap on Newton steps in either root finder
_NEWTON_STOP = 1e-13  # |residual| at which a gap Newton iterate is a root
# Near a root the gap Newton's residuals fall as |F_next| = C |F|^2.  C,
# measured as |F| / |F_prev|^2 over the last steps of a solve, is 1.0-1.9
# at couplings up to 1 and grows like u0n0 above them (170 at u0n0 = 100,
# 2,300 at 1000).
# An uncertified step also stops when the measured rate puts the next
# residual, C |F|^2, _RATE_MARGIN below _NEWTON_STOP, and when |F| is at
# most _RATE_GATE.  The gate covers a rate measured from a pre-asymptotic
# |F_prev|, as after a first step from right of the root: at the gate
# C |F|^2 stays below _NEWTON_STOP while C <= 110 (1.7e-15 at C = 1.9), so
# such a rate cannot stop a node far from its root.  Above that the rate
# condition protects: with C measured near its true value it stops only at
# |F| <= sqrt(_RATE_MARGIN _NEWTON_STOP / C), 7.7e-10 at u0n0 = 100, and a
# rate measured too low costs a certified redo of the row, not accuracy.
# Over couplings 0.003-1000 no row reaches that redo; stronger ones are
# unmeasured.
_RATE_MARGIN = 1e-3
_RATE_GATE = 3e-8
_EULER_GAMMA = 0.57721566490153286061
_ZETA_3 = 1.2020569031595942854
# ln(4 e^gamma / pi): the integral of tanh(x)/x over [0, U] is ln U plus this as U -> infinity
_LOG_BCS_CONSTANT = math.log(4.0 / math.pi) + _EULER_GAMMA
# Newton's seed at t / t_c = tau is delta^2 min(1, _SEED_CENTRE tanh^2(sqrt(_GL_SLOPE (1/tau - 1)))).
# _GL_SLOPE is the weak-coupling slope -f'(t_c) = 8 pi^2 k_b^2 t_c / (7 zeta(3))
# (Gor'kov 1959) over delta^2 = (pi e^-gamma k_b t_c)^2, so the seed falls into
# t_c on the Ginzburg-Landau line; the tanh^2 undershoots the weak-coupling
# curve (Muehlschlegel 1959) by 0 to 3.9%, worst at 0.61 t_c, and
# _SEED_CENTRE centres it.  The cap holds the seed at exactly delta^2 below
# 0.2998 t_c, where the curve is flat to far below a step.
_GL_SLOPE = 8.0 * math.exp(2.0 * _EULER_GAMMA) / (7.0 * _ZETA_3)
_SEED_CENTRE = 1.02
_TC_RESIDUAL = 1e-12  # relative defect u0n0 * |d| allowed in the transition-temperature condition
# Columns of a gap-curve table, each with the GapPoint field it holds.
_CURVE_COLUMNS = {"T": "t", "f": "f", "f_prime": "f_prime", "f_second": "f_second", "residual": "residual"}


def _tanh_integral(lo: float, hi: float) -> float:
    """Integral of tanh(x)/x over [lo, hi], 0 <= lo < hi, the transition-temperature condition's.

    In x = xi / (2 k_b t_c) the kernels' thermal edge is c = _EDGE / 2, past
    which tanh(x)/x is 1/x to below the quadrature target; so [lo, c] is a
    quadrature mapped on x = 1, and the rest is ln(hi / c).
    """
    c = _EDGE / 2.0
    # the rule's nodes are interior to [lo, c], so x = 0 is never sampled, while
    # the panels' half-widths keep some bits: hi a normal float is enough, but
    # at hi = 5e-324 the half-width rounds to 0 and every node lands on lo
    inner = integrate(lambda x: np.tanh(x) / x, lo, min(hi, c), scale=1.0)[0] if lo < c else 0.0
    return inner + math.log(hi / max(lo, c)) if hi > c else inner


def solve_tc(
    u0n0: float,
    hbar_omega_d: float,
    k_b: float,
    eps: float = 0.0,
) -> float:
    """Temperature at which the pairing condition closes with zero gap.

    Solves for the scale-free U = hbar_omega_d / (2 k_b t_c), the integral
    of tanh(x)/x over [eps, U] equal to 1/u0n0, and returns
    hbar_omega_d / (2 k_b U).  In s = ln U the defect d is increasing and
    convex (slope tanh(U), curvature U sech^2(U)).  The seed puts the
    integral over [0, U] at its large-U limit ln U + ln(4 e^gamma / pi), a
    lower bound, so it lies at or right of the root, and Newton on s falls
    monotonically to it, stopping on the relative defect u0n0 * |d|.  The
    integral is _tanh_integral's, a quadrature up to its edge c and
    ln(U / c) past it, so at weak coupling its work does not grow with U.
    Raises OutsideDomain when 2U is not a float (u0n0 below about 1/709).
    """
    values = {"u0n0": u0n0, "hbar_omega_d": hbar_omega_d, "k_b": k_b, "eps": eps}
    u0n0, hbar_omega_d, k_b, eps = (_as_finite_float(name, v) for name, v in values.items())
    for name, v in (("u0n0", u0n0), ("hbar_omega_d", hbar_omega_d), ("k_b", k_b)):
        _require_positive(name, v)
    if eps < 0.0:
        raise NonPositiveParameter(f"eps must be >= 0, got {eps}")

    target = 1.0 / u0n0
    # below the smallest normal float the integral over [0, eps], about eps, cannot move the seed
    s = target - _LOG_BCS_CONSTANT + (_tanh_integral(0.0, eps) if eps >= sys.float_info.min else 0.0)
    if s > math.log(sys.float_info.max / 2.0):
        raise OutsideDomain(f"U = hbar_omega_d / (2 k_b t_c) = e^{s:.6g} at u0n0 = {u0n0}: 2U is not a float")
    for _ in range(_NEWTON_STEPS):
        d = _tanh_integral(eps, math.exp(s)) - target
        if u0n0 * abs(d) <= 0.25 * _TC_RESIDUAL:
            break
        s_next = s - d / math.tanh(math.exp(s))
        if s_next == s:
            break
        s = s_next
    if u0n0 * abs(d) > _TC_RESIDUAL:
        raise ToleranceNotMet(
            f"relative transition-temperature defect {u0n0 * d:.3e} above {_TC_RESIDUAL:g}"
        )
    return hbar_omega_d / (2.0 * k_b) / math.exp(s)


@dataclass(frozen=True)
class GapPoint:
    """One solved node of the squared-gap curve, with f' and f''."""

    t: float
    f: float
    residual: float
    f_prime: float
    f_second: float


@dataclass(frozen=True)
class GapCurve:
    """Ordered gap-curve samples plus the parameter snapshot they came from."""

    points: tuple[GapPoint, ...]
    params: ModelParams

    def to_csv(self) -> str:
        return _csv(self.points, _CURVE_COLUMNS)


def _rows(items, columns: dict) -> list[dict]:
    """Table rows: each item's fields in column order, keyed by column name."""
    return [{name: getattr(item, field) for name, field in columns.items()} for item in items]


def _csv(items, columns: dict) -> str:
    """A table as CSV: the column names, then each row's floats to 17 significant digits and strings as they are."""
    lines = [",".join(columns)]
    for row in _rows(items, columns):
        lines.append(",".join(v if isinstance(v, str) else f"{v:.17g}" for v in row.values()))
    return "\n".join(lines) + "\n"


def _newton(ts: np.ndarray, seeds: np.ndarray, params: ModelParams, certified: bool = False) -> np.ndarray:
    """Squared gap at each interior temperature in ts by batched Newton.

    Callers pass the core view, so 0 < t < t_c = 1.  There the residual is
    strictly decreasing in y and convex (its second y-derivative is
    -I_curv / (4 (2 k_b t)^5) > 0 because curvature_kernel < 0), so Newton
    steps y <- max(0, y - F / F_y) converge without a bracket from any seed
    in [0, y_max]: from right of the root the first step lands at or left
    of it, and from there the iterates rise monotonically.  A node stops
    when its step does not move y or its residual is at most _NEWTON_STOP,
    or, on uncertified steps, when its residual is at most _RATE_GATE and
    the rate measured from its last two residuals puts the next one
    _RATE_MARGIN below _NEWTON_STOP; it then takes that step and drops out
    of the batch.  An iterate at y = 0 with F(t, 0) <= 0 stops there, as
    the clamped step does not move it; the residual gate of _solved_columns
    decides whether that is a root (F(t, 0) within rounding of 0, as one
    ulp below t_c) or no root exists.  The steps skip window_pass's domain
    gate, as the iterates stay in [0, max(seed, root)].
    By default each step takes the window quadrature's first round alone,
    with no error estimate; _solved_columns certifies the roots with its
    gated pass, the one evaluation at a root the rate rule stopped at, and
    sends any row that pass does not accept back here with certified=True,
    where every step is a certified quadrature and stops on its own
    residual.  Returns the iterates.
    """
    y = np.array(seeds, dtype=float)
    last = np.zeros(ts.size)  # each node's previous |F|, 0 before its first step
    active = np.arange(ts.size)
    for _ in range(_NEWTON_STEPS):
        if active.size == 0:
            break
        t, y_now = ts[active], y[active]
        p = _window_partials(t, y_now, params, _ORDER_KERNELS[0], certified)
        y_next = np.maximum(0.0, y_now - p.value / p.d_y)
        size = np.abs(p.value)
        done = (y_next == y_now) | (size <= _NEWTON_STOP)
        if not certified:
            done |= (size <= _RATE_GATE) & (size**3 <= _RATE_MARGIN * _NEWTON_STOP * last[active] ** 2)
            last[active] = size
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


def _implicit_derivatives(p):
    """f', and f'' where p holds second partials, of the curve from the residual partials at solved points.

    f'' is divided by d_y once, not by d_y**3, so no intermediate leaves the
    range of the partials themselves at small energy scales.
    """
    f_prime = -p.d_t / p.d_y
    if p.d_tt is None:
        return (f_prime,)
    f_second = -(p.d_tt + (2.0 * p.d_ty + p.d_yy * f_prime) * f_prime) / p.d_y
    return f_prime, f_second


def _check_residual(t: float, residual: float) -> None:
    if not residual <= RESIDUAL_TOL:
        raise NotSolved(
            f"gap residual {residual:.3e} at t = {t!r} above {RESIDUAL_TOL:g}"
        )


def _require_solved(t: float, gap_point: GapPoint) -> None:
    """Raise NotSolved unless gap_point was solved at t to RESIDUAL_TOL."""
    if gap_point is None or gap_point.t != t:
        raise NotSolved(f"gap_point was solved at t = {getattr(gap_point, 't', None)!r}, not {t!r}")
    _check_residual(t, gap_point.residual)


def gap_derivatives_at(t: float, params: ModelParams, gap_point: GapPoint) -> tuple[float, float]:
    """First and second temperature derivatives of the squared-gap curve.

    Returns the f' and f'' that gap_point carries, once it is checked to be
    solved at t; params is not read.
    """
    _require_solved(t, gap_point)
    return gap_point.f_prime, gap_point.f_second


def _solved_columns(ts: np.ndarray, params: ModelParams, order: int, rows=None) -> tuple:
    """Physical columns t, f, residual, f' and, at order 2, f'' at temperatures 0 <= t <= t_c, and rows' integrals.

    Runs in core units, a temperature below _COLDEST t_c at _COLDEST t_c,
    so t = 0 too: f(t_c) = 0 and the colder roots come from one batched
    Newton iteration, on uncertified first rounds, seeded on the
    interpolation of _GL_SLOPE; one window pass of the given order, 1 or 2,
    at the roots then certifies every residual, the first evaluation at a
    root where Newton stopped on its measured rate, and gives the
    derivatives by the implicit-function quotients, t_c included.  rows,
    kernels._integrals's, rides in that pass: its integrals at each core
    root (t, f), shape (m, len(ts)), are the second item returned, with
    m = 0 without rows.  A root whose certified residual is above
    _NEWTON_STOP is solved again, from where it stands, by the certified
    Newton iteration, and those rows alone take a pass of their own.  The
    columns become physical here, times params.scales, with f held at or
    below f(0) = delta**2, which the rounded product could pass, and a zero
    derivative stored as +0.0.  Raises NotSolved, naming the worst row, if
    any residual is above RESIDUAL_TOL.
    """
    core = params.core
    taus = np.maximum(ts / params.t_c, _COLDEST)
    ys = np.zeros(ts.size)
    cold = taus < 1.0
    gl = np.tanh(np.sqrt(_GL_SLOPE * (1.0 / taus[cold] - 1.0)))
    ys[cold] = _newton(taus[cold], core.delta**2 * np.minimum(1.0, _SEED_CENTRE * gl * gl), core)
    p, integrals = _gated_pass(taus, ys, core, order, rows)
    redo = cold & (np.abs(p.value) > _NEWTON_STOP)
    if redo.any():
        ys[redo] = _newton(taus[redo], ys[redo], core, certified=True)
        again, integrals[:, redo] = _gated_pass(taus[redo], ys[redo], core, order, rows)
        for name in ("value", "d_t", "d_y", "d_tt", "d_ty", "d_yy"):
            column = getattr(p, name)  # an array the pass made
            if column is not None:
                column[redo] = getattr(again, name)
    residuals = np.abs(p.value)
    worst = int(np.argmax(residuals))  # the first NaN, if any
    _check_residual(float(ts[worst]), float(residuals[worst]))
    f = np.minimum(ys * params.scales[0], params.delta**2)
    derivatives = [d * unit + 0.0 for d, unit in zip(_implicit_derivatives(p), params.scales[1:])]
    return (ts, f, residuals, *derivatives), integrals


def _solved_points(ts: np.ndarray, params: ModelParams) -> list[GapPoint]:
    """Solved points at temperatures 0 <= t <= t_c, with f' and f'': the second-order _solved_columns."""
    columns, _ = _solved_columns(ts, params, 2)
    return [GapPoint(*row) for row in zip(*(c.tolist() for c in columns))]


def solve_gap_at(t: float, params: ModelParams) -> GapPoint:
    """Solved point at one temperature in [0, t_c], with f' and f''.

    One row of the solved-point path; at t = 0, f is the zero-temperature
    squared gap and both derivatives vanish.
    """
    return _solved_points(np.array([_checked_temperature(t, params)]), params)[0]


def sample_gap_curve(params: ModelParams, n_points: int, grid: str = "uniform") -> GapCurve:
    """Solve the squared-gap curve on [0, t_c] with derivatives at each node.

    Every node is a row of one solved-point batch: one batched Newton
    iteration for the nodes below t_c, each seeded on the interpolation of
    _GL_SLOPE, then one
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
    return GapCurve(points=tuple(_solved_points(ts, params)), params=params)

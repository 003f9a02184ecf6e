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
[0, f(0)] converges.  The gap's starts from the closed-form interpolation
f(0) tanh^2(A sqrt(t_c / t - 1)), whose slope into t_c is the
Ginzburg-Landau one of weak coupling (Gor'kov, Sov. Phys. JETP 9 (1959)
1364), times a fitted polynomial that puts it on the weak-coupling BCS
curve (Muehlschlegel, Z. Phys. 155 (1959) 313) with its finite-window
terms in 1 / U^2 and its linear response to the cutoff: within 1e-5 of
f(t) / f(0) at couplings up to 0.33, so Newton starts a step or two from
the root.  It is clipped to [0, f(0)], and is f(0) below 0.2998 t_c.

Only the accepted iterate needs a certified residual (inexact Newton:
Dembo, Eisenstat and Steihaug, SIAM J. Numer. Anal. 19 (1982) 400).  So
the gap's Newton steps take the window quadrature's first round alone,
with no error estimate, and the certified window pass at the roots, which
also gives the derivatives, is the one certificate of each solve.  For
the same reason an uncertified step stops a node once the bound on
Newton's quadratic rate puts the next residual far below Newton's stop
level: the step it takes is the root, and the certified pass is the
evaluation that confirms it (Kelley, Solving Nonlinear Equations with
Newton's Method, SIAM 2003, ch. 1).  A node whose uncertified steps do
not stop is handed to the certified pass as it stands.  A root whose
certified residual is above Newton's stop level steps on from that pass's
own value and slope, all a Newton step needs, and the batch takes its
certified pass again in full; a root that has not stopped after
_NEWTON_STEPS such passes is the one ToleranceNotMet.  So there is one
Newton step, on uncertified rounds before the roots and on certified
passes at them.  Every pass, the Newton steps' and the certified ones, is
kernels._ungated_pass; the certified pass runs once
kernels._gate_closure admits the roots.  A caller's own
pairing-window rows at the roots, as thermo's at a cold temperature,
ride in that certified pass, so they cost no window pass of their own.
"""

from __future__ import annotations

import functools
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
from .kernels import _COLDEST, _EDGE, _ORDER_KERNELS, _gate_closure, _ungated_pass
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
_NEWTON_STEPS = 60  # cap on Newton steps in either root finder, and on the gap's certified passes
_NEWTON_STOP = 1e-13  # |residual| at which a gap Newton iterate is a root
# Near a root the gap Newton's residuals fall as |F_next| = C |F|^2.  C,
# measured as |F| / |F_prev|^2 over the steps of a solve, is 1.0-1.97 at
# couplings up to 1 and grows like u0n0 above them (150-170 at u0n0 = 100,
# 1,500-2,300 at 1000), over cutoffs 0-12; so C <= _RATE_BOUND max(1, u0n0).
# An uncertified step stops where that bound puts the next residual,
# C |F|^2, _RATE_MARGIN below _NEWTON_STOP: at
# |F| <= sqrt(_RATE_MARGIN _NEWTON_STOP / (_RATE_BOUND max(1, u0n0))),
# 6.6e-9 at couplings up to 1.  Over couplings 0.003-1000 no row reaches
# the certified redo; stronger ones are unmeasured.
_RATE_MARGIN = 1e-3
_RATE_BOUND = 2.3
_EULER_GAMMA = 0.57721566490153286061
_ZETA_3 = 1.2020569031595942854
# ln(4 e^gamma / pi): the integral of tanh(x)/x over [0, U] is ln U plus this as U -> infinity
_LOG_BCS_CONSTANT = math.log(4.0 / math.pi) + _EULER_GAMMA
# Newton's seed at t / t_c = tau is delta^2 clip(gl(tau) P(x), 0, 1), with
# gl(tau) = tanh^2(sqrt(_GL_SLOPE (1/tau - 1))) and x = (tau - 0.65) / 0.35.
# _GL_SLOPE is the weak-coupling slope -f'(t_c) = 8 pi^2 k_b^2 t_c / (7 zeta(3))
# (Gor'kov 1959) over delta^2 = (pi e^-gamma k_b t_c)^2, so gl falls into t_c
# on the Ginzburg-Landau line.  P = S + G1 / U^2 + G2 / U^4 + H eps, with
# U = hbar_omega_d / (2 k_b t_c), puts the seed on the weak-coupling curve
# (Muehlschlegel 1959), S, plus its finite-window terms and its linear
# response to the cutoff; the columns of _SEED_TABLE are the coefficients of
# S, G1, G2 and H in powers of x, fitted from the solver by
# scripts/fit_seed.py.  Below U = 3 the window terms are dropped, so a strong
# coupling's seed stays on the universal curve.  Below 0.2998 t_c the seed
# is delta^2 itself, as the interpolation's cap made it; f / f(0) is
# 1 - 5.7e-3 at 0.2997 t_c at defaults, and such nodes take up to 3 first
# rounds.
_GL_SLOPE = 8.0 * math.exp(2.0 * _EULER_GAMMA) / (7.0 * _ZETA_3)
_SEED_FLAT = 0.2998
_SEED_TABLE = np.array([
    [1.0401025930064567, 0.08188532665278873, -0.002616263758516512, 0.024515693651162018],  # x^0
    [-0.007957811879970326, 0.10871253874130629, 0.005828461840970778, 0.028479823581144276],  # x^1
    [-0.03686822758540643, 0.01833497331164871, -0.0028255876741647423, -0.0008202348829309134],  # x^2
    [0.003407539201287672, -0.010713601066670244, -0.020244770189352897, -0.004059154894217695],  # x^3
    [0.0027222148951392394, 0.0029620118994203135, -0.010617853339172154, 0.0020353033212291986],  # x^4
    [-0.0021791496519666183, -0.0005067977753448686, 0.0012904384989187996, -0.0005671766607273679],  # x^5
    [0.0010987297313631824, -0.00015230438002770155, 0.0014026296247461525, -1.8257469503981982e-05],  # x^6
    [-0.00039932262722804454, 0.00018248575711475218, -0.00011596171548260246, 0.00011854292088873128],  # x^7
    [7.772234851360875e-05, -7.429740184047991e-05, -0.0002498418279681869, -6.051195537321191e-05],  # x^8
    [-3.4129395721781425e-05, 0.0001179766866150745, 0.00011366296588764496, 9.34746800197607e-05],  # x^9
    [7.770070554319e-06, -0.0001465339338200447, -8.870284745269714e-06, -0.00010078385988026038],  # x^10
    [6.563508814551602e-05, 1.414356957679756e-05, -4.033285013398313e-05, -4.098191324056167e-06],  # x^11
    [-4.3707323116236546e-05, 3.3274129102464024e-05, 2.4699133541585937e-05, 3.0498854081852234e-05],  # x^12
])
_SEED_POWERS = np.arange(_SEED_TABLE.shape[0])
_TC_RESIDUAL = 1e-12  # relative defect u0n0 * |d| allowed in the transition-temperature condition
# Columns of a gap-curve table, each with the GapPoint field it holds.
_CURVE_COLUMNS = {"T": "t", "f": "f", "f_prime": "f_prime", "f_second": "f_second", "residual": "residual"}


@functools.lru_cache(maxsize=64)
def _tanh_integral(lo: float, hi: float) -> float:
    """Integral of tanh(x)/x over [lo, hi], 0 <= lo < hi, the transition-temperature condition's.

    In x = xi / (2 k_b t_c) the kernels' thermal edge is c = _EDGE / 2, past
    which tanh(x)/x is 1/x to below the quadrature target; so [lo, c] is a
    quadrature mapped on x = 1, and the rest is ln(hi / c).  The value is
    cached by its limits, and past c it takes [lo, c] from that cache, so
    the quadrature over [lo, min(hi, c)] is made once while it stays among
    the last 64: every hi past c at one cutoff lo shares it.
    """
    c = _EDGE / 2.0
    if hi > c:
        return (_tanh_integral(lo, c) if lo < c else 0.0) + math.log(hi / max(lo, c))
    # the rule's nodes are interior to [lo, hi], so x = 0 is never sampled, while
    # the panels' half-widths keep some bits: hi a normal float is enough, but
    # at hi = 5e-324 the half-width rounds to 0 and every node lands on lo
    return integrate(lambda x: np.tanh(x) / x, lo, hi, scale=1.0)[0]


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
    ln(U / c) past it, so at weak coupling its work does not grow with U;
    and as that quadrature is made once per pair of limits while it stays
    cached, every step at every coupling with U > c at one cutoff, u0n0
    below about 0.23 at eps = 0, shares one quadrature.
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


def _seed_fraction(taus: np.ndarray, core: ModelParams, table: np.ndarray) -> np.ndarray:
    """Newton's seed over f(0) at core temperatures 0 < tau < 1, on the columns of table, as _SEED_TABLE's.

    One power matrix of x times the table's columns weighted by 1, 1/U^2,
    1/U^4 and eps, each row summed on its own, so a node's seed does not
    depend on its batch, as a matrix product's summation order can.
    """
    u = core.hbar_omega_d / 2.0
    window = 1.0 / (u * u) if u >= 3.0 else 0.0
    gl = np.tanh(np.sqrt(_GL_SLOPE * (1.0 / taus - 1.0)))
    x = (taus - 0.65) / 0.35
    terms = (x[:, None] ** _SEED_POWERS) * (table @ [1.0, window, window * window, core.eps])
    fraction = gl * gl * np.add.reduce(terms, axis=1)
    return np.where(taus < _SEED_FLAT, 1.0, np.minimum(np.maximum(fraction, 0.0), 1.0))


def _newton(ts: np.ndarray, seeds: np.ndarray, params: ModelParams) -> np.ndarray:
    """Squared gap at each interior temperature in ts by batched Newton on uncertified steps.

    Callers pass the core view, so 0 < t < t_c = 1.  There the residual is
    strictly decreasing in y and convex (its second y-derivative is
    -I_curv / (4 (2 k_b t)^5) > 0 because curvature_kernel < 0), so Newton
    steps y <- max(0, y - F / F_y) converge without a bracket from any seed
    in [0, y_max]: from right of the root the first step lands at or left
    of it, and from there the iterates rise monotonically.  Each step takes
    the window quadrature's first round alone, with no error estimate, and
    no domain gate, as the iterates stay in [0, max(seed, root)].  A node
    stops when its step does not move y or its residual is at most the
    level where the rate's bound _RATE_BOUND max(1, u0n0) puts the next
    residual _RATE_MARGIN below _NEWTON_STOP; it then takes that step and
    drops out of the batch.  An iterate at y = 0 with F(t, 0) <= 0 stops
    there, as the clamped step does not move it; the residual gate of
    _solved_columns decides whether that is a root (F(t, 0) within rounding
    of 0, as one ulp below t_c) or no root exists.  Returns the iterates,
    those of nodes that have not stopped after _NEWTON_STEPS steps too:
    _solved_columns certifies them all with its pass, the one evaluation at
    a root where the bound stopped a node, and steps on from any it does
    not accept.
    """
    y = np.array(seeds, dtype=float)
    active = np.arange(ts.size)
    bound = math.sqrt(_RATE_MARGIN * _NEWTON_STOP / (_RATE_BOUND * max(1.0, params.u0n0)))
    stop = max(_NEWTON_STOP, bound)
    for _ in range(_NEWTON_STEPS):
        if active.size == 0:
            break
        t, y_now = ts[active], y[active]
        p, _ = _ungated_pass(t, y_now, params, _ORDER_KERNELS[0], certified=False)
        y_next = np.maximum(0.0, y_now - p.value / p.d_y)
        done = (y_next == y_now) | (np.abs(p.value) <= stop)
        y[active] = y_next
        active = active[~done]
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
    Newton iteration, on uncertified first rounds, seeded by
    _seed_fraction on the weak-coupling curve of _SEED_TABLE, f(0) below
    _SEED_FLAT t_c; one certified window pass of the given order, 1 or
    2, at the roots, once kernels._gate_closure admits them, then
    certifies every residual, the first evaluation at a root where Newton
    stopped on the rate's bound, and gives the derivatives by the
    implicit-function quotients, t_c included.  rows, kernels._ungated_pass's,
    rides in that pass: its integrals at each core root (t, f), shape
    (m, len(ts)), are the second item returned, with m = 0 without rows.
    A root whose certified residual is above _NEWTON_STOP, such as a node
    whose uncertified steps never stopped, takes a Newton step from that
    pass's own value and d_y, and the batch then takes its certified pass
    again in full, until every such residual is at most _NEWTON_STOP or
    its step does not move y; after _NEWTON_STEPS passes a root still
    above it raises ToleranceNotMet, naming its t.  The columns become
    physical here, times params.scales, with f held at or below
    f(0) = delta**2, which the rounded product could pass, and a zero
    derivative stored as +0.0.
    Raises NotSolved, naming the worst row, if any residual is above
    RESIDUAL_TOL.
    """
    core = params.core
    taus = np.maximum(ts / params.t_c, _COLDEST)
    ys = np.zeros(ts.size)
    cold = taus < 1.0
    if cold.any():  # a batch of t_c alone, where f = 0, has nothing to solve
        seeds = core.delta**2 * _seed_fraction(taus[cold], core, _SEED_TABLE)
        ys[cold] = _newton(taus[cold], seeds, core)
    _gate_closure(taus, ys, core)
    kinds = _ORDER_KERNELS[order]
    p, integrals = _ungated_pass(taus, ys, core, kinds, rows=rows)
    redo = cold & (np.abs(p.value) > _NEWTON_STOP)
    for _ in range(_NEWTON_STEPS):
        if redo.any():
            y_next = np.maximum(0.0, ys - p.value / p.d_y)
            redo &= y_next != ys  # a row whose step does not move y stops
        if not redo.any():
            break
        ys[redo] = y_next[redo]
        p, integrals = _ungated_pass(taus, ys, core, kinds, rows=rows)
        redo &= np.abs(p.value) > _NEWTON_STOP
    if redo.any():
        raise ToleranceNotMet(f"gap solve at t = {float(ts[np.argmax(redo)])!r} did not converge")
    residuals = np.abs(p.value)
    worst = int(np.argmax(residuals))  # the first NaN, if any
    _check_residual(float(ts[worst]), float(residuals[worst]))
    f = np.minimum(ys * params.scales[0], params.delta**2)
    derivatives = [d * unit + 0.0 for d, unit in zip(_implicit_derivatives(p), params.scales[1:])]
    return (ts, f, residuals, *derivatives), integrals[len(kinds):]


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
    iteration for the nodes below t_c, each seeded on the fitted
    weak-coupling curve, then one second-order window pass, t_c included,
    for every residual, f' and f''.  At defaults a 201-node curve takes 9
    uncertified first rounds and 15 certified quadrature calls, and each
    node is its lone solve_gap_at to the bit.
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

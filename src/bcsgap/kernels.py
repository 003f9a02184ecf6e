"""Special-function kernels and the gap residual with its partial derivatives.

The residual F(t, y) is the pairing-window integral of
tanh(sqrt(xi^2 + y) / (2 k_b t)) / sqrt(xi^2 + y) minus the inverse coupling;
the squared-gap curve is its zero set.  Two even kernels control the
y-derivatives: slope_kernel for the first, curvature_kernel for the second.
Their defining expressions lose ~2*log10(1/eta) digits to cancellation as
eta -> 0, so below _SERIES_CUT both are evaluated from Taylor tables that
_series_tables computes at import from an exact integer recurrence.  At
the cut the branches agree to ~1e-16 relative, well inside the 1e-14
continuity budget.

The residual and all its partials up to second order are pairing-window
integrals of six kernels that share eta = sqrt(xi^2 + y) / (2 k_b t).
Each is an algebraic asymptote in E = sqrt(xi^2 + y), or 0, plus a thermal
part that decays like e^{-E / k_b t}: the kernels are integrated over
[xi_min, X] only, X one thermal edge (_edge), and their asymptotes over the
rest of the window in closed form (_tails), which at t = 0 cover all of
it.  Every pairing-window quadrature, thermo's included, is an
_ungated_pass call, the one pass function: it evaluates the kernels it is
asked for at arrays of (t, y) pairs, as stacked integrands, integrating
every row up to the thermal edge, with each pair's nodes mapped on its own
reach, rounded down to the ladder pi k_b t_c 2^k: sqrt(y + (pi k_b t)^2),
the distance from the real axis of the nearest poles of a row even in E,
as the six kernels are, the narrower width of a cold row of the thermal
kernels (_GAUSSIAN_MAP), or thermo's rows' nearer branch points.  Pairs
on one rung share their quadrature calls, so a pair's integrals do not
depend on the batch it comes in wherever no call refines.  The pass forms
the residual's fields from the kernels' integrals, with no gate.  The
scalar functions gate once, in _at, call it on the core view of the
parameters and return physical values; the gap's Newton steps take its
quadrature's first round alone, uncertified, and the gap's certified pass
at their roots carries a caller's own rows at the roots, thermo's window
rows at a cold temperature, on the same nodes.
Thermo's other window rows, at f = 0 and of the condensation part, are
passes with no kernel rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteInput, OutsideDomain, ZeroGapAtZeroT
from .model import _TINY, ModelParams
from .quad import _NODES, _first_round, _start_panels, integrate, truncation_point

__all__ = [
    "ResidualPartials",
    "WINDOW_KERNELS",
    "curvature_kernel",
    "fermi",
    "fermi_weight",
    "gap_residual",
    "gap_residual_partials",
    "gap_residual_second_partials",
    "sech2",
    "slope_kernel",
]

_SERIES_CUT = 0.5

_SERIES_TERMS = 19  # even orders eta^0 .. eta^36 of each table


def _series_tables(terms: int) -> tuple:
    """Taylor coefficients of the slope and curvature kernels at eta^0, eta^2, ..., each correctly rounded.

    Both are fixed multiples of tanh's: with tanh(x) the sum of
    d_k x^(2k+1) / (2k+1)!, tanh' = 1 - tanh^2 gives the integers
    d_0 = 1, d_k = -sum_i C(2k, 2i+1) d_i d_(k-1-i) (Knuth and Buckholtz,
    Math. Comp. 21 (1967) 663).  The slope kernel (tanh' - tanh(x) / x) / x^2
    then has 2(j+1) d_(j+1) / (2j+3)! at x^(2j), and the curvature kernel,
    by slope' = -x curvature, -4(j+1)(j+2) d_(j+2) / (2j+5)!; each is one
    division of exact integers.
    """
    d = [1]
    for k in range(1, terms + 2):
        d.append(-sum(math.comb(2 * k, 2 * i + 1) * d[i] * d[k - 1 - i] for i in range(k)))
    slope = tuple(2 * (j + 1) * d[j + 1] / math.factorial(2 * j + 3) for j in range(terms))
    curv = tuple(-4 * (j + 1) * (j + 2) * d[j + 2] / math.factorial(2 * j + 5) for j in range(terms))
    return slope, curv


_SLOPE_SERIES, _CURV_SERIES = _series_tables(_SERIES_TERMS)
# both tables as columns, one row per order, for a Horner loop over a stack of both kernels
_SERIES = np.array((_SLOPE_SERIES, _CURV_SERIES)).T


def sech2(x):
    """Overflow-safe sech^2, vectorized; symmetric in x."""
    u = np.exp(-np.abs(x))
    r = 2.0 * u / (1.0 + u * u)
    return r * r


def fermi(x):
    """Occupation factor 1 / (1 + e^x) without overflow for any sign of x."""
    x = np.asarray(x, dtype=float)
    u = np.exp(-np.abs(x))
    return np.where(x >= 0.0, u / (1.0 + u), 1.0 / (1.0 + u))


def fermi_weight(x):
    """Thermal weight e^x / (1 + e^x)^2 = -d fermi/dx; symmetric, overflow-safe."""
    u = np.exp(-np.abs(x))
    return u / (1.0 + u) ** 2


def _poly_even(x, coeffs):
    z = x * x
    acc = np.full_like(x, coeffs[-1])
    for c in coeffs[-2::-1]:
        acc *= z
        acc += c
    return acc


def _validated_eta(eta):
    x = np.asarray(eta, dtype=float)
    if not np.all(np.isfinite(x)):
        raise NonFiniteInput("kernel argument must be finite")
    if np.any(x < 0.0):
        raise ValueError("kernel argument must be >= 0")
    return x


def _by_branch(x, th, s2, slope, curv=None):
    """Slope kernel into slope and, if curv is given, curvature kernel into curv; x a float array.

    Each direct formula is formed on every node under one np.errstate: below
    the cut it may divide 0 by 0, and past x ~ 1e154 x * x overflows to inf
    and the kernel goes to its limit -0.  The Taylor series then overwrite
    the nodes below _SERIES_CUT: their eta^2 are gathered into one flat
    stack, repeated once per kernel, and both kernels' series run in one
    Horner loop over it, each element through the operations of
    _poly_even, so a batched node has the bits of its scalar call; the
    results are scattered back into slope and curv, whose shapes stay.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        xx = x * x
        np.divide(th, x, out=slope)
        np.subtract(s2, slope, out=slope)
        slope /= xx
        if curv is not None:
            part = 2.0 * th
            part *= s2
            part /= x
            np.multiply(3.0, slope, out=curv)
            curv += part
            curv /= xx
    small = np.flatnonzero(x < _SERIES_CUT)
    if small.size:
        rows = 1 if curv is None else 2
        z = np.take(x, small)
        z *= z
        z = np.concatenate((z,) * rows)
        # each order's coefficients, once per node of each kernel
        tables = np.repeat(_SERIES[:, :rows], small.size, axis=1)
        acc = tables[-1]
        for c in tables[-2::-1]:
            acc *= z
            acc += c
        np.put(slope, small, acc[:small.size])
        if curv is not None:
            np.put(curv, small, acc[small.size:])
    return slope if curv is None else curv


def _kernel_arg(eta):
    x = _validated_eta(eta)
    return x.ndim == 0, np.atleast_1d(x).astype(float)


def slope_kernel(eta):
    """Kernel weighting the first squared-gap derivative of the residual.

    (sech^2(eta) - tanh(eta)/eta) / eta^2 for eta > 0, continued by -2/3
    at 0.  Strictly negative everywhere; decays like -tanh(eta)/eta^3, so
    it is still ~-8e-6 at eta = 50 (algebraic, not exponential, decay).
    """
    scalar, x = _kernel_arg(eta)
    out = _by_branch(x, np.tanh(x), sech2(x), np.empty_like(x))
    return float(out[0]) if scalar else out


def curvature_kernel(eta):
    """Kernel weighting the second squared-gap derivative of the residual.

    (3 * slope_kernel(eta) + 2 tanh(eta) sech^2(eta) / eta) / eta^2 for
    eta > 0, continued by -16/15 at 0.  Satisfies
    slope_kernel'(eta) = -eta * curvature_kernel(eta).
    """
    scalar, x = _kernel_arg(eta)
    out = _by_branch(x, np.tanh(x), sech2(x), np.empty_like(x), np.empty_like(x))
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class ResidualPartials:
    """Residual value and partial derivatives at one (t, y) point.

    d_t, d_y are with respect to temperature and squared gap; fields beyond
    the evaluated order stay None.  _ungated_pass fills the evaluated
    fields with arrays, one entry per (t, y) pair.
    """

    t: float
    y: float
    value: float | None = None
    d_t: float | None = None
    d_y: float | None = None
    d_tt: float | None = None
    d_ty: float | None = None
    d_yy: float | None = None


def _pairs(ts, ys):
    """(t, y) input as two equal-length flat float arrays."""
    return np.broadcast_arrays(np.asarray(ts, dtype=float).ravel(), np.asarray(ys, dtype=float).ravel())


def _gate_closure(ts, ys, params: ModelParams) -> None:
    """Admit the closed box [0, t_c] x [0, y_max], except the (0, 0) corner, at flat float arrays of pairs."""
    finite = np.isfinite(ts) & np.isfinite(ys)
    if not finite.all():
        i = int(np.argmax(~finite))
        raise NonFiniteInput(f"(t, y) must be finite, got ({float(ts[i])!r}, {float(ys[i])!r})")
    if ((ts == 0.0) & (ys == 0.0)).any():
        raise ZeroGapAtZeroT(
            "the residual has no zero-temperature value at zero squared gap"
        )
    outside = (ts < 0.0) | (ts > params.t_c) | (ys < 0.0) | (ys > params.y_max)
    if outside.any():
        i = int(np.argmax(outside))
        raise OutsideDomain(
            f"(t, y) = ({float(ts[i])!r}, {float(ys[i])!r}) outside "
            f"[0, {params.t_c!r}] x [0, {params.y_max!r}]"
        )


# The pairing-window kernels, all functions of eta = sqrt(xi^2 + y) / (2 k_b t):
# the residual integrand tanh(eta) / sqrt(xi^2 + y), sech^2(eta), the slope
# kernel, eta tanh(eta) sech^2(eta), tanh(eta) sech^2(eta) / eta, and the
# curvature kernel.
WINDOW_KERNELS = ("value", "sech", "slope", "eta_tanh", "mixed", "curv")
_ORDER_KERNELS = (("value", "slope"), ("value", "sech", "slope"), WINDOW_KERNELS)
# Coldest temperature, in units of t_c, at which a residual is evaluated: there
# (2t)^5, the highest power of t it divides by, is still a normal float, and
# every thermal factor e^{-Delta/t} has long underflowed, so the model is at
# zero temperature.  A colder t is evaluated here, where that is exact.
_COLDEST = _TINY ** 0.2
# Thermal edge, in units of k_b t_c: a factor e^{-x} times a slowly growing
# one is below the quadrature target past x = _EDGE, so past _EDGE k_b t_c
# every kernel's thermal part is, at every t <= t_c.  The cutoff margin of
# build_params keeps xi_min below about 25 k_b t_c, well inside it.
_EDGE = float(truncation_point(0.0, 1.0))
# Stacked rows per quadrature call.  Each row holds one kernel, or one of a
# caller's rows, at one (t, y) pair on every node, so the caps keep peak
# memory independent of how many pairs a pass is given: a call takes
# _BLOCK_ROWS rows, or as many as fill _BLOCK_NODES row-nodes on its
# starting panels where that is more.  12,288 row-nodes are 96 KiB per
# float array, under glibc's default 128 KiB mmap threshold, so a call's
# temporaries come from the heap instead of fresh pages.  Measured on
# verify's 2,500-pair partials grid (numpy 2.4.6, glibc, a 2-core x86-64
# VM): a pass took no minor page faults at this cap and 4,062 at twice it,
# and about a third more time at twice or at half of it.
_BLOCK_ROWS = 48
_BLOCK_NODES = 12_288
# The purely thermal kernels, and their rows' map scale in units of the width
# of a cold row.  Each row is e^{-E/k_b t} times a slowly varying factor; at a
# cold row E = sqrt(xi^2 + y) is about E_min + (xi^2 - xi_min^2) / 2 E_min, so
# the row is e^{-E_min/k_b t} times a Gaussian about xi = 0 of variance
# k_b t E_min, far narrower than the distance sqrt(y + (pi k_b t)^2) of its
# poles, about Delta.  On a map of scale s that Gaussian, near v = 0, has
# standard deviation sqrt(k_b t E_min) / s in v; at
# s = _GAUSSIAN_MAP sqrt(k_b t E_min + (pi k_b t)^2) that is at most
# 1 / _GAUSSIAN_MAP = quad's _MAPPED_WIDTH, one starting panel, and the first
# round meets the target (at 2.5 some cold blocks refine again, and at 1.5
# they take more nodes).  The (pi k_b t)^2 term keeps s at least twice the
# poles' thermal part, so warm rows, where e^{-E/k_b t} is no Gaussian, keep
# the poles' distance.
_THERMAL_KINDS = frozenset(("sech", "eta_tanh", "mixed"))
_GAUSSIAN_MAP = 2.0
# -ln of the smallest normal float: past E_min = _UNDERFLOW k_b t the thermal
# parts underflow, the rows are their algebraic asymptotes, and the poles'
# distance stays the map's scale
_UNDERFLOW = -math.log(_TINY)


def _kernel_rows(xi, beta, y, kinds):
    """Stack of the named kernels, shape (len(kinds), len(beta), len(xi)), each written into its row.

    The slope and curvature kernels are formed together, the slope into a
    scratch array where only "curv" is asked for; no kinds make an empty
    stack at no cost.
    """
    out = np.empty((len(kinds), len(beta), len(xi)))
    if not kinds:
        return out
    s = np.sqrt(xi * xi + y[:, None])
    eta = beta[:, None] * s
    th = np.tanh(eta)
    s2 = sech2(eta)
    slope = curv = None
    for row, kind in zip(out, kinds):
        if kind == "value":
            np.divide(th, s, out=row)
        elif kind == "sech":
            row[...] = s2
        elif kind == "slope":
            slope = row
        elif kind == "eta_tanh":
            np.multiply(eta, th, out=row)
            row *= s2
        elif kind == "mixed":
            np.divide(th, eta, out=row)
            row *= s2
        else:
            curv = row
    if slope is not None or curv is not None:
        _by_branch(eta, th, s2, np.empty_like(eta) if slope is None else slope, curv)
    return out


def _edge(params: ModelParams, t) -> float:
    """Upper end X of a window quadrature at temperatures up to t: _EDGE k_b max(t_c, t), or the window edge if nearer.

    It is the same at every t <= t_c, so rows at nearby temperatures share
    their nodes and their rounding.
    """
    return min(params.hbar_omega_d, _EDGE * params.k_b * max(params.t_c, t))


def _tails(ys, params: ModelParams, lower, fifth=False) -> tuple:
    """Integrals over [lower, L] of 1/E, 1/E^3 and, if fifth, 1/E^5, E = sqrt(xi^2 + y).

    They are the asymptotes of the value, slope and curv kernels without
    their powers of 2 k_b t.  Each is formed ratio-first, in the differences
    of xi / E between the ends, so nothing cancels as y -> 0 and no
    intermediate leaves float range with L near 1e154.  lower = 0 needs
    y > 0.
    """
    # with u = xi / E, du = y dxi / E^3: the integral of 1/E^3 is [u] / y and
    # that of 1/E^5 is [u - u^3 / 3] / y^2, and both quotients by y are
    # expanded below so that y cancels
    big, c = params.hbar_omega_d, lower
    root = np.sqrt(ys)
    e_big, e_c = np.hypot(big, root), np.hypot(c, root)
    inv1 = np.log((big + e_big) / (c + e_c))
    inv3 = ((big - c) / e_big) * ((big + c) / (e_c * (big * e_c + c * e_big)))
    if not fifth:
        return inv1, inv3
    near = (1.0 + (c / e_big) ** 2) / (e_c * (e_c + c * (big / e_big)))
    return inv1, inv3, inv3 * ((1.0 / e_big) ** 2 + (1.0 / e_c) ** 2 + near) / 3.0


def _rung(reach: float, base: float) -> float:
    """The ladder's rung at or below reach: base 2^k, k = floor(log2(reach / base)), exactly."""
    # reach / base may round up to the next power of 2, and then the rung is halved
    scale = math.ldexp(base, math.frexp(reach / base)[1] - 1)
    return scale / 2.0 if scale > reach else scale


def _ungated_pass(ts, ys, params: ModelParams, kinds, certified: bool = True, rows=None) -> tuple:
    """The fields the named kernels give at flat float arrays of (t, y) pairs, and every row's integrals.

    No gate, for pairs a caller made inside the domain, as the Newton
    iteration does its iterates, or gated, as _at and the gap's pass at the
    roots gate theirs: t must be at least _COLDEST t_c where kinds are given, and above
    0 for rows alone.  kinds is a subsequence of WINDOW_KERNELS, possibly
    empty; each is integrated over [xi_min, _edge(params, t)], and
    _partials adds its asymptote past the edge.  Every kernel at every pair
    is one row of a stacked integrand, each row integrated to its own
    tolerance, or, if not certified, by the quadrature's first round alone,
    with no error estimate: the same value wherever that round meets the
    target.  rows, if given, maps the nodes xi, a call's squared gaps y as a
    column and their k_b t as a column to m more rows per pair, shape
    (m * pairs, nodes), each decaying like e^{-sqrt(xi^2 + y) / k_b t}.  The
    second item, shape (len(kinds) + m, pairs), is the kernels' integrals,
    then the caller's.

    Each pair's nodes are mapped on its own reach rounded down to the
    ladder pi k_b t_c 2^k, k an integer (_rung).  The reach is
    sqrt(y + (pi k_b t)^2), the distance from the real axis of the nearest
    poles of a row even in E = sqrt(xi^2 + y), as the kernels are, so no
    such row starts out unresolved, at y = 0 and t far below t_c too.
    Where kinds include a purely thermal kernel, "sech", "eta_tanh" or
    "mixed", a pair whose e^{-E_min/k_b t}, E_min = sqrt(xi_min^2 + y), is
    a normal float takes the smaller of that and
    _GAUSSIAN_MAP sqrt(k_b t E_min + (pi k_b t)^2), the scale of the
    Gaussian about xi = 0 that its thermal rows are when cold, so a cold
    pair meets its target on its first round too.  The Newton steps' kinds
    and the pairs at _COLDEST t_c, whose thermal parts underflow, keep the
    poles' distance.  A caller's rows need not be even in E, as thermo's
    ln(1 + e^{-E/k_b t}) and E fermi(E/k_b t) are not, and branch at
    xi = +-i sqrt(y), sqrt(xi_min^2 + y) from the window; so with rows a
    pair with y > 0 also takes that distance.  A scale at or below the
    reach keeps the nearest singularity at least pi/2 from the real axis of
    v = asinh(xi / scale).  Pairs on one rung with one edge share their
    nodes, stacked into calls of at most _BLOCK_ROWS rows, or _BLOCK_NODES
    row-nodes of the rung's starting panels where that is more, so a
    pair's integrals depend on that pair alone wherever its call meets its
    target on the first round; a call that refines splits the panels of
    all its rows.  A lone pair takes its rung on floats, with no grouping.
    """
    betas = 1.0 / (2.0 * params.k_b * ts)
    poles2 = (np.pi * params.k_b * ts) ** 2
    reach2 = ys + poles2
    if not _THERMAL_KINDS.isdisjoint(kinds):
        # a pair narrows only where y > (_GAUSSIAN_MAP^2 - 1)(pi k_b t)^2, so
        # a pass with no such pair, warm or at y = 0, pays one comparison
        # (count_nonzero: the cheapest test of a small boolean array)
        near = ys > (_GAUSSIAN_MAP**2 - 1.0) * poles2
        if np.count_nonzero(near):
            kt, e_min = params.k_b * ts, np.sqrt(params.xi_min**2 + ys)
            width2 = _GAUSSIAN_MAP**2 * (kt * e_min + poles2)
            near &= e_min < _UNDERFLOW * kt
            np.minimum(reach2, width2, out=reach2, where=near)
    base = np.pi * params.k_b * params.t_c

    def window(pairs, scale, edge):
        """The integrals of the pairs at pairs, on one rung and edge, shape (rows, pairs)."""
        t, beta, y = ts[pairs], betas[pairs], ys[pairs]

        def integrand(xi):
            stack = _kernel_rows(xi, beta, y, kinds).reshape(-1, xi.size)
            if rows is None:
                return stack
            return np.vstack((stack, rows(xi, y[:, None], params.k_b * t[:, None])))

        if certified:
            integrals = integrate(integrand, params.xi_min, edge, scale=scale)[0]
        else:
            integrals = _first_round(integrand, params.xi_min, edge, scale=scale)
        return integrals.reshape(-1, t.size)

    if ts.size == 1:
        y, reach = float(ys[0]), math.sqrt(float(reach2[0]))
        if rows is not None and y > 0.0:
            reach = min(reach, math.sqrt(params.xi_min**2 + y))
        integrals = window(slice(None), _rung(reach, base), _edge(params, float(ts[0])))
        return _partials(ts, ys, params, kinds, integrals), integrals
    per_pair = len(kinds)
    if rows is not None and ts.size:
        # the caller's rows per pair, from one pair at one node
        per_pair += len(rows(np.array([params.xi_min]), ys[:1, None], params.k_b * ts[:1, None]))
    integrals = np.empty((per_pair, ts.size))
    reach = np.sqrt(reach2)
    if rows is not None:
        np.minimum(reach, np.sqrt(params.xi_min**2 + ys), out=reach, where=ys > 0.0)
    # _rung at every pair
    scales = np.ldexp(base, np.frexp(reach / base)[1] - 1)
    scales = np.where(scales > reach, scales / 2.0, scales)
    # _edge at every pair
    edges = np.minimum(params.hbar_omega_d, _EDGE * params.k_b * np.maximum(params.t_c, ts))
    # stable, so each rung's pairs keep their order
    order = np.lexsort((edges, scales))
    starts = np.flatnonzero((np.diff(scales[order]) != 0.0) | (np.diff(edges[order]) != 0.0)) + 1
    for group in np.split(order, starts) if ts.size else ():
        scale, edge = float(scales[group[0]]), float(edges[group[0]])
        panels = _start_panels(params.xi_min, edge, scale)[0].size
        per = max(_BLOCK_ROWS // per_pair, _BLOCK_NODES // (per_pair * _NODES.size * panels))
        for lo in range(0, group.size, per):
            pairs = group[lo:lo + per]
            integrals[:, pairs] = window(pairs, scale, edge)
    return _partials(ts, ys, params, kinds, integrals), integrals


def _partials(ts, ys, params: ModelParams, kinds, integrals) -> ResidualPartials:
    """The fields of the named kernels' integrals at pairs (ts, ys), each kernel's asymptote past the edge added.

    value comes from "value", d_t from "sech", d_y from "slope", d_tt from
    "sech" and "eta_tanh", d_ty from "mixed" and d_yy from "curv"; the
    other fields stay None.
    """
    i = dict(zip(kinds, integrals))
    kb = params.k_b
    two_kbt = 2.0 * kb * ts
    fields = {}
    if "value" in i:
        fields["value"] = i["value"] - 1.0 / params.u0n0
    if "sech" in i:
        fields["d_t"] = -i["sech"] / (2.0 * kb * ts * ts)
    if "slope" in i:
        fields["d_y"] = i["slope"] / (2.0 * two_kbt**3)
    if "eta_tanh" in i:
        fields["d_tt"] = (i["sech"] - i["eta_tanh"]) / (kb * ts**3)
    if "mixed" in i:
        fields["d_ty"] = i["mixed"] / (two_kbt**3 * ts)
    if "curv" in i:
        fields["d_yy"] = -i["curv"] / (4.0 * two_kbt**5)
    edge = _edge(params, params.t_c)
    if i and edge < params.hbar_omega_d:
        # past the edge each kernel is its asymptote, whose powers of 2 k_b t
        # cancel in its field
        tails = _tails(ys, params, edge, fifth="curv" in i)
        if "value" in i:
            fields["value"] = fields["value"] + tails[0]
        if "slope" in i:
            fields["d_y"] = fields["d_y"] - 0.5 * tails[1]
        if "curv" in i:
            fields["d_yy"] = fields["d_yy"] + 0.75 * tails[2]
    return ResidualPartials(t=ts, y=ys, **fields)


def _at(t, y, params: ModelParams, order: int) -> ResidualPartials:
    """Partials up to order at one public (t, y), as physical floats: the one gate of the scalar entries.

    (t, y) is gated as given, then evaluated in core units, with y held to
    the core y_max, which rounding can put below the converted edge; each
    t- and y-derivative is then divided by t_c and (k_b t_c)^2.  t = 0
    below order 2 takes the closed forms of gap_residual_partials, and
    order 2 refuses it; F is analytic in y for every t > 0, so the partials
    exist on the t_c, y = 0 and y = y_max edges too.  A t below _COLDEST t_c
    is evaluated at _COLDEST t_c; that is exact, and admitted, where
    sqrt(xi_min^2 + y) is at least _EDGE k_b _COLDEST t_c, so that every
    thermal part is below the quadrature target at both temperatures.  A
    refusal names the caller's (t, y) and thresholds.  Raises OutsideDomain
    if a field is not a finite float.
    """
    _gate_closure(*_pairs(t, y), params)
    t, y = float(t), float(y)
    core = params.core
    t_unit, y_unit = params.t_c, params.scales[0]
    tau, y_core = t / t_unit, min(y / y_unit, core.y_max)
    if tau == 0.0 and order < 2:
        # at y near the smallest float the closed forms leave float range;
        # the finiteness check below refuses them
        with np.errstate(over="ignore", divide="ignore"):
            inv1, inv3 = _tails(y_core, core, core.xi_min)
        c = ResidualPartials(tau, y_core, inv1 - 1.0 / core.u0n0, d_t=0.0, d_y=-0.5 * inv3)
    else:
        if tau == 0.0:
            raise OutsideDomain(f"(t, y) = ({t!r}, {y!r}): no second partials exist on the zero-temperature edge")
        edge = _EDGE * _COLDEST  # in units of k_b t_c
        if tau < _COLDEST and np.hypot(core.xi_min, math.sqrt(y_core)) < edge:
            raise OutsideDomain(
                f"(t, y) = ({t!r}, {y!r}): below {_COLDEST * t_unit!r} the residual is evaluated at "
                f"{_COLDEST * t_unit!r}, exact only where sqrt(xi_min^2 + y) >= {edge * params.k_b * t_unit!r}"
            )
        c, _ = _ungated_pass(np.array([max(tau, _COLDEST)]), np.array([y_core]), core, _ORDER_KERNELS[order])
    units = {"value": 1.0, "d_t": t_unit, "d_y": y_unit, "d_tt": t_unit * t_unit,
             "d_ty": t_unit * y_unit, "d_yy": y_unit * y_unit}
    fields = {
        name: float(np.ravel(getattr(c, name))[0]) / unit
        for name, unit in units.items() if getattr(c, name) is not None
    }
    if not all(map(math.isfinite, fields.values())):
        raise OutsideDomain(f"a residual field at (t, y) = ({t!r}, {y!r}) is not a finite float: {fields}")
    return ResidualPartials(t, y, **fields)


def gap_residual(t: float, y: float, params: ModelParams) -> float:
    """Gap-equation residual at temperature t and squared gap y.

    Positive above the gap curve's zero set in t (below it in y), negative
    on the other side, zero on the curve.  t = 0 is the closed-form integral
    of 1/sqrt(xi^2 + y) over the window; t > 0 integrates the kernel up to
    the thermal edge and adds that closed form past it.
    """
    return _at(t, y, params, 0).value


def residual_and_slope(t: float, y: float, params: ModelParams) -> tuple[float, float]:
    """Residual value together with its y-derivative (one Newton step's worth).

    Skips the temperature derivative that the full first-order evaluation
    would also compute; the gap's Newton steps do the same for arrays.
    """
    p = _at(t, y, params, 0)
    return p.value, p.d_y


def gap_residual_partials(t: float, y: float, params: ModelParams) -> ResidualPartials:
    """Residual with first partial derivatives.

    On the zero-temperature edge d_t is exactly 0 and d_y is minus half
    the closed-form integral of (xi^2 + y)^(-3/2) over the window; elsewhere
    both are pairing-window integrals (d_t of the thermal sech^2 weight, d_y
    of the slope kernel).  Both are strictly negative off the
    zero-temperature edge.
    """
    return _at(t, y, params, 1)


def gap_residual_second_partials(t: float, y: float, params: ModelParams) -> ResidualPartials:
    """Residual with first and second partial derivatives.

    Defined on the closed box without the zero-temperature edge, so also
    at the gap curve's endpoint (t_c, 0).
    """
    return _at(t, y, params, 2)

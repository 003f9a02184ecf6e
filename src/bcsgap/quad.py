"""Adaptive quadrature on finite intervals.

The engine is a globally adaptive Gauss-Kronrod 7/15 rule, with the usual
conservative Kronrod-minus-Gauss error estimate and one refinement rule:
each round bisects every panel over its share of the budget that is wider
than floating-point width, and evaluates every panel, kept and new alike,
in one vectorized call, so integrands written with numpy stay fast; a kept
panel's values are recomputed, not stored.  Its one failure is
ToleranceNotMet, when no such panel is left or the panel cap is reached.

_first_round is integrate's first round alone: the same starting panels,
nodes and Kronrod sums, so its value is integrate's to the bit wherever
integrate accepts that round, but with no error estimate and no
refinement.  It is uncertified; its one caller certifies what it accepts
from it with integrate.

An integrand may also return a stack of k integrands, shape (k, n) for n
nodes.  They share one set of panels, each component must meet its own
target, and a panel is split when any component still short of its target
is over budget there.

An integrand whose structure sits on a scale s near 0, far below the
length of the interval, is integrated in v = asinh(x / s) (the sinh map of
Takahasi and Mori, Publ. RIMS 9 (1974) 721): equal starting panels in v
are narrow where x is below s and widen geometrically above it, so that
structure is resolved from the first round.

An integrand that decays exponentially on [a, infinity) is integrated up to
truncation_point(a, decay_scale), beyond which its tail is negligible.

Every call has one accuracy target: REL_TOL times |integral|, or 50
machine epsilons times the integral of |f| where roundoff keeps it from
meeting that.  The integral of |f| is formed only on a round where some
component misses its relative target.  There is no absolute floor, so an
integral keeps its relative accuracy at any magnitude.

Finiteness is read off the panel sums: every Kronrod weight is positive,
so a node where f is not finite makes its panel's sum not finite, and only
then are the nodes scanned for the one NonFiniteIntegrand names.
"""

import math

import numpy as np

from .errors import NonFiniteIntegrand, ToleranceNotMet

__all__ = ["REL_TOL", "integrate", "truncation_point"]

REL_TOL = 1e-12
_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny
# Cap on the total number of panels before ToleranceNotMet is raised.
_MAX_PANELS = 2 ** 15
# Widest starting panel in the mapped variable v = asinh(x / scale).
_MAPPED_WIDTH = 0.5

# 15-point Kronrod abscissae (positive half, descending) with the embedded
# 7-point Gauss rule at the odd-indexed nodes.  Standard published values.
_XK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
])
_WK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

# Full 15-node arrays, ascending in x.  Gauss nodes sit at indices 1,3,...,13.
_NODES = np.concatenate((-_XK[:-1], _XK[::-1]))
_W15 = np.concatenate((_WK[:-1], _WK[::-1]))
_W7 = np.zeros(15)
_W7[[1, 3, 5, 7, 9, 11, 13]] = np.concatenate((_WG[:-1], _WG[::-1]))


def _eval_batch(f, x):
    """Evaluate a vectorized f on a 1-D node array: shape (n,) or (k, n)."""
    y = np.asarray(f(x), dtype=float)
    if y.shape != x.shape and (y.ndim != 2 or y.shape[1] != x.size):
        raise NonFiniteIntegrand(
            f"integrand returned shape {y.shape} for input shape {x.shape} "
            f"(nodes from x = {x[0]!r})"
        )
    return y


def _kronrod(f, lo, hi, scale):
    """Half-widths, node values and Kronrod value of each panel.

    With scale given, the panels are in v and f is evaluated at
    x = scale * sinh(v) times the Jacobian.  The node values have shape
    (P, 15) for a 1-D integrand and (k, P, 15) for a stack, and the
    Kronrod values (P,) and (k, P).  The nodes are scanned only where a
    panel's value is not finite, and NonFiniteIntegrand names the first x
    at which f is not.
    """
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    v = (mid[:, None] + half[:, None] * _NODES[None, :]).ravel()
    x = v if scale is None else scale * np.sinh(v)
    fx = _eval_batch(f, x)
    y = fx if scale is None else fx * (scale * np.cosh(v))
    y = y.reshape(y.shape[:-1] + (lo.size, _NODES.size))
    # nodes at +inf and -inf in one panel sum to nan, which the scan reports
    with np.errstate(invalid="ignore"):
        k = half * (y @ _W15)
    if not np.isfinite(k).all():
        finite = np.isfinite(fx)
        if not finite.all():
            bad = x[~finite.all(axis=0)] if fx.ndim == 2 else x[~finite]
            raise NonFiniteIntegrand(f"integrand is not finite near x = {bad[0]!r}")
    return half, y, k


def _panels_eval(f, lo, hi, scale):
    """_kronrod's half-widths, node values and Kronrod values, and each panel's error estimate."""
    half, y, k = _kronrod(f, lo, hi, scale)
    g = half * (y @ _W7)
    dev = y - (k / (2.0 * half))[..., None]
    np.abs(dev, out=dev)
    resasc = half * (dev @ _W15)
    diff = np.abs(k - g)
    positive = resasc > 0.0
    safe = np.where(positive, resasc, 1.0)
    err = np.where(positive, resasc * np.minimum(1.0, (200.0 * diff / safe) ** 1.5), diff)
    return half, y, k, err


def _start_panels(a, b, scale):
    """Checked limits as the starting panels (lo, hi), and the checked scale.

    With scale given, the panels are equal ones no wider than _MAPPED_WIDTH
    in v = asinh(x / scale); without it, or where the mapped limits round
    to one float, the one panel [a, b], and the scale returned is None.
    """
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"integration limits must be finite, got [{a}, {b}]")
    if not a < b:
        raise ValueError(f"integration requires a < b, got [{a}, {b}]")

    n_panels = 1
    if scale is not None:
        scale = float(scale)
        if not (scale > 0.0 and math.isfinite(scale)):
            raise ValueError(f"scale must be positive and finite, got {scale}")
        v_a, v_b = math.asinh(a / scale), math.asinh(b / scale)
        if v_a < v_b:
            a, b = v_a, v_b
            n_panels = math.ceil((b - a) / _MAPPED_WIDTH)
        else:
            scale = None
    # np.linspace(a, b, n_panels + 1) to the bit, without its call overhead
    edges = np.arange(n_panels + 1.0) * ((b - a) / n_panels) + a
    edges[-1] = b
    return edges[:-1], edges[1:], scale


def integrate(f, a, b, scale: float | None = None):
    """Integrate f over [a, b] to the module's accuracy target.

    With scale given, the rule runs in v = asinh(x / scale) from equal
    panels no wider than _MAPPED_WIDTH; without it, or where asinh(a / scale)
    and asinh(b / scale) round to one float, from the one panel [a, b].
    Returns (value, err_est) as floats, or as arrays of shape (k,)
    when f returns a (k, n) stack.  Raises NonFiniteIntegrand if f produces
    NaN or infinity or a wrongly shaped result, and ToleranceNotMet, naming
    the component furthest over its target, when no splittable panel is over
    budget or the panel cap is reached.
    """
    lo, hi, scale = _start_panels(a, b, scale)
    length = hi[-1] - lo[0]
    while True:
        half, y, k, err = _panels_eval(f, lo, hi, scale)
        # one entry per component: a 1-D integrand is a stack of one
        total = np.add.reduce(k, axis=-1).reshape(-1)
        total_err = np.add.reduce(err, axis=-1).reshape(-1)
        tol = REL_TOL * np.abs(total)
        if (total_err <= tol).all():
            break
        # the roundoff floor, formed only where a component misses its relative target
        total_abs = np.add.reduce(half * (np.abs(y) @ _W15), axis=-1).reshape(-1)
        tol = np.maximum(tol, 50.0 * _EPS * total_abs)
        unmet = total_err > tol
        if not unmet.any():
            break
        widths = hi - lo
        # a panel at floating-point width cannot be bisected
        splittable = widths > 4.0 * _EPS * np.maximum(np.abs(lo), np.abs(hi)) + 2.0 * _TINY
        # components that already meet their target set no budget
        budget = np.where(unmet, tol, np.inf)[:, None] * (widths / length)
        to_split = (err.reshape(total.size, -1) > budget).any(axis=0) & splittable
        if not to_split.any() or lo.size + np.count_nonzero(to_split) > _MAX_PANELS:
            # the target may underflow to 0, so the excess, not a ratio, picks the component
            row = int(np.argmax(total_err - tol))
            raise ToleranceNotMet(
                f"error estimate {total_err[row]:.3e} exceeds target {tol[row]:.3e} after {lo.size} "
                f"panels: no splittable panel is over budget, or the limit {_MAX_PANELS} is reached"
            )
        mids = 0.5 * (lo[to_split] + hi[to_split])
        lo = np.concatenate((lo[~to_split], lo[to_split], mids))
        hi = np.concatenate((hi[~to_split], mids, hi[to_split]))
        order = np.argsort(lo)
        lo = lo[order]
        hi = hi[order]

    if k.ndim == 2:
        return total, total_err
    return float(total[0]), float(total_err[0])


def _first_round(f, a, b, scale: float | None = None):
    """integrate's first-round value, without its error estimate or refinement.

    The starting panels, nodes and Kronrod sums are integrate's, so the
    value is integrate's to the bit wherever integrate accepts its first
    round; nothing checks that it meets the accuracy target.  Returns the
    value, of shape (k,) for a (k, n) stack, and raises what integrate
    raises for bad limits, scales and integrand output.
    """
    lo, hi, scale = _start_panels(a, b, scale)
    return np.add.reduce(_kronrod(f, lo, hi, scale)[2], axis=-1)


def truncation_point(a, decay_scale):
    """Upper limit that makes the dropped tail negligible at REL_TOL.

    Assumes the integrand is bounded by a slowly varying factor times
    exp(-(x - a)/decay_scale).  The margin term grows with the distance
    already covered, which keeps polynomially growing prefactors safe.
    """
    s = float(decay_scale)
    if not (s > 0.0 and np.isfinite(s)):
        raise ValueError(f"decay_scale must be positive and finite, got {decay_scale}")
    base = np.log(1.0 / REL_TOL)
    x = a + s * base
    for _ in range(8):
        x = a + s * (base + 10.0 * np.log(max(2.0 + x / s, 2.0)))
    return x


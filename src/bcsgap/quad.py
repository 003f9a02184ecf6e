"""Adaptive quadrature on finite and semi-infinite intervals.

The engine is a globally adaptive Gauss-Kronrod 7/15 rule.  Panels whose
error estimate exceeds their share of the budget are bisected, and every
new panel in a round is evaluated in one vectorized call, so integrands
written with numpy stay fast.  The returned error estimate is the usual
conservative Kronrod-minus-Gauss measure.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import NonFiniteIntegrand, ToleranceNotMet

__all__ = ["QuadSpec", "AdaptiveCache", "integrate", "integrate_semi_infinite"]

_EPS = np.finfo(float).eps

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


@dataclass(frozen=True)
class QuadSpec:
    """Accuracy contract for one integration call.

    The target is max(rel_tol * |integral|, abs_tol); max_subdivisions caps
    the total number of panels before ToleranceNotMet is raised.
    """

    rel_tol: float = 1e-12
    abs_tol: float = 1e-30
    max_subdivisions: int = 2 ** 15

    def __post_init__(self):
        if not (self.rel_tol > 0.0 and np.isfinite(self.rel_tol)):
            raise ValueError(f"rel_tol must be positive and finite, got {self.rel_tol}")
        if not (self.abs_tol >= 0.0):
            raise ValueError(f"abs_tol must be non-negative, got {self.abs_tol}")
        if self.max_subdivisions < 1:
            raise ValueError(f"max_subdivisions must be >= 1, got {self.max_subdivisions}")


DEFAULT_SPEC = QuadSpec()


@dataclass
class AdaptiveCache:
    """Optional panel-layout carryover between calls with the same limits.

    A solver that integrates a family of similar integrands over one interval
    can hand the same cache to every call; the adapted panel edges from the
    previous call seed the next one.  Accuracy is still checked every time.
    """

    a: float | None = None
    b: float | None = None
    edges: np.ndarray | None = field(default=None, repr=False)


def _eval_batch(f, x):
    """Evaluate a vectorized f on a 1-D node array."""
    y = np.asarray(f(x), dtype=float)
    if y.shape != x.shape:
        if y.ndim == 0:
            y = np.full(x.shape, float(y))
        else:
            raise NonFiniteIntegrand(
                f"integrand returned shape {y.shape} for input shape {x.shape}"
            )
    if not np.all(np.isfinite(y)):
        bad = x[~np.isfinite(y)]
        raise NonFiniteIntegrand(f"integrand is not finite near x = {bad[0]!r}")
    return y


def _panels_eval(f, lo, hi):
    """Kronrod value, error estimate, and |f| integral for each panel."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    x = mid[:, None] + half[:, None] * _NODES[None, :]
    y = _eval_batch(f, x.ravel()).reshape(x.shape)
    k = half * (y @ _W15)
    g = half * (y @ _W7)
    resabs = half * (np.abs(y) @ _W15)
    mean = k / (2.0 * half)
    resasc = half * (np.abs(y - mean[:, None]) @ _W15)
    diff = np.abs(k - g)
    safe = np.where(resasc > 0.0, resasc, 1.0)
    err = np.where(
        resasc > 0.0,
        resasc * np.minimum(1.0, (200.0 * diff / safe) ** 1.5),
        diff,
    )
    return k, err, resabs


def integrate(f, a, b, spec: QuadSpec | None = None, cache: AdaptiveCache | None = None):
    """Integrate f over [a, b] to the accuracy demanded by spec.

    Returns (value, err_est).  Raises NonFiniteIntegrand if f produces NaN or
    infinity, and ToleranceNotMet if the panel limit is reached first.
    """
    spec = spec or DEFAULT_SPEC
    a = float(a)
    b = float(b)
    if not (np.isfinite(a) and np.isfinite(b)):
        raise ValueError(f"integration limits must be finite, got [{a}, {b}]")
    if not a < b:
        raise ValueError(f"integration requires a < b, got [{a}, {b}]")

    if cache is not None and cache.edges is not None and cache.a == a and cache.b == b:
        edges = cache.edges
    else:
        edges = np.array([a, b])
    lo = edges[:-1].copy()
    hi = edges[1:].copy()

    length = b - a
    while True:
        k, err, resabs = _panels_eval(f, lo, hi)
        total = float(k.sum())
        total_err = float(err.sum())
        total_abs = float(resabs.sum())
        tol = max(spec.rel_tol * abs(total), spec.abs_tol, 50.0 * _EPS * total_abs)
        if total_err <= tol:
            break
        # Panels at floating-point width cannot be refined further.
        widths = hi - lo
        splittable = widths > 4.0 * _EPS * np.maximum(np.abs(lo), np.abs(hi)) + 2.0 * np.finfo(float).tiny
        over_budget = err > tol * (widths / length)
        to_split = over_budget & splittable
        if not to_split.any():
            worst = int(np.argmax(np.where(splittable, err, -1.0)))
            if not splittable[worst]:
                raise ToleranceNotMet(
                    f"roundoff-limited at error estimate {total_err:.3e} (target {tol:.3e})"
                )
            to_split = np.zeros_like(over_budget)
            to_split[worst] = True
        n_new = lo.size + int(to_split.sum())
        if n_new > spec.max_subdivisions:
            raise ToleranceNotMet(
                f"error estimate {total_err:.3e} exceeds target {tol:.3e} "
                f"after {lo.size} panels (limit {spec.max_subdivisions})"
            )
        mids = 0.5 * (lo[to_split] + hi[to_split])
        lo = np.concatenate((lo[~to_split], lo[to_split], mids))
        hi = np.concatenate((hi[~to_split], mids, hi[to_split]))
        order = np.argsort(lo)
        lo = lo[order]
        hi = hi[order]

    if cache is not None:
        cache.a = a
        cache.b = b
        cache.edges = np.append(lo, b)
    return total, total_err


def truncation_point(a, decay_scale, spec: QuadSpec | None = None):
    """Upper limit that makes the dropped tail negligible at spec.rel_tol.

    Assumes the integrand is bounded by a slowly varying factor times
    exp(-(x - a)/decay_scale).  The margin term grows with the distance
    already covered, which keeps polynomially growing prefactors safe.
    """
    spec = spec or DEFAULT_SPEC
    s = float(decay_scale)
    if not (s > 0.0 and np.isfinite(s)):
        raise ValueError(f"decay_scale must be positive and finite, got {decay_scale}")
    base = np.log(1.0 / spec.rel_tol)
    x = a + s * base
    for _ in range(8):
        x = a + s * (base + 10.0 * np.log(max(2.0 + x / s, 2.0)))
    return x


def integrate_semi_infinite(f, a, decay_scale, spec: QuadSpec | None = None):
    """Integrate f over [a, infinity) for integrands with exponential decay.

    decay_scale is the e-folding length of the decay; the improper integral
    is truncated where the tail is below tolerance and then delegated to
    integrate().  Returns (value, err_est).
    """
    spec = spec or DEFAULT_SPEC
    a = float(a)
    if not np.isfinite(a):
        raise ValueError(f"lower limit must be finite, got {a}")
    return integrate(f, a, truncation_point(a, decay_scale, spec), spec)

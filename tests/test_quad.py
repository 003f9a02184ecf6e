"""Adaptive quadrature against closed forms and independent oracles."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bcsgap import quad
from bcsgap.errors import NonFiniteIntegrand, ToleranceNotMet
from bcsgap.quad import integrate, truncation_point

from . import oracles


def test_constant_over_unit_interval():
    val, err = integrate(lambda x: np.ones_like(x), 0.0, 1.0)
    assert val == pytest.approx(1.0, abs=1e-15)
    assert err <= 1e-12


def test_inverse_sqrt_shifted_closed_form():
    # int_0^1 dx / sqrt(x^2 + 1) = asinh(1) = ln(1 + sqrt(2))
    val, _ = integrate(lambda x: 1.0 / np.sqrt(x * x + 1.0), 0.0, 1.0)
    assert val == pytest.approx(math.log(1.0 + math.sqrt(2.0)), rel=1e-13)


def test_tanh_eta_over_eta_matches_simpson_oracle():
    # Frozen from a one-million-node Simpson evaluation, written before this
    # module existed: 2.4282263663472786
    val, _ = integrate(lambda x: np.tanh(x) / x, 1e-300, 5.0)
    assert val == pytest.approx(2.4282263663472786, rel=1e-12)
    fresh = oracles.simpson(lambda x: np.tanh(x) / x, 1e-300, 5.0, n=200_000)
    assert val == pytest.approx(fresh, rel=1e-11)


def _halfline(f, a, decay_scale):
    # [a, inf) up to where an e^{-(x - a) / decay_scale} tail is negligible
    return integrate(f, a, truncation_point(a, decay_scale))


def test_gaussian_halfline():
    val, _ = _halfline(lambda x: np.exp(-x * x), 0.0, decay_scale=1.0)
    assert val == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-12)


def test_log_fermi_tail_matches_series():
    # int_0^inf ln(1 + e^-x) dx = pi^2 / 12 (alternating zeta series)
    val, _ = _halfline(lambda x: np.log1p(np.exp(-x)), 0.0, decay_scale=1.0)
    partial = np.cumsum([(-1.0) ** (k + 1) / k**2 for k in range(1, 402)])
    series = 0.5 * (partial[-1] + partial[-2])  # averaging kills the leading tail
    assert val == pytest.approx(math.pi**2 / 12.0, rel=1e-12)
    assert val == pytest.approx(series, rel=1e-7)


def test_sqrt_weighted_exponential():
    # int_0^inf sqrt(x) e^-x dx = Gamma(3/2) = sqrt(pi)/2; integrable kink at 0
    val, _ = _halfline(lambda x: np.sqrt(x) * np.exp(-x), 0.0, decay_scale=1.0)
    assert val == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-10)


def test_error_estimate_is_honest_on_oscillatory_integrand():
    val, err = integrate(lambda x: np.cos(50.0 * x), 0.0, 1.0)
    exact = math.sin(50.0) / 50.0
    assert abs(val - exact) <= max(err, 1e-14)


def test_interval_doubling_is_additive():
    f = lambda x: np.exp(-x) * np.sin(3.0 * x)
    whole, _ = integrate(f, 0.0, 2.0)
    left, _ = integrate(f, 0.0, 0.7)
    right, _ = integrate(f, 0.7, 2.0)
    assert whole == pytest.approx(left + right, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("width", [1e-3, 1e-6, 1e-9])
def test_scale_resolves_structure_near_zero(width):
    # int_0^1 sech^2(x / w) dx = w tanh(1 / w): all of it within a few w of 0
    f = lambda x: 4.0 * np.exp(-2.0 * x / width) / (1.0 + np.exp(-2.0 * x / width)) ** 2
    val, err = integrate(f, 0.0, 1.0, scale=width)
    assert val == pytest.approx(width * math.tanh(1.0 / width), rel=1e-13, abs=0.0)
    assert err <= 1e-12 * val


def test_scale_keeps_smooth_integrals():
    # int_0^2 dx / sqrt(x^2 + 1) = asinh(2), mapped on a scale far off its own
    for scale in (1e-8, 1.0, 1e8):
        val, _ = integrate(lambda x: 1.0 / np.sqrt(x * x + 1.0), 0.0, 2.0, scale=scale)
        assert val == pytest.approx(math.asinh(2.0), rel=1e-13)


def test_scale_handles_stacks_and_negative_limits():
    fs = (lambda x: np.exp(-x * x / 1e-4), lambda x: x * x)
    vals, _ = integrate(_stack(*fs), -3.0, 1.0, scale=1e-2)
    assert vals[0] == pytest.approx(math.sqrt(math.pi * 1e-4), rel=1e-13)
    assert vals[1] == pytest.approx(28.0 / 3.0, rel=1e-13)


def test_scale_reports_nonfinite_at_x():
    # the node named in the message is in x, not in the mapped variable
    with pytest.raises(NonFiniteIntegrand, match=r"near x = (np\.float64\()?0\.[5-9]"):
        integrate(lambda x: np.where(x > 0.5, np.nan, x), 0.0, 1.0, scale=1e-3)


@pytest.mark.parametrize("size", [1e-40, 1e-150, 1e-300])
def test_tiny_integrals_keep_relative_accuracy(size):
    # no absolute floor: a tiny integral is resolved to REL_TOL of itself
    val, err = integrate(lambda x: size * np.cos(40.0 * x), 0.0, 1.0)
    exact = size * math.sin(40.0) / 40.0
    assert abs(val - exact) <= 1e-12 * abs(exact)
    assert err <= 1e-12 * abs(val)


def test_nonfinite_integrand_is_reported():
    with np.errstate(divide="ignore"), pytest.raises(NonFiniteIntegrand):
        integrate(lambda x: 1.0 / x, -1.0, 1.0)


def _stack(*fs):
    return lambda x: np.stack([f(x) for f in fs])


def test_stacked_components_match_separate_calls():
    fs = (
        lambda x: np.tanh(x) / x,
        lambda x: np.exp(-x) * np.cos(5.0 * x),
        lambda x: 1.0 / np.sqrt(x * x + 1e-4),
    )
    vals, errs = integrate(_stack(*fs), 1e-300, 5.0)
    assert vals.shape == errs.shape == (3,)
    for f, val, err in zip(fs, vals, errs):
        alone, _ = integrate(f, 1e-300, 5.0)
        assert val == pytest.approx(alone, rel=1e-12)
        assert err <= 1e-12 * abs(val)


def test_stacked_small_component_meets_its_own_tolerance():
    # next to an O(1) component that one panel integrates exactly, the
    # 1e-12-sized oscillation must still be resolved to 1e-12 of itself
    small = lambda x: 1e-12 * np.cos(40.0 * x)
    vals, errs = integrate(_stack(np.ones_like, small), 0.0, 1.0)
    exact = 1e-12 * math.sin(40.0) / 40.0
    assert vals[0] == pytest.approx(1.0, rel=1e-15)
    assert abs(vals[1] - exact) <= 1e-12 * abs(exact)
    assert errs[1] <= 1e-12 * abs(vals[1])


@pytest.mark.parametrize(
    "f",
    [
        pytest.param(lambda x: np.zeros((2, x.size + 1)), id="shape-k-by-n-plus-1"),
        pytest.param(lambda x: np.stack([x, np.where(x > 0.5, np.nan, x)]), id="nan-in-one-row"),
        pytest.param(lambda x: 1.0, id="shape-0-d"),
    ],
)
def test_stacked_bad_output_is_reported(f):
    with pytest.raises(NonFiniteIntegrand, match=r"x = "):
        integrate(f, 0.0, 1.0)


@pytest.mark.parametrize(
    "f",
    [
        pytest.param(lambda x: np.zeros((2, x.size + 1)), id="shape-k-by-n-plus-1"),
        pytest.param(lambda x: np.stack([x, np.where(x > 0.5, np.nan, x)]), id="nan-in-one-row"),
        pytest.param(lambda x: 1.0, id="shape-0-d"),
    ],
)
def test_first_round_keeps_the_checks_of_integrate(f):
    # the uncertified round evaluates its nodes as integrate does, so a bad
    # integrand is reported, not carried into a value
    with pytest.raises(NonFiniteIntegrand, match=r"x = "):
        quad._first_round(f, 0.0, 1.0, scale=0.1)


def _straightforward_integrate(f, a, b, scale=None):
    """integrate's round in its plainest form, for the bit-identity test below.

    Every round forms every field of every panel, the |f| integral
    included, sums the three as one stacked array, and tests each component
    against the larger of its relative target and its roundoff floor.
    """
    lo, hi, scale = quad._start_panels(a, b, scale)
    length = hi[-1] - lo[0]
    while True:
        half, x, jac = quad._nodes(lo, hi, scale)
        y, k = quad._kronrod(f, half, x, jac)
        g = half * (y @ quad._W7)
        resabs = half * (np.abs(y) @ quad._W15)
        mean = k / (2.0 * half)
        resasc = half * (np.abs(y - mean[..., None]) @ quad._W15)
        diff = np.abs(k - g)
        safe = np.where(resasc > 0.0, resasc, 1.0)
        err = np.where(resasc > 0.0, resasc * np.minimum(1.0, (200.0 * diff / safe) ** 1.5), diff)
        total, total_err, total_abs = np.add.reduce((k, err, resabs), axis=-1).reshape(3, -1)
        tol = np.maximum(quad.REL_TOL * np.abs(total), 50.0 * quad._EPS * total_abs)
        unmet = total_err > tol
        if not unmet.any():
            return total, total_err
        widths = hi - lo
        splittable = widths > 4.0 * quad._EPS * np.maximum(np.abs(lo), np.abs(hi)) + 2.0 * quad._TINY
        budget = np.where(unmet, tol, np.inf)[:, None] * (widths / length)
        to_split = (err.reshape(total.size, -1) > budget).any(axis=0) & splittable
        assert to_split.any()
        mids = 0.5 * (lo[to_split] + hi[to_split])
        lo = np.concatenate((lo[~to_split], lo[to_split], mids))
        hi = np.concatenate((hi[~to_split], mids, hi[to_split]))
        order = np.argsort(lo)
        lo, hi = lo[order], hi[order]


@pytest.mark.parametrize(
    "f, a, b, scale",
    [
        pytest.param(lambda x: np.tanh(x) / x, 1e-300, 5.0, None, id="one-row"),
        pytest.param(
            _stack(
                lambda x: np.tanh(x) / x,
                lambda x: np.exp(-x) * np.cos(5.0 * x),
                lambda x: 1.0 / np.sqrt(x * x + 1e-4),
            ),
            1e-300, 5.0, None, id="three-rows",
        ),
        pytest.param(_stack(lambda x: np.exp(-x * x / 1e-4), lambda x: x * x), -3.0, 1.0, 1e-2, id="mapped"),
        pytest.param(_stack(np.ones_like, lambda x: 1e-12 * np.cos(40.0 * x)), 0.0, 1.0, None, id="small-row"),
        pytest.param(lambda x: 1e-300 * np.cos(40.0 * x), 0.0, 1.0, None, id="tiny"),
        pytest.param(np.sin, -1.0, 1.0, None, id="roundoff-floor"),
    ],
)
def test_rounds_give_the_bits_of_the_straightforward_round(f, a, b, scale):
    # integrate skips the |f| integral on rounds that meet the relative
    # target and sums each field apart; its values and error estimates are
    # those of the plainest form of the round, to the bit
    value, err = integrate(f, a, b, scale=scale)
    total, total_err = _straightforward_integrate(f, a, b, scale)
    assert np.asarray(value).tobytes() == total.tobytes()
    assert np.asarray(err).tobytes() == total_err.tobytes()


def test_roundoff_floor_accepts_an_integral_near_zero():
    # sin is odd on [-1, 1]: the integral rounds to about 1e-18, far below
    # what its error estimate can reach at 1e-12 of it, and the 50 eps
    # integral of |f| accepts it on its first round
    rounds = []

    def f(x):
        rounds.append(1)
        return np.sin(x)

    value, err = integrate(f, -1.0, 1.0)
    assert err > quad.REL_TOL * abs(value)
    assert err <= 50.0 * quad._EPS * (2.0 - 2.0 * math.cos(1.0))
    assert len(rounds) == 1


def _mapped_nodes(a, b, scale):
    lo, hi, scale = quad._start_panels(a, b, scale)
    v = (0.5 * (hi + lo))[:, None] + (0.5 * (hi - lo))[:, None] * quad._NODES[None, :]
    return scale * np.sinh(v.ravel())


@pytest.mark.parametrize("bad", [[np.nan], [np.inf], [-np.inf], [np.inf, -np.inf]],
                         ids=["nan", "inf", "minus-inf", "inf-and-minus-inf-in-one-panel"])
@pytest.mark.parametrize("rule", [integrate, quad._first_round], ids=["integrate", "first-round"])
def test_nonfinite_node_in_one_row_is_named(bad, rule):
    # finiteness is read off the panel sums; every weight is positive, so a
    # non-finite node makes its panel's sum non-finite, nan where +inf and
    # -inf share a panel, and the error names the first such node, with no
    # RuntimeWarning on the way
    nodes = _mapped_nodes(0.0, 1.0, 0.1)
    first = 37  # nodes 37 and 38 lie in the third panel

    def f(x):
        row = x.copy()
        row[first:first + len(bad)] = bad
        return np.stack([np.exp(-x), row])

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteIntegrand, match=re.escape(f"x = {nodes[first]!r}")):
            rule(f, 0.0, 1.0, scale=0.1)


def test_finite_nodes_whose_sum_overflows_are_not_called_nonfinite():
    # every node is finite, so the panel sums that overflow are not reported
    # as a non-finite integrand: the call returns what the sums give
    with np.errstate(over="ignore", invalid="ignore"):
        value, err = integrate(lambda x: np.full_like(x, 1e308), 0.0, 10.0)
    assert value == math.inf
    assert math.isnan(err)


@pytest.mark.parametrize(
    "rows, scale",
    [
        pytest.param(lambda x: np.stack([1.0 + x**3, x**5]), None, id="one-panel"),
        pytest.param(lambda x: np.stack([np.exp(-x), np.tanh(x / 0.01) / np.hypot(x, 0.01)]), 1e-3, id="mapped"),
    ],
)
def test_first_round_is_the_value_of_a_one_round_integrate(rows, scale):
    # where integrate accepts its first round, the round alone is its value to the bit
    rounds = []

    def f(x):
        rounds.append(1)
        return rows(x)

    value, _ = integrate(f, 0.0, 1.0, scale=scale)
    assert len(rounds) == 1
    assert quad._first_round(f, 0.0, 1.0, scale=scale).tobytes() == value.tobytes()
    assert quad._first_round(lambda x: rows(x)[0], 0.0, 1.0, scale=scale) == value[0]


@pytest.mark.parametrize(
    "a, b, scale, n",
    [
        pytest.param(0.0, 1.0, None, 1, id="one-panel"),
        pytest.param(0.0, 5e-324, None, 1, id="one-subnormal-panel"),
        pytest.param(-0.0, 3.0, 10.0, 1, id="one-mapped-panel"),
        pytest.param(0.0, 1.0, 1e-300, 1383, id="small-scale-many-panels"),
        pytest.param(1.0, 1.0 + 2.0**-52, 1e-300, 1, id="zero-step"),
    ],
)
def test_start_panels_are_linspace_edges(a, b, scale, n):
    # the edges are np.linspace's to the bit without its call; limits whose
    # mapped values round to one float make the one unmapped panel [a, b]
    lo, hi, mapped = quad._start_panels(a, b, scale)
    if mapped is not None:
        a, b = math.asinh(a / scale), math.asinh(b / scale)
    edges = np.linspace(a, b, n + 1)
    assert lo.size == n
    assert (lo.tobytes(), hi.tobytes()) == (edges[:-1].tobytes(), edges[1:].tobytes())


def test_mapped_limits_that_round_to_one_float_integrate_unmapped():
    # asinh(1 / 1e-300) and asinh((1 + 2^-52) / 1e-300) are one float: both
    # rules integrate on the one panel [a, b], as the unmapped call does
    a, b = 1.0, 1.0 + 2.0**-52
    unmapped, _ = integrate(np.ones_like, a, b)
    assert unmapped == pytest.approx(b - a, rel=1e-15)
    assert integrate(np.ones_like, a, b, scale=1e-300)[0] == unmapped
    assert quad._first_round(np.ones_like, a, b, scale=1e-300) == unmapped


def test_start_panels_are_linspace_edges_at_many_scales():
    rng = np.random.default_rng(7)
    for _ in range(500):
        a, b = np.sort(rng.uniform(-5.0, 5.0, 2)).tolist()
        scale = 10.0 ** rng.uniform(-300.0, 2.0)
        lo, hi, _ = quad._start_panels(a, b, scale)
        edges = np.linspace(math.asinh(a / scale), math.asinh(b / scale), lo.size + 1)
        assert (lo.tobytes(), hi.tobytes()) == (edges[:-1].tobytes(), edges[1:].tobytes()), (a, b, scale)


@pytest.mark.parametrize(
    "first, second, scale",
    [
        pytest.param((1.0, 1.0 + 2.0**-52), (1.0, 1.0 + 2.0**-52), 1e-300, id="mapped-limits-one-float"),
        pytest.param((0.0, 3.0), (-0.0, 3.0), 10.0, id="mapped-a-signed-zero"),
        pytest.param((-0.0, 1.0), (0.0, 1.0), None, id="unmapped-a-signed-zero"),
        pytest.param((-1.0, 0.0), (-1.0, -0.0), 0.5, id="mapped-b-signed-zero"),
        pytest.param((-1.0, -0.0), (-1.0, 0.0), None, id="unmapped-b-signed-zero"),
    ],
)
def test_a_cached_node_table_is_the_one_start_panels_gives(first, second, scale, cold_caches):
    # the second limits hit the table the first built, and it holds the
    # panels and nodes that _start_panels and _nodes give them afresh, so
    # both rules return, to the bit, the values formed on fresh nodes
    f = _stack(np.cos, lambda x: np.exp(-x * x))
    for a, b in (first, second):
        table = quad._start_table(a, b, scale)
        lo, hi, mapped = quad._start_panels(a, b, scale)
        fresh = (lo, hi, *quad._nodes(lo, hi, mapped))
        cached = (table.lo, table.hi, table.half, table.x, table.jac)
        assert table.scale == mapped
        assert [np.asarray(v).tobytes() for v in cached] == [np.asarray(v).tobytes() for v in fresh]
        total, _ = _straightforward_integrate(f, a, b, scale)
        assert integrate(f, a, b, scale=scale)[0].tobytes() == total.tobytes()
        first = np.add.reduce(quad._kronrod(f, *fresh[2:])[1], axis=-1)
        assert quad._first_round(f, a, b, scale=scale).tobytes() == first.tobytes()
    assert quad._built_table.cache_info().misses == 1


@pytest.mark.parametrize("rule", [integrate, quad._first_round], ids=["integrate", "first-round"])
@pytest.mark.parametrize("scale", [None, 0.1], ids=["unmapped", "mapped"])
def test_an_integrand_that_writes_into_its_nodes_raises(rule, scale):
    # the starting nodes are a shared table, read-only, so no integrand can
    # change the nodes of a later call
    def f(x):
        x *= 2.0
        return x

    with pytest.raises(ValueError, match="read-only"):
        rule(f, 0.0, 1.0, scale=scale)


def test_tolerance_not_met_when_budget_exhausted(monkeypatch):
    monkeypatch.setattr(quad, "_MAX_PANELS", 4)
    with pytest.raises(ToleranceNotMet):
        integrate(lambda x: np.abs(x - 1.0 / 3.0) ** 0.1, 0.0, 1.0)


@pytest.mark.parametrize("stacked", [False, True], ids=["alone", "stacked"])
def test_tolerance_not_met_at_float_width(stacked, quadrature_rounds):
    # a step inside a panel four ulps wide: the one panel is over budget and
    # cannot be bisected, so the first round raises, naming the step's row
    # beside a constant that meets its target
    step = lambda x: (x > 1.0 + 2.0**-51).astype(float)
    f = (lambda x: np.vstack((np.ones_like(x), step(x)))) if stacked else step
    with pytest.raises(ToleranceNotMet, match=r"estimate 4\.016e-16"):
        integrate(f, 1.0, 1.0 + 2.0**-50)
    assert len(quadrature_rounds) == 1


def test_invalid_limits_rejected():
    # the uncertified first round takes integrate's limits and checks
    for rule in (integrate, quad._first_round):
        with pytest.raises(ValueError):
            rule(lambda x: x, 1.0, 0.0)
        with pytest.raises(ValueError):
            rule(lambda x: x, 0.0, math.inf)
        for scale in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="scale"):
                rule(lambda x: x, 0.0, 1.0, scale=scale)


@given(
    c0=st.floats(-5.0, 5.0),
    c1=st.floats(-5.0, 5.0),
    c2=st.floats(-5.0, 5.0),
    c3=st.floats(-5.0, 5.0),
)
def test_polynomials_integrate_to_antiderivative(c0, c1, c2, c3):
    # Degree-3 polynomials are exact for the embedded Gauss rule already, so
    # this exercises bookkeeping, not adaptivity.
    val, _ = integrate(lambda x: c0 + x * (c1 + x * (c2 + x * c3)), -1.0, 2.0)
    anti = lambda x: x * (c0 + x * (c1 / 2 + x * (c2 / 3 + x * c3 / 4)))
    assert val == pytest.approx(anti(2.0) - anti(-1.0), rel=1e-12, abs=1e-12)


@given(scale=st.floats(0.1, 10.0), shift=st.floats(-2.0, 2.0))
def test_linearity_under_scaling(scale, shift):
    f = lambda x: np.exp(-((x - shift) ** 2))
    base, _ = integrate(f, -4.0, 4.0)
    scaled, _ = integrate(lambda x: scale * f(x), -4.0, 4.0)
    assert scaled == pytest.approx(scale * base, rel=1e-11)

"""Thermal kernels: series/direct agreement, identities, residual partials."""

import functools
import math
import re
import warnings
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from bcsgap import kernels, quad, verify
from bcsgap.errors import NonFiniteInput, OutsideDomain, ZeroGapAtZeroT
from bcsgap.kernels import (
    _CURV_SERIES,
    _SERIES_CUT,
    _SLOPE_SERIES,
    _poly_even,
    curvature_kernel,
    fermi,
    fermi_weight,
    gap_residual,
    gap_residual_partials,
    gap_residual_second_partials,
    sech2,
    slope_kernel,
)
from bcsgap.gap import solve_gap_at
from bcsgap.model import build_params

from . import oracles


def test_exact_values_at_zero():
    assert slope_kernel(0.0) == -2.0 / 3.0
    assert curvature_kernel(0.0) == -16.0 / 15.0


def test_kernels_match_high_precision_oracle_across_branches():
    # spans the series branch, the seam, and the direct branch
    etas = np.logspace(-8, math.log10(50.0), 60)
    for eta in etas:
        assert slope_kernel(float(eta)) == pytest.approx(
            oracles.mp_kernel_small(float(eta)), rel=1e-14
        )
        assert curvature_kernel(float(eta)) == pytest.approx(
            oracles.mp_curvature_kernel(float(eta)), rel=1e-14
        )


def test_tiny_argument_hits_series_limit():
    assert slope_kernel(1e-6) == pytest.approx(oracles.mp_kernel_small(1e-6), rel=1e-15)
    assert slope_kernel(1e-6) == pytest.approx(-2.0 / 3.0, rel=1e-11)


def test_large_argument_decay_is_slow_not_zero():
    # the slope kernel decays like 1/eta^3, so it is still ~1e-5 at eta=50
    assert abs(slope_kernel(50.0)) > 7e-6
    assert abs(curvature_kernel(50.0)) < 1e-8
    assert abs(slope_kernel(50.0)) < abs(slope_kernel(10.0)) < abs(slope_kernel(1.0))


def test_series_and_direct_branches_agree_at_the_cut():
    cut = np.asarray(_SERIES_CUT, dtype=float)
    series_g = float(_poly_even(cut, _SLOPE_SERIES))
    series_big_g = float(_poly_even(cut, _CURV_SERIES))
    assert series_g == pytest.approx(slope_kernel(_SERIES_CUT), rel=1e-14)
    assert series_big_g == pytest.approx(curvature_kernel(_SERIES_CUT), rel=1e-14)


def test_series_tables_match_bernoulli_closed_form():
    # tanh(x) has 2^n (2^n - 1) B_n / n! at x^(n-1), n even (Abramowitz and
    # Stegun 4.5.64); the slope kernel's eta^(2j) coefficient is 2(j+1) times
    # tanh's at x^(2j+3), and the curvature kernel's is -2(j+1) times the
    # slope kernel's at eta^(2j+2); each is correctly rounded from 50 digits
    with mpmath.workdps(50):
        tanh = lambda n: 2**n * (2**n - 1) * mpmath.bernoulli(n) / mpmath.factorial(n)
        slope = [float(2 * (j + 1) * tanh(2 * j + 4)) for j in range(len(_SLOPE_SERIES))]
        curv = [float(-4 * (j + 1) * (j + 2) * tanh(2 * j + 6)) for j in range(len(_CURV_SERIES))]
    assert list(_SLOPE_SERIES) == slope
    assert list(_CURV_SERIES) == curv
    assert len(_SLOPE_SERIES) == len(_CURV_SERIES) == 19


def test_kernels_negative_everywhere_sampled():
    etas = np.logspace(-6, math.log10(50.0), 200)
    assert np.all(slope_kernel(etas) < 0.0)
    assert np.all(curvature_kernel(etas) < 0.0)


def test_vectorized_matches_scalar():
    etas = np.array([0.0, 0.1, 0.5, 2.0, 50.0])
    vec = slope_kernel(etas)
    assert vec.shape == etas.shape
    for eta, v in zip(etas, vec):
        assert v == slope_kernel(float(eta))


def _branch_reference(eta, coeffs, direct):
    # one node at a time: the series below the cut, the direct formula at it and above
    x = np.array([eta])
    if eta < _SERIES_CUT:
        return float(_poly_even(x, coeffs)[0])
    with np.errstate(over="ignore"):
        return float(direct(x, np.tanh(x), sech2(x))[0])


def _direct_slope(x, th, s2):
    return (s2 - th / x) / (x * x)


def _direct_curvature(x, th, s2):
    return (3.0 * _direct_slope(x, th, s2) + 2.0 * th * s2 / x) / (x * x)


def test_kernels_on_both_branches_match_scalar_calls():
    # one array across the cut, from 0 to where x * x overflows: each node
    # is its scalar call and its own branch to the bit, and the direct
    # formula formed at every node raises no warning at 0 or past 1e154
    cut = _SERIES_CUT
    etas = np.array([0.0, 1e-300, 1e-8, 0.1, np.nextafter(cut, 0.0), cut, np.nextafter(cut, 1.0),
                     0.7, 3.0, 50.0, 1e154, 1e300])
    for func, coeffs, direct in ((slope_kernel, _SLOPE_SERIES, _direct_slope),
                                 (curvature_kernel, _CURV_SERIES, _direct_curvature)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vec = func(etas)
            scalars = [func(float(eta)) for eta in etas]
        assert vec.tobytes() == np.array(scalars).tobytes()
        reference = [_branch_reference(float(eta), coeffs, direct) for eta in etas]
        assert vec.tobytes() == np.array(reference).tobytes()
        assert vec[-1] == 0.0


def test_kernel_rows_of_every_order_agree_on_shared_kinds(default_params):
    # the slope and curvature rows are formed together at order 2; each row
    # an order shares with another is the same bits, and a curvature row
    # asked for alone is the order-2 one
    core = default_params.core
    # nodes off xi = 0, where the "mixed" row divides by eta = 0 at y = 0
    xi = np.linspace(core.xi_min, 40.0, 97)[1:]
    beta = 1.0 / (2.0 * core.k_b * np.array([0.05, 0.5, 1.0]))
    y = np.array([core.delta**2, 0.2 * core.delta**2, 0.0])
    full = dict(zip(kernels._ORDER_KERNELS[2], kernels._kernel_rows(xi, beta, y, kernels._ORDER_KERNELS[2])))
    for kinds in (*kernels._ORDER_KERNELS[:2], ("curv",), ("sech", "curv")):
        for kind, row in zip(kinds, kernels._kernel_rows(xi, beta, y, kinds)):
            assert row.tobytes() == full[kind].tobytes(), (kinds, kind)


@pytest.mark.parametrize("kinds", [("sech", "slope"), ("slope", "curv")])
def test_kernel_rows_across_the_cut_are_each_nodes_branch(kinds):
    # a pairs-by-nodes batch whose eta straddles the cut: every element of a
    # slope or curvature row is its own node's series or direct formula to
    # the bit, wherever the flat series stack put it
    cut = _SERIES_CUT
    xi = np.array([0.0, 1e-10, np.nextafter(cut, 0.0), cut, np.nextafter(cut, 1.0), 3.0, 50.0])
    beta, y = np.array([1.0, 1e-290, 1.0]), np.array([0.0, 0.0, 0.01])
    eta = beta[:, None] * np.sqrt(xi * xi + y[:, None])
    assert eta[0].tobytes() == xi.tobytes() and eta[1, 1] == pytest.approx(1e-300)
    assert (eta < cut).any(axis=1).all() and (eta >= cut).any()
    tables = {"slope": (_SLOPE_SERIES, _direct_slope), "curv": (_CURV_SERIES, _direct_curvature)}
    for kind, row in zip(kinds, kernels._kernel_rows(xi, beta, y, kinds)):
        assert row.shape == eta.shape
        if kind == "sech":
            assert row.tobytes() == sech2(eta).tobytes()
            continue
        reference = [_branch_reference(float(e), *tables[kind]) for e in eta.ravel()]
        assert row.tobytes() == np.array(reference).tobytes(), kind


@pytest.mark.parametrize("func", [slope_kernel, curvature_kernel])
def test_kernels_keep_the_callers_shape(func):
    etas = np.array([[0.1, 3.0], [_SERIES_CUT, 1e-300]])
    out = func(etas)
    assert out.shape == (2, 2)
    assert out.tobytes() == np.array([func(float(e)) for e in etas.ravel()]).tobytes()


@pytest.mark.parametrize("batch", ["partials grid", "order 2"])
def test_window_pass_blocks_depend_on_their_own_pairs_alone(default_params, batch):
    # a pair's map, edge and sums come from that pair alone, so a pass is
    # the concatenation of passes over consecutive slices of its pairs, to
    # the bit
    core = default_params.core
    if batch == "partials grid":
        n = verify._PARTIALS_GRID
        grid_t, grid_y = np.meshgrid([i / n for i in range(1, n + 1)], [core.y_max * (j / n) for j in range(n)],
                                     indexing="ij")
        ts, ys, kinds = grid_t.ravel(), grid_y.ravel(), ("sech", "slope")
    else:
        ts, ys, kinds = np.linspace(0.05, 1.0, 30), np.linspace(core.y_max, 0.0, 30), kernels._ORDER_KERNELS[2]
    whole, integrals = kernels._ungated_pass(ts, ys, core, kinds)
    per = kernels._BLOCK_ROWS // len(kinds)
    parts = [kernels._ungated_pass(ts[lo:lo + per], ys[lo:lo + per], core, kinds) for lo in range(0, ts.size, per)]
    assert len(parts) > 1
    assert integrals.tobytes() == np.hstack([p[1] for p in parts]).tobytes()
    for field in ("value", "d_t", "d_y", "d_tt", "d_ty", "d_yy"):
        value = getattr(whole, field)
        if value is None:
            assert all(getattr(p[0], field) is None for p in parts)
        else:
            assert value.tobytes() == np.hstack([getattr(p[0], field) for p in parts]).tobytes(), field


@pytest.mark.parametrize("func", [slope_kernel, curvature_kernel])
def test_kernel_argument_gates(func):
    with pytest.raises(ValueError):
        func(-0.5)
    with pytest.raises(NonFiniteInput):
        func(float("nan"))
    with pytest.raises(NonFiniteInput):
        func(float("inf"))


@given(st.floats(1e-3, 49.0))
def test_slope_derivative_identity(eta):
    # d(slope_kernel)/d(eta) = -eta * curvature_kernel(eta)
    h = min(1e-3 * max(1.0, eta), 0.25 * eta)
    fd = oracles.d1_central(slope_kernel, eta, h)
    assert fd == pytest.approx(-eta * curvature_kernel(eta), rel=1e-7)


def test_thermal_factor_helpers():
    assert sech2(0.0) == 1.0
    assert fermi(0.0) == 0.5
    assert fermi_weight(0.0) == 0.25
    # overflow-safe far into both tails
    assert fermi(800.0) == 0.0
    assert fermi(-800.0) == 1.0
    assert fermi_weight(800.0) == 0.0
    # the weight integrates to a fermi difference
    integral = oracles.simpson(fermi_weight, 1.0, 3.0, n=20_000)
    assert integral == pytest.approx(fermi(1.0) - fermi(3.0), rel=1e-10)


def test_residual_anchors(default_params):
    p = default_params
    assert abs(gap_residual(0.0, p.delta**2, p)) < 1e-10
    assert abs(gap_residual(p.t_c, 0.0, p)) < 1e-10


def test_residual_matches_simpson_oracle(default_params):
    p = default_params
    t, y = 0.5 * p.t_c, 0.99 * p.y_max
    kt2 = 2.0 * p.k_b * t

    def integrand(xi):
        root = np.sqrt(xi * xi + y)
        return np.tanh(root / kt2) / root

    expected = oracles.simpson(integrand, 0.0, 1.0, n=200_000) - 1.0 / 0.3
    value = gap_residual(t, y, p)
    assert value < 0.0  # above the solution curve the residual is negative
    assert value == pytest.approx(expected, rel=1e-9)


def test_residual_gates(default_params):
    p = default_params
    with pytest.raises(ZeroGapAtZeroT):
        gap_residual(0.0, 0.0, p)
    with pytest.raises(OutsideDomain):
        gap_residual(2.0 * p.t_c, 0.5 * p.y_max, p)
    with pytest.raises(OutsideDomain):
        gap_residual(0.5 * p.t_c, -1e-9, p)
    with pytest.raises(NonFiniteInput):
        gap_residual(float("nan"), 0.5 * p.y_max, p)


def test_first_partials_match_finite_differences(default_params):
    p = default_params
    t, y = 0.9 * p.t_c, 0.1 * p.y_max
    part = gap_residual_partials(t, y, p)
    assert part.value == pytest.approx(gap_residual(t, y, p), rel=1e-12)
    fd_t = oracles.d1_central(lambda s: gap_residual(s, y, p), t, 1e-4 * p.t_c)
    fd_y = oracles.d1_central(lambda v: gap_residual(t, v, p), y, 1e-4 * p.y_max)
    assert part.d_t == pytest.approx(fd_t, rel=1e-6)
    assert part.d_y == pytest.approx(fd_y, rel=1e-6)
    assert part.d_t < 0.0 and part.d_y < 0.0


def test_partials_at_zero_temperature(default_params):
    p = default_params
    y = 0.5 * p.y_max
    part = gap_residual_partials(0.0, y, p)
    assert part.d_t == 0.0  # thermal factor is flat at zero temperature
    fd_y = oracles.d1_central(lambda v: gap_residual(0.0, v, p), y, 1e-5 * p.y_max)
    assert part.d_y == pytest.approx(fd_y, rel=1e-8)


def test_zero_temperature_edge_at_a_vanishing_gap(default_params):
    # the closed forms are ratio-first, so y * sqrt(y) underflowing to 0
    # leaves no zero divisor; where d_y itself leaves float range the call
    # raises a typed error
    p = default_params
    kt = p.k_b * p.t_c
    y = 1e-300 * kt * kt
    big = p.hbar_omega_d
    e_big = math.hypot(big, math.sqrt(y))
    value = math.log((big + e_big) / math.sqrt(y)) - 1.0 / p.u0n0
    assert gap_residual(0.0, y, p) == pytest.approx(value, rel=1e-14, abs=0.0)
    part = gap_residual_partials(0.0, y, p)
    assert part.value == pytest.approx(value, rel=1e-14, abs=0.0)
    assert part.d_y == pytest.approx(-big / (2.0 * y * e_big), rel=1e-14, abs=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OutsideDomain):
            gap_residual_partials(0.0, 1e-320 * kt * kt, p)


@pytest.mark.parametrize("u0n0", [0.3, 0.01])
@pytest.mark.parametrize("ratio", [1e-10, 1e-30, 1e-60])
def test_zero_gap_far_below_tc_is_the_bcs_logarithm(u0n0, ratio):
    # at y = 0 the kernels' structure sits at xi ~ k_b t, decades below the
    # gap; the window is mapped on pi k_b t there, so the rows converge:
    # F = ln(L / 2 k_b t) + ln(4 e^gamma / pi) - 1/u0n0 and t d_t = -1
    p = build_params(u0n0=u0n0)
    t = ratio * p.t_c
    part = gap_residual_partials(t, 0.0, p)
    log_bcs = math.log(4.0 / math.pi) + 0.57721566490153286061
    value = math.log(p.hbar_omega_d / (2.0 * p.k_b * t)) + log_bcs - 1.0 / u0n0
    assert part.value == pytest.approx(value, rel=1e-13, abs=0.0)
    assert t * part.d_t == pytest.approx(-1.0, rel=1e-13, abs=0.0)


def test_clamp_to_the_coldest_temperature_only_where_exact(default_params):
    # below _COLDEST t_c a pair is evaluated at _COLDEST t_c; with a gap far
    # below k_b _COLDEST t_c the thermal parts there are not negligible, and
    # the pair is refused, not answered at the wrong temperature
    p = default_params
    kt = p.k_b * p.t_c
    t = 1e-100 * p.t_c
    for y in (0.0, 1e-200 * kt * kt):
        with pytest.raises(OutsideDomain):
            gap_residual(t, y, p)
    y = 0.5 * p.y_max
    assert gap_residual(t, y, p) == gap_residual(kernels._COLDEST * p.t_c, y, p)


def test_cold_pair_refusal_names_the_callers_units():
    # the refusal names the (t, y) the caller passed, not its core value
    # (t / t_c, y / (k_b t_c)^2), and its thresholds in the caller's units,
    # at a k_b and t_c far from 1
    p = build_params(hbar_omega_d=2.0, k_b=3.0)
    t, y = 1e-100 * p.t_c, 1e-200 * p.y_max
    coldest = kernels._COLDEST * p.t_c
    edge = kernels._EDGE * kernels._COLDEST * p.k_b * p.t_c
    message = (
        f"(t, y) = ({t!r}, {y!r}): below {coldest!r} the residual is evaluated at {coldest!r}, "
        f"exact only where sqrt(xi_min^2 + y) >= {edge!r}"
    )
    for entry in (gap_residual, gap_residual_partials, gap_residual_second_partials):
        with pytest.raises(OutsideDomain, match=re.escape(message)):
            entry(t, y, p)


def test_partials_allowed_on_transition_edge(default_params):
    p = default_params
    part = gap_residual_partials(p.t_c, 0.5 * p.y_max, p)
    assert part.d_t < 0.0 and part.d_y < 0.0


def test_second_partials_match_finite_differences(default_params):
    p = default_params
    t, y = 0.5 * p.t_c, 0.5 * p.y_max
    second = gap_residual_second_partials(t, y, p)
    h_t, h_y = 1e-4 * p.t_c, 1e-4 * p.y_max
    fd_tt = oracles.d1_central(lambda s: gap_residual_partials(s, y, p).d_t, t, h_t)
    fd_ty = oracles.d1_central(lambda v: gap_residual_partials(t, v, p).d_t, y, h_y)
    fd_yt = oracles.d1_central(lambda s: gap_residual_partials(s, y, p).d_y, t, h_t)
    fd_yy = oracles.d1_central(lambda v: gap_residual_partials(t, v, p).d_y, y, h_y)
    assert second.d_tt == pytest.approx(fd_tt, rel=1e-5)
    assert second.d_ty == pytest.approx(fd_ty, rel=1e-5)
    assert second.d_ty == pytest.approx(fd_yt, rel=1e-5)  # mixed-partial symmetry
    assert second.d_yy == pytest.approx(fd_yy, rel=1e-5)


def test_second_partials_near_transition_corner(default_params):
    # small gap close to t_c stresses the small-argument series branch
    p = default_params
    t, y = 0.99 * p.t_c, 1e-4 * p.y_max
    second = gap_residual_second_partials(t, y, p)
    h_t, h_y = 1e-5 * p.t_c, 1e-3 * y
    fd_ty = oracles.d1_central(lambda v: gap_residual_partials(t, v, p).d_t, y, h_y)
    fd_tt = oracles.d1_central(lambda s: gap_residual_partials(s, y, p).d_t, t, h_t)
    assert second.d_ty == pytest.approx(fd_ty, rel=1e-4)
    assert second.d_tt == pytest.approx(fd_tt, rel=1e-4)


def test_second_partials_rejected_on_boundaries(default_params):
    # one gate at every order: the closed box without the zero-temperature
    # edge; that edge, the (0, 0) corner and everything outside or
    # non-finite is refused as at orders 0 and 1, where the edge itself
    # takes the closed forms instead
    p = default_params
    t_c, y_max = p.t_c, p.y_max
    mid_t, mid_y = 0.5 * t_c, 0.5 * y_max
    refused = [
        *(((0.0, y), OutsideDomain) for y in (mid_y, y_max)),
        ((0.0, 0.0), ZeroGapAtZeroT),
        *(((t, y), OutsideDomain) for t, y in [(-t_c, mid_y), (2.0 * t_c, mid_y), (mid_t, -1.0)]),
        *(((t, y), NonFiniteInput) for t, y in [
            (math.nan, mid_y), (mid_t, math.nan), (math.inf, mid_y), (-math.inf, mid_y),
            (mid_t, math.inf), (mid_t, -math.inf),
        ]),
    ]
    for (t, y), error in refused:
        for entry in (gap_residual, gap_residual_partials, gap_residual_second_partials):
            if t == 0.0 and y > 0.0 and entry is not gap_residual_second_partials:
                continue
            with pytest.raises(error):
                entry(t, y, p)
    assert gap_residual_second_partials(mid_t, mid_y, p).d_yy > 0.0
    # on the zero-temperature edge (xi_min = 0 here) the residual is
    # asinh(L / sqrt(y)) - 1 / u0n0, and d_y minus half the integral of
    # (xi^2 + y)^(-3/2), L / (y sqrt(L^2 + y))
    L = p.hbar_omega_d
    for y in (mid_y, y_max):
        first = gap_residual_partials(0.0, y, p)
        assert first.value == gap_residual(0.0, y, p)
        assert first.value == pytest.approx(math.asinh(L / math.sqrt(y)) - 1.0 / p.u0n0, rel=1e-14)
        assert first.d_t == 0.0
        assert first.d_y == pytest.approx(-0.5 * L / (y * math.sqrt(L * L + y)), rel=1e-14)


def test_ungated_core_is_window_pass_at_order_0(default_params):
    # the Newton iteration steps through the ungated window pass, and the
    # scalar entries, past their one gate, evaluate through it too: their
    # value and d_y are its rows to the bit, at y = 0, next to t_c and at
    # _COLDEST (the refusals of the gate are
    # test_second_partials_rejected_on_boundaries)
    core = default_params.core
    ts = [kernels._COLDEST, 0.01, 0.5, 0.5, float(np.nextafter(1.0, 0.0)), 1.0]
    ys = [core.delta**2, 0.3 * core.y_max, 0.0, core.y_max, 0.0, 0.0]
    for t, y in zip(ts, ys):
        ungated, _ = kernels._ungated_pass(np.array([t]), np.array([y]), core, ("value", "slope"))
        assert kernels.residual_and_slope(t, y, core) == (ungated.value[0], ungated.d_y[0])


@pytest.mark.parametrize("order", [0, 1, 2])
def test_window_pass_takes_no_pairs(default_params, order):
    # no pairs make no quadrature and empty fields of the order's shape
    p, integrals = kernels._ungated_pass(np.empty(0), np.empty(0), default_params.core, kernels._ORDER_KERNELS[order])
    assert integrals.shape == (len(kernels._ORDER_KERNELS[order]), 0)
    fields = [p.value, p.d_t, p.d_y, p.d_tt, p.d_ty, p.d_yy]
    assert [f is None for f in fields] == [False, order < 1, False] + [order < 2] * 3
    assert all(f.shape == (0,) for f in fields if f is not None)


_ROUND_CELLS = [(u0n0, eps) for u0n0 in (0.3, 0.1, 0.003) for eps in (0.0, 1e-3)]


@functools.cache
def _round_core(u0n0, eps):
    return build_params(u0n0=u0n0, eps=eps).core


@given(
    cell=st.sampled_from(_ROUND_CELLS),
    order=st.integers(0, 2),
    pairs=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), min_size=1, max_size=24),
)
def test_first_round_is_the_certified_value_wherever_one_round_is_accepted(cell, order, pairs):
    # a block of (t, y) pairs, t from _COLDEST to t_c and y up to the seed
    # f(0) of the Newton steps: wherever the certified quadrature accepts its
    # first round, the uncertified round is the same rows to the bit
    core = _round_core(*cell)
    kinds = kernels._ORDER_KERNELS[order]
    pairs = pairs[: kernels._BLOCK_ROWS // len(kinds)]
    ts = np.array([max(t, kernels._COLDEST) for t, _ in pairs])
    ys = np.array([r * core.delta**2 for _, r in pairs])
    rounds = []
    real = quad._kronrod

    def counting(*args):
        rounds.append(1)
        return real(*args)

    with mock.patch.object(quad, "_kronrod", counting):
        certified = kernels._ungated_pass(ts, ys, core, kinds)[1]
    assume(len(rounds) == 1)
    assert kernels._ungated_pass(ts, ys, core, kinds, certified=False)[1].tobytes() == certified.tobytes()


_INVARIANCE_CELLS = [(0.3, 0.0), (0.003, 0.0), (0.3, 1e-3)]


@functools.cache
def _box_batch(u0n0, eps):
    """(t, y) pairs over the closed box: t from _COLDEST to t_c, y from 0 to y_max, (t_c, 0) among them."""
    core = _round_core(u0n0, eps)
    pairs = [(t, r * core.y_max) for t in (kernels._COLDEST, 0.02, 0.1, 0.3, 0.6, 0.9, 0.999, 1.0)
             for r in (0.25, 0.5, 1.0)]
    pairs += [(t, 0.0) for t in (0.3, 0.6, 1.0)]
    return np.array(pairs).T


@given(
    cell=st.sampled_from(_INVARIANCE_CELLS),
    order=st.integers(0, 2),
    certified=st.booleans(),
    data=st.data(),
)
def test_a_pair_integrates_alike_in_any_batch(cell, order, certified, data):
    # each pair is mapped on its own rung and shares a call only with pairs
    # on that rung, so wherever no call refines, any subset of a batch in
    # any order gives every pair its lone pass's integrals and fields, to
    # the bit, certified or on the first round alone
    core = _round_core(*cell)
    ts, ys = _box_batch(*cell)
    picks = data.draw(st.lists(st.integers(0, ts.size - 1), min_size=1, max_size=ts.size, unique=True))
    kinds = kernels._ORDER_KERNELS[order]
    batch, integrals = kernels._ungated_pass(ts[picks], ys[picks], core, kinds, certified)
    for j, i in enumerate(picks):
        lone, lone_integrals = kernels._ungated_pass(ts[i:i + 1], ys[i:i + 1], core, kinds, certified)
        assert integrals[:, j].tobytes() == lone_integrals[:, 0].tobytes(), (ts[i], ys[i])
        for field in ("value", "d_t", "d_y", "d_tt", "d_ty", "d_yy"):
            if getattr(lone, field) is not None:
                assert getattr(batch, field)[j:j + 1].tobytes() == getattr(lone, field).tobytes(), field


@pytest.mark.parametrize("where", ["t_c", "y=0", "y_max", "t_c,y=0", "t_c,y_max"])
def test_second_partials_on_edges_match_finite_differences(default_params, where):
    # the t_c, y = 0 and y = y_max edges: one-sided differences of the first
    # partials, into the box, wherever a central stencil would leave it
    p = default_params
    t = p.t_c if "t_c" in where else 0.5 * p.t_c
    y = 0.0 if "y=0" in where else p.y_max if "y_max" in where else 0.5 * p.y_max
    side_t = -1.0 if "t_c" in where else 0.0
    side_y = 1.0 if "y=0" in where else -1.0 if "y_max" in where else 0.0

    def d1(f, x, h, side):
        return oracles.d1_onesided(f, x, side * h) if side else oracles.d1_central(f, x, h)

    second = gap_residual_second_partials(t, y, p)
    h_t, h_y = 1e-4 * p.t_c, 1e-4 * p.y_max
    fd_tt = d1(lambda s: gap_residual_partials(s, y, p).d_t, t, h_t, side_t)
    fd_ty = d1(lambda v: gap_residual_partials(t, v, p).d_t, y, h_y, side_y)
    fd_yt = d1(lambda s: gap_residual_partials(s, y, p).d_y, t, h_t, side_t)
    fd_yy = d1(lambda v: gap_residual_partials(t, v, p).d_y, y, h_y, side_y)
    assert second.d_tt == pytest.approx(fd_tt, rel=1e-5)
    assert second.d_ty == pytest.approx(fd_ty, rel=1e-5)
    assert second.d_ty == pytest.approx(fd_yt, rel=1e-5)
    assert second.d_yy == pytest.approx(fd_yy, rel=1e-5)


@pytest.mark.parametrize("u0n0", [0.3, 0.1, 0.06])
def test_lone_sech_row_at_tc(u0n0):
    # int_0^L sech^2(xi / (2 k_b t_c)) dxi = 2 k_b t_c tanh(L / (2 k_b t_c)); at
    # weak coupling k_b t_c is 1e-4 to 1e-7 of L, and a row integrated on its
    # own must still find that peak
    p = build_params(u0n0=u0n0)
    two_kt = 2.0 * p.k_b * p.t_c
    (got,), = kernels._ungated_pass(np.array([p.t_c]), np.array([0.0]), p, ("sech",))[1]
    assert got == pytest.approx(two_kt * math.tanh(p.hbar_omega_d / two_kt), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("ratio", [0.005, 0.01, 0.02, 0.04, 0.08, 0.12])
def test_cold_thermal_rows_match_oracle(default_params, ratio, integrate_calls):
    # at the solved gap the rows are ~1e-7 to 1e-158: tiny, but they set f'
    # and f'' there and must keep their relative accuracy, on the first round
    # of a map on their own Gaussian width
    p = default_params
    t = ratio * p.t_c
    y = solve_gap_at(t, p).f
    kinds = ("sech", "eta_tanh", "mixed")
    integrate_calls.clear()
    got = kernels._ungated_pass(np.array([t]), np.array([y]), p, kinds)[1][:, 0]
    assert integrate_calls == [1]
    for kind, val in zip(kinds, got):
        ref = oracles.mp_window_integral(kind, t, y, p.k_b, p.xi_min, p.hbar_omega_d)
        assert val == pytest.approx(ref, rel=1e-10, abs=0.0)

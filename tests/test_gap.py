"""Transition temperature, gap solves, implicit derivatives, curve sampling."""

import dataclasses
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

from bcsgap import gap, kernels
from bcsgap.errors import (
    NonFiniteInput,
    NonFiniteIntegrand,
    NonPositiveParameter,
    NotSolved,
    OutsideDomain,
    ToleranceNotMet,
)
from bcsgap.gap import (
    RESIDUAL_TOL,
    gap_derivatives_at,
    sample_gap_curve,
    solve_gap_at,
    solve_tc,
)
from bcsgap.kernels import gap_residual, gap_residual_partials
from bcsgap.model import build_params
from bcsgap.thermo import condensation_potential, thermodynamic_potential
from bcsgap.verify import run_suite

from . import oracles

# endpoint slope and curvature of the squared-gap curve for the default
# parameter set, frozen from a 30-digit mpmath evaluation of the closed forms
_FPRIME_TC = -0.38102215824271777
_FSECOND_TC = -15.475755612957753


@pytest.mark.parametrize(
    "kwargs",
    [
        {"u0n0": 0.3, "hbar_omega_d": 1.0, "k_b": 1.0},
        {"u0n0": 0.5, "hbar_omega_d": 2.0, "k_b": 0.7, "eps": 0.1},
        {"u0n0": 0.2, "hbar_omega_d": 1.0, "k_b": 1.0, "eps": 0.4},
        {"u0n0": 5.0, "hbar_omega_d": 1.0, "k_b": 1.0},
        {"u0n0": 0.08, "hbar_omega_d": 1.0, "k_b": 1.0, "eps": 1e-3},
    ],
)
def test_solve_tc_matches_bisection_oracle(kwargs):
    t_c = solve_tc(**kwargs)
    oracle = oracles.mp_tc(
        kwargs["u0n0"], kwargs["hbar_omega_d"], kwargs["k_b"], kwargs.get("eps", 0.0)
    )
    assert t_c == pytest.approx(oracle, rel=1e-10)


def test_solve_tc_validation():
    with pytest.raises(NonPositiveParameter):
        solve_tc(-0.3, 1.0, 1.0)
    with pytest.raises(NonFiniteInput):
        solve_tc(float("nan"), 1.0, 1.0)
    with pytest.raises(NonPositiveParameter, match="eps must be >= 0"):
        solve_tc(0.3, 1.0, 1.0, eps=-1.0)


@pytest.mark.parametrize("name", ["u0n0", "hbar_omega_d", "k_b", "eps"])
def test_solve_tc_accepts_numpy_scalars(name):
    # the same float conversion as build_params, so both find the same t_c
    kwargs = {"u0n0": 0.3, "hbar_omega_d": 1.0, "k_b": 1.0, "eps": 1e-3}
    kwargs[name] = np.float32(kwargs[name])
    assert solve_tc(**kwargs) == build_params(**kwargs).t_c
    for bad in (math.nan, math.inf, -math.inf, np.float32("nan"), "0.3", None):
        with pytest.raises(NonFiniteInput):
            solve_tc(**{**kwargs, name: bad})


@pytest.mark.parametrize("u0n0", [100.0, 1000.0])
def test_solve_tc_meets_relative_defect_at_strong_coupling(u0n0):
    # the defect is stated relative to 1/u0n0, so an absolute stop lets it
    # grow with u0n0 (verify's tc_definition_residual read 1.03e-12 at 100)
    p = build_params(u0n0=u0n0)
    assert abs(oracles.tc_defect(p.u0n0, p.hbar_omega_d, p.k_b, p.eps, p.t_c)) <= 1e-12


def test_closed_form_gaps(default_params, eps_params):
    # the uncut and the cutoff zero-temperature gaps coincide exactly at
    # eps = 0, and the cutoff one is strictly smaller otherwise
    p = default_params
    assert p.delta0 == p.hbar_omega_d / math.sinh(1.0 / p.u0n0)
    assert p.delta == p.delta0
    assert solve_gap_at(0.0, p).f == p.delta**2
    assert 0.0 < eps_params.delta < eps_params.delta0


def test_endpoints_are_exact(default_params):
    p = default_params
    at_zero = solve_gap_at(0.0, p)
    assert at_zero.f == p.delta**2
    assert at_zero.residual < 1e-10
    at_tc = solve_gap_at(p.t_c, p)
    assert at_tc.f == 0.0
    assert at_tc.residual < 1e-10


def test_interior_solution_matches_independent_root(default_params):
    # oracle: Simpson-rule residual rooted with Brent's method, so neither
    # the quadrature nor the root finder is shared with the implementation
    p = default_params
    t = 0.5 * p.t_c
    kt2 = 2.0 * p.k_b * t

    def residual(y):
        def integrand(xi):
            root = np.sqrt(xi * xi + y)
            return np.tanh(root / kt2) / root

        return oracles.simpson(integrand, 0.0, 1.0, n=50_000) - 1.0 / 0.3

    oracle_root = brentq(residual, 1e-12, 0.999 * p.y_max, xtol=1e-16, rtol=1e-14)
    solved = solve_gap_at(t, p)
    assert solved.f == pytest.approx(oracle_root, rel=1e-8)
    assert solved.residual < 1e-10


def test_unique_sign_change(default_params):
    p = default_params
    t = 0.5 * p.t_c
    ys = np.linspace(1e-9 * p.y_max, 0.999 * p.y_max, 400)
    signs = np.sign([gap_residual(t, float(y), p) for y in ys])
    assert np.sum(np.abs(np.diff(signs)) > 0) == 1


@pytest.mark.parametrize("hint_ratio", [1e-6, 0.5, 1.05, 1.9])
def test_hint_does_not_change_the_answer(default_params, hint_ratio):
    # Newton seeds on both sides of the root
    p = default_params
    t = 0.37 * p.t_c
    plain = solve_gap_at(t, p)
    (seeded,) = gap._newton(np.array([t]), np.array([plain.f * hint_ratio]), p)
    assert abs(seeded - plain.f) <= 1e-13 * p.y_max


def test_solve_gap_gates(default_params):
    p = default_params
    with pytest.raises(OutsideDomain):
        solve_gap_at(-0.1 * p.t_c, p)
    with pytest.raises(OutsideDomain):
        solve_gap_at(1.5 * p.t_c, p)
    with pytest.raises(NonFiniteInput):
        solve_gap_at(float("nan"), p)


def test_no_root_on_inconsistent_params_names_the_temperature(default_params):
    # doctored transition temperature: above the true one the residual at
    # y = 0 is already negative, so Newton stops at y = 0 and the residual
    # gate rejects the point, naming where
    doctored = dataclasses.replace(default_params, t_c=1.5 * default_params.t_c)
    t = 1.2 * default_params.t_c
    with pytest.raises(NotSolved, match=re.escape(f"at t = {t!r} ")):
        solve_gap_at(t, doctored)


@pytest.mark.parametrize("u0n0", [0.3, 0.1])
def test_one_ulp_below_tc_is_the_closed_gap(u0n0):
    # one ulp below t_c the gap has nearly closed: f = -f'(t_c) * ulp(t_c)
    # to first order.  A residual-based solve resolves f only to one
    # rounding step of the residual, ulp(1/u0n0), over |dF/dy|; F(t, 0) may
    # round to <= 0 there, and the clamped Newton step then stops at y = 0
    p = build_params(u0n0=u0n0)
    t = np.nextafter(p.t_c, 0.0)
    point = solve_gap_at(t, p)
    expected = -solve_gap_at(p.t_c, p).f_prime * (p.t_c - t)
    resolution = np.spacing(1.0 / u0n0) / abs(gap_residual_partials(p.t_c, 0.0, p).d_y)
    assert point.f >= 0.0
    assert abs(point.f - expected) <= resolution
    assert point.residual <= gap.RESIDUAL_TOL


def test_derivatives_require_a_solved_point(default_params):
    p = default_params
    point = solve_gap_at(0.4 * p.t_c, p)
    with pytest.raises(NotSolved):
        gap_derivatives_at(0.5 * p.t_c, p, point)  # wrong temperature
    fat = dataclasses.replace(point, residual=1.0)
    with pytest.raises(NotSolved):
        gap_derivatives_at(point.t, p, fat)  # residual too large


def test_derivatives_vanish_at_zero_temperature(default_params):
    p = default_params
    point = solve_gap_at(0.0, p)
    assert gap_derivatives_at(0.0, p, point) == (0.0, 0.0)


@pytest.mark.parametrize("kwargs", [{}, {"eps": 1e-3}, {"u0n0": 0.0035}])
def test_zero_temperature_is_solved_like_every_cold_node(kwargs):
    # t = 0 is one row of the solved-point path, evaluated at the coldest
    # temperature the kernels take, where every thermal factor has underflowed
    p = build_params(**kwargs)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        point = solve_gap_at(0.0, p)
    assert point.f == p.delta**2
    for derivative in (point.f_prime, point.f_second):
        assert derivative == 0.0 and math.copysign(1.0, derivative) == 1.0
    assert point.residual <= RESIDUAL_TOL


@pytest.mark.parametrize("u0n0", [0.0035, 0.003])
def test_weak_coupling_cold_solves_raise_no_warnings(u0n0):
    # past eta ~ 1e154 the kernels' x * x overflows; the kernels' limit, -0,
    # is right, and no numpy warning reaches the caller
    p = build_params(u0n0=u0n0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        solve_gap_at(1e-60 * p.t_c, p)
        curve = sample_gap_curve(p, 9)
    assert curve.points[0].f == p.delta**2


def _universal_gap_at_half_tc(p):
    """f, f' t_c and f'' t_c^2 at 0.5 t_c over the squared zero-temperature gap, all in core units."""
    point = solve_gap_at(0.5 * p.t_c, p)
    d2 = p.core.delta**2
    core = (point.f / p.scales[0], point.f_prime / p.scales[1], point.f_second / p.scales[2])
    return np.array(core) / d2


@pytest.mark.parametrize("kwargs", [
    {"u0n0": 0.01}, {"u0n0": 0.003}, {"u0n0": 1.0 / 354.5, "hbar_omega_d": 1e150, "mu": 1e151},
])
def test_weak_coupling_gap_is_universal_to_the_domain_edge(kwargs):
    # weak-coupling BCS: in units of t_c and Delta the curve is one function,
    # up to corrections in (k_b t_c / hbar_omega_d)^2; the closed-form tails
    # past the thermal edge neither overflow nor warn with the window edge
    # near 1e154 k_b t_c
    reference = _universal_gap_at_half_tc(build_params(u0n0=0.03))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _universal_gap_at_half_tc(build_params(**kwargs))
    assert got == pytest.approx(reference, rel=1e-12, abs=0.0)


def test_curve_work_does_not_grow_with_the_window(quadrature_rounds):
    # past the thermal edge every kernel is its asymptote, integrated in
    # closed form, so a wider window in units of k_b t_c adds no nodes
    nodes = {}
    for u0n0 in (0.3, 0.1, 0.003):
        p = build_params(u0n0=u0n0)
        quadrature_rounds.clear()
        sample_gap_curve(p, 201)
        nodes[u0n0] = sum(quadrature_rounds)
    assert max(nodes[0.1], nodes[0.003]) <= 2 * nodes[0.3]


def test_thermo_and_tc_work_does_not_grow_with_the_window(quadrature_rounds, cold_caches):
    # thermo's window rows and the transition-temperature condition end at
    # the kernels' thermal edge too, so once the window reaches past it a
    # wider one adds no nodes anywhere; each call is counted from cold
    # caches, as a warm one makes the t_c condition's quadrature once
    def nodes(call):
        cold_caches()
        quadrature_rounds.clear()
        call()
        return sum(quadrature_rounds)

    counts = {}
    for u0n0 in (0.03, 0.01, 0.003):
        p = build_params(u0n0=u0n0)
        cold = 0.5 * p.t_c
        gap_point = solve_gap_at(cold, p)
        counts[u0n0] = {
            "build_params": nodes(lambda: build_params(u0n0=u0n0)),
            "thermo 0.5 t_c": nodes(lambda: thermodynamic_potential(cold, p)),
            "thermo 1.5 t_c": nodes(lambda: thermodynamic_potential(1.5 * p.t_c, p)),
            "condensation": nodes(lambda: condensation_potential(cold, p, gap_point)),
            "run_suite": nodes(lambda: run_suite(p, 21)),
        }
    assert counts[0.01] == counts[0.03] and counts[0.003] == counts[0.03], counts


def test_endpoint_derivatives_match_frozen_closed_forms(default_params):
    p = default_params
    point = solve_gap_at(p.t_c, p)
    f_prime, f_second = gap_derivatives_at(p.t_c, p, point)
    assert f_prime == pytest.approx(_FPRIME_TC, rel=1e-12)
    assert f_second == pytest.approx(_FSECOND_TC, rel=1e-12)
    assert f_prime < 0.0


@pytest.mark.parametrize("eps", [0.0, 1e-3])
@pytest.mark.parametrize("u0n0", [0.3, 0.1, 0.06])
def test_endpoint_derivatives_match_mpmath_quotients(u0n0, eps):
    # at (t_c, 0) the implicit-function quotients -d_t / d_y and
    # -(d_tt + (2 d_ty + d_yy f') f') / d_y expand, with s = 2 k_b t_c and
    # d_t = -I_sech / (2 k_b t_c^2), d_y = I_slope / (2 s^3),
    # d_tt = (I_sech - I_eta_tanh) / (k_b t_c^3), d_ty = I_mixed / (s^3 t_c),
    # d_yy = -I_curv / (4 s^5), into these quotients of window integrals,
    # here taken from mpmath
    p = build_params(u0n0=u0n0, eps=eps)
    kb2, t_c = p.k_b**2, p.t_c
    kinds = ("sech", "slope", "eta_tanh", "mixed", "curv")
    i_sech, i_slope, i_eta_tanh, i_mixed, i_curv = (
        oracles.mp_window_integral(kind, t_c, 0.0, p.k_b, p.xi_min, p.hbar_omega_d, dps=30)
        for kind in kinds
    )
    f_prime = 8.0 * kb2 * t_c * i_sech / i_slope
    f_second = (
        16.0 * kb2 * (i_eta_tanh - i_sech) / i_slope
        - 32.0 * kb2 * i_sech * i_mixed / i_slope**2
        + 8.0 * kb2 * i_sech**2 * i_curv / i_slope**3
    )
    point = solve_gap_at(t_c, p)
    assert point.f == 0.0
    assert point.f_prime == pytest.approx(f_prime, rel=1e-10, abs=0.0)
    assert point.f_second == pytest.approx(f_second, rel=1e-10, abs=0.0)


def test_endpoint_point_is_one_quadrature_call(default_params, integrate_calls):
    # f(t_c) = 0 needs no Newton step: one second-order window pass gives
    # the residual, f' and f'', and gap_derivatives_at reads them off the
    # point
    p = default_params
    gap_derivatives_at(p.t_c, p, solve_gap_at(p.t_c, p))
    assert len(integrate_calls) == 1


def test_interior_first_derivative_matches_solver_differences(default_params):
    p = default_params
    t = 0.6 * p.t_c
    point = solve_gap_at(t, p)
    f_prime, _ = gap_derivatives_at(t, p, point)
    fd = oracles.d1_central(lambda s: solve_gap_at(s, p).f, t, 1e-4 * p.t_c)
    assert f_prime == pytest.approx(fd, rel=1e-7)


def test_interior_second_derivative_matches_solver_differences(default_params):
    p = default_params
    t = 0.6 * p.t_c
    point = solve_gap_at(t, p)
    _, f_second = gap_derivatives_at(t, p, point)
    fd = oracles.d2_central(lambda s: solve_gap_at(s, p).f, t, 2e-4 * p.t_c)
    assert f_second == pytest.approx(fd, rel=1e-4)

    def first(s):
        pt = solve_gap_at(s, p)
        return gap_derivatives_at(s, p, pt)[0]

    fd_of_analytic = oracles.d1_central(first, t, 1e-4 * p.t_c)
    assert f_second == pytest.approx(fd_of_analytic, rel=1e-8)


def test_two_point_curve_is_just_the_endpoints(default_params):
    curve = sample_gap_curve(default_params, 2)
    assert [pt.t for pt in curve.points] == [0.0, default_params.t_c]
    assert curve.points[0].f == default_params.delta**2
    assert curve.points[-1].f == 0.0


def test_curve_statistics(default_params):
    p = default_params
    curve = sample_gap_curve(p, 101)
    fs = np.array([pt.f for pt in curve.points])
    ts = np.array([pt.t for pt in curve.points])
    assert len(curve.points) == 101
    assert np.all(np.diff(ts) > 0.0)
    assert np.all(np.diff(fs) <= 1e-10 * fs[0])  # non-increasing up to float noise
    resolvable = ts[:-1] >= 0.3 * p.t_c
    assert np.all(np.diff(fs)[resolvable] < 0.0)
    assert max(pt.residual for pt in curve.points) < 1e-10
    for pt in curve.points:
        assert pt.f_prime is not None and pt.f_second is not None
        assert pt.f_prime <= 0.0


def test_chebyshev_grid(default_params):
    p = default_params
    curve = sample_gap_curve(p, 33, grid="chebyshev")
    ts = np.array([pt.t for pt in curve.points])
    assert ts[0] == 0.0 and ts[-1] == p.t_c
    assert np.all(np.diff(ts) > 0.0)
    # clustered near both endpoints: edge steps much smaller than the middle
    steps = np.diff(ts)
    assert steps[0] < 0.2 * steps.max()
    assert steps[-1] < 0.2 * steps.max()


def test_curve_grid_validation(default_params):
    for bad in (1, 2.5, np.float64(5.0), "5", None, np.int64(1)):
        with pytest.raises(ValueError):
            sample_gap_curve(default_params, bad)
    with pytest.raises(ValueError):
        sample_gap_curve(default_params, 11, grid="log")
    # integral numpy counts are counts
    assert len(sample_gap_curve(default_params, np.int64(5)).points) == 5


@pytest.mark.parametrize("grid", ["uniform", "chebyshev"])
@pytest.mark.parametrize("eps", [0.0, 1e-3], ids=["eps=0", "eps=1e-3"])
def test_batched_curve_matches_scalar_path(grid, eps):
    p = build_params(eps=eps)
    curve = sample_gap_curve(p, 201, grid=grid)
    f0 = curve.points[0].f
    for pt in curve.points:
        alone = solve_gap_at(pt.t, p)
        f_prime, f_second = gap_derivatives_at(pt.t, p, alone)
        assert abs(alone.f - pt.f) <= 1e-14 * f0, pt.t
        # no absolute floor: f' is ~1e-150 at the coldest nodes
        assert pt.f_prime == pytest.approx(f_prime, rel=1e-9, abs=0.0), pt.t
        assert pt.f_second == pytest.approx(f_second, rel=1e-9, abs=0.0), pt.t


def test_curve_is_covariant_at_small_energy_scales(default_params):
    # scaling hbar_omega_d and mu by 2^-200 scales t by 2^-200, f by 2^-400
    # and f' by 2^-200, and leaves f'' and the residual unchanged; d_y**3
    # would overflow here, so f'' divides by d_y once
    s = 2.0**-200
    p = build_params(hbar_omega_d=s, mu=10.0 * s)
    for ref, pt in zip(sample_gap_curve(default_params, 5).points, sample_gap_curve(p, 5).points):
        assert (pt.t, pt.f, pt.f_prime) == (ref.t * s, ref.f * s * s, ref.f_prime * s)
        assert (pt.f_second, pt.residual) == (ref.f_second, ref.residual)


def test_curve_is_solved_in_few_quadrature_calls(default_params, integrate_calls):
    # one batched Newton on uncertified first rounds and one certified
    # second-order pass, not one solve per node
    sample_gap_curve(default_params, 201)
    assert len(integrate_calls) <= 26


def _first_rounds(monkeypatch):
    """A list that gains one entry per uncertified first round, that is, per batched Newton step."""
    steps = []
    real = kernels._first_round

    def counting(*args, **kwargs):
        steps.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(kernels, "_first_round", counting)
    return steps


def test_newton_rounds_are_counted_as_quadrature_work(default_params, integrate_calls, quadrature_rounds, monkeypatch):
    # the Newton steps take no certified call, but their first rounds are
    # still quadrature rounds, so node counts keep the solve's work: at
    # 0.5 t_c two Newton steps from the seed and one certified round
    steps = _first_rounds(monkeypatch)
    solve_gap_at(0.5 * default_params.t_c, default_params)
    assert len(integrate_calls) == 1 and len(steps) == 2
    assert len(quadrature_rounds) == len(steps) + len(integrate_calls) == 3


def test_newton_work_is_pinned(default_params, quadrature_rounds, monkeypatch):
    # a node stops once the bound on its quadratic rate puts the next
    # residual far below Newton's stop level, so
    # it skips the evaluation that would only repeat what the certified pass
    # at the roots checks, and its seed lies on the weak-coupling curve; on
    # the Ginzburg-Landau interpolation alone it took 3 and 24 first rounds
    # here, seeded at f(0) 4 and 33, and stopping on the residual alone 5
    # and 39, when the Newton steps ran in blocks of 24 pairs; the curve
    # now takes 9.  The thermo point's window rows ride in its gap's certified
    # pass, so it takes 4 rounds, 2 of them certified (that pass and the
    # band), where the interpolation took 5, and a second window pass and
    # f(0) seeds 8
    p = default_params
    steps = _first_rounds(monkeypatch)
    solve_gap_at(0.5 * p.t_c, p)
    assert len(steps) <= 2
    steps.clear()
    sample_gap_curve(p, 201)
    assert len(steps) <= 18
    quadrature_rounds.clear()
    thermodynamic_potential(0.9 * p.t_c, p)
    assert len(quadrature_rounds) <= 4


@pytest.mark.parametrize("eps", [0.0, 1e-3])
@pytest.mark.parametrize("u0n0", [0.12, 0.14, 0.17, 0.23, 0.26, 0.3, 0.33])
def test_seed_lies_on_the_solved_curve_outside_its_fit_set(u0n0, eps):
    # scripts/fit_seed.py fits the seed's table at couplings 0.04, 0.1, 0.2,
    # 0.35 and 0.45 and cutoffs 0 and 1e-4; between them, and at the
    # benchmark's cutoff 1e-3, the seed stays within 1e-5 of f / f(0) from
    # 0.2998 t_c up (2.4e-6 at the worst of these cells), and is f(0) below
    p = build_params(u0n0=u0n0, eps=eps)
    curve = sample_gap_curve(p, 201).points[:-1]
    taus = np.array([pt.t / p.t_c for pt in curve])
    fraction = np.array([pt.f for pt in curve]) / p.delta**2
    seed = gap._seed_fraction(np.maximum(taus, gap._COLDEST), p.core, gap._SEED_TABLE)
    flat = taus < gap._SEED_FLAT
    assert np.abs(seed - fraction)[~flat].max() <= 1e-5
    assert np.all(seed[flat] == 1.0) and np.all((0.0 <= seed) & (seed <= 1.0))


@pytest.mark.parametrize("eps", [0.0, 1e-3, 1e-2])
@pytest.mark.parametrize("u0n0", [0.03, 0.12, 0.2, 0.3, 0.33])
def test_cold_solves_take_at_most_two_first_rounds(u0n0, eps, monkeypatch):
    # from 0.2999 t_c up the seed starts Newton within a step of the root, so
    # a lone cold solve takes one or two uncertified rounds; below, where
    # the seed is f(0), at most three
    p = build_params(u0n0=u0n0, eps=eps)
    steps = _first_rounds(monkeypatch)
    rounds = {}
    for r in (0.0, 0.1, 0.25, 0.2997, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99, 0.999):
        steps.clear()
        solve_gap_at(r * p.t_c, p)
        rounds[r] = len(steps)
    assert max(n for r, n in rounds.items() if r >= 0.3) <= 2, rounds
    assert max(rounds.values()) <= 3, rounds


# first rounds of a 201-node curve with the seed delta^2 min(1, 1.02 gl(tau)),
# the Ginzburg-Landau interpolation alone
_GL_SEED_CURVE_ROUNDS = {
    (0.003, 0.0): 24, (0.003, 1.0): 23, (0.003, 8.0): 15,
    (0.03, 0.0): 24, (0.03, 1.0): 23, (0.03, 8.0): 15,
    (0.3, 0.0): 24, (0.3, 1.0): 23, (0.3, 8.0): 15,
    (3.0, 0.0): 24, (3.0, 1.0): 26, (3.0, 8.0): 15,
    (100.0, 0.0): 24, (100.0, 1.0): 23, (100.0, 8.0): 15,
}


@pytest.mark.parametrize("u0n0, eps", list(_GL_SEED_CURVE_ROUNDS))
def test_curve_takes_no_more_first_rounds_than_the_ginzburg_landau_seed(u0n0, eps, monkeypatch):
    # far from the fit set, at strong coupling and near the CutoffTooLarge
    # bound, the fitted seed costs no Newton round the interpolation it
    # refines did not
    p = build_params(u0n0=u0n0, eps=eps)
    steps = _first_rounds(monkeypatch)
    sample_gap_curve(p, 201)
    assert len(steps) <= _GL_SEED_CURVE_ROUNDS[u0n0, eps]


def test_nodes_below_0_2998_t_c_seed_at_the_zero_temperature_gap(monkeypatch):
    # below 0.2998 t_c the seed is exactly delta^2, so those nodes take the
    # iterates of a seed at f(0); from 0.2999 t_c up the seed is the fitted
    # curve, below delta^2, at strong coupling and with a cutoff too
    seeds = {}
    real = gap._newton

    def recording(ts, ys, params):
        seeds.update(zip(ts.tolist(), ys.tolist()))
        return real(ts, ys, params)

    monkeypatch.setattr(gap, "_newton", recording)
    for p in (build_params(), build_params(u0n0=0.1, eps=1e-3), build_params(u0n0=3.0, eps=1.0)):
        seeds.clear()
        sample_gap_curve(p, 201)
        sample_gap_curve(p, 201, grid="chebyshev")
        f0 = p.core.delta**2
        below = [tau for tau in seeds if tau < 0.2998]
        assert len(below) > 100 and all(seeds[tau] == f0 for tau in below)
        assert all(0.0 < seeds[tau] < f0 for tau in seeds if tau >= 0.2999)


_GUARD_COUPLINGS = (0.003, 0.01, 0.05, 0.1, 0.3, 1.0, 3.0, 10.0, 100.0, 1000.0)
_GUARD_CUTOFFS = (0.0, 1e-6, 1e-3, 0.1, 1.0)


@pytest.mark.parametrize("eps", _GUARD_CUTOFFS)
@pytest.mark.parametrize("u0n0", _GUARD_COUPLINGS)
def test_rate_stop_sends_no_row_to_the_certified_redo(u0n0, eps, window_passes):
    # the rate bound's roots are confirmed by the certified pass at the roots:
    # over every coupling and cutoff cell of this grid, each root's
    # certified residual is at Newton's stop level, so no row steps on and
    # each solve takes its one certified pass
    p = build_params(u0n0=u0n0, eps=eps)
    points = list(sample_gap_curve(p, 201).points[:-1])
    points += [solve_gap_at(r * p.t_c, p) for r in np.linspace(0.02, 0.999, 25)]
    assert window_passes == [(2, 201)] + [(2, 1)] * 25
    assert max(pt.residual for pt in points) <= gap._NEWTON_STOP


def test_nonfinite_integrand_in_a_newton_step_is_reported(default_params, monkeypatch):
    # an integrand that turns NaN in the second uncertified step raises there,
    # as a certified quadrature would, and does not run Newton out of steps
    steps = []
    real = kernels._first_round

    def turning(f, a, b, scale=None):
        steps.append(1)
        bad = len(steps) > 1
        return real(lambda x: f(x) * (math.nan if bad else 1.0), a, b, scale=scale)

    monkeypatch.setattr(kernels, "_first_round", turning)
    with pytest.raises(NonFiniteIntegrand):
        solve_gap_at(0.5 * default_params.t_c, default_params)
    assert len(steps) == 2


def test_newton_rows_that_do_not_stop_are_solved_by_certified_steps(default_params, monkeypatch):
    # first rounds that flip sign on every other call never let a node stop;
    # after _NEWTON_STEPS of them the node goes to the certified pass as it
    # stands, and the certified steps, which take no first round, solve it
    p = default_params
    t = 0.5 * p.t_c
    plain = solve_gap_at(t, p)
    calls = []
    real = kernels._first_round

    def flipping(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs) * (-1.0 if len(calls) % 2 else 1.0)

    monkeypatch.setattr(kernels, "_first_round", flipping)
    point = solve_gap_at(t, p)
    assert len(calls) == gap._NEWTON_STEPS
    assert point.residual <= gap._NEWTON_STOP
    assert abs(point.f - plain.f) <= 1e-12 * p.delta**2


def test_unconverged_newton_names_the_temperature_it_was_given(default_params, monkeypatch):
    # first rounds off by 1e-6 put the uncertified root off the certified
    # one, and the step from one certified pass cannot reach it; the failure
    # names the caller's temperature, not its core value t / t_c
    real = kernels._first_round
    monkeypatch.setattr(kernels, "_first_round", lambda *a, **k: real(*a, **k) * (1.0 + 1e-6))
    monkeypatch.setattr(gap, "_NEWTON_STEPS", 1)
    t = 0.5 * default_params.t_c
    with pytest.raises(ToleranceNotMet, match=re.escape(f"gap solve at t = {t!r} did not converge")):
        solve_gap_at(t, default_params)


def test_redo_steps_on_its_own_certified_pass(default_params, integrate_calls, monkeypatch):
    # first rounds 1e-9 off stop Newton short of the certified root; a
    # rejected row steps from the certified pass's own value and d_y, and
    # the batch's pass is taken once more: 2 certified calls for a lone
    # solve, and twice the 15 calls of a 201-node curve, with no certified
    # Newton pass between them
    p = default_params
    t = 0.5 * p.t_c
    plain = [solve_gap_at(t, p), *sample_gap_curve(p, 201).points]
    real = kernels._first_round
    monkeypatch.setattr(kernels, "_first_round", lambda *a, **k: real(*a, **k) * (1.0 + 1e-9))
    integrate_calls.clear()
    point = solve_gap_at(t, p)
    assert len(integrate_calls) == 2
    integrate_calls.clear()
    curve = sample_gap_curve(p, 201).points
    assert len(integrate_calls) == 30
    for got, ref in zip([point, *curve], plain):
        assert abs(got.f - ref.f) <= 1e-12 * p.delta**2


@pytest.mark.parametrize("rel_error", [1e-9, 1e-12])
def test_roots_are_certified_when_the_uncertified_rule_is_off(default_params, monkeypatch, rel_error):
    # Newton steps on a first round that is off by rel_error stop short of
    # the root; the certified pass at the roots sees it, and those rows are
    # solved again by certified steps, so every root keeps a certified
    # residual at Newton's stop level, and the same root to rounding (next
    # to t_c, a rounding of F moves the root by a larger share of f itself);
    # a thermo point's window rows ride in the redo's pass too
    p = default_params
    ts = [0.0, 0.3 * p.t_c, 0.5 * p.t_c, 0.9 * p.t_c, 0.999 * p.t_c]
    plain = [solve_gap_at(t, p) for t in ts]
    plain_curve = sample_gap_curve(p, 21).points
    plain_thermo = [thermodynamic_potential(t, p) for t in ts[1:]]
    real = kernels._first_round
    monkeypatch.setattr(kernels, "_first_round", lambda *a, **k: real(*a, **k) * (1.0 + rel_error))
    points = [solve_gap_at(t, p) for t in ts]
    curve = sample_gap_curve(p, 21).points
    for got, ref in zip(points + list(curve[:-1]), plain + list(plain_curve[:-1])):
        assert got.residual <= 1e-13
        assert abs(got.f - ref.f) <= 1e-12 * p.delta**2
    assert curve[-1].f == 0.0
    for got, ref in zip([thermodynamic_potential(t, p) for t in ts[1:]], plain_thermo):
        assert got.omega == pytest.approx(ref.omega, rel=1e-15)
        assert got.c_v == pytest.approx(ref.c_v, rel=1e-13)


def test_curve_is_one_solved_point_batch(default_params, monkeypatch):
    # every node, t = 0 and t_c included, is a row of one _solved_points call
    sizes = []
    real = gap._solved_points

    def counting(ts, params):
        sizes.append(ts.size)
        return real(ts, params)

    monkeypatch.setattr(gap, "_solved_points", counting)
    sample_gap_curve(default_params, 201)
    assert sizes == [201]


@pytest.mark.parametrize("u0n0, eps", [(0.3, 0.0), (0.003, 0.0), (0.1, 0.0), (0.3, 1e-3)])
def test_curve_nodes_are_their_lone_solves(u0n0, eps):
    # each pair of a window pass is mapped on its own rung and the Newton
    # seed sums each row on its own, so wherever no certified call refines,
    # every node of a curve is its lone solve to the bit: f, f', f'' and
    # the residual
    p = build_params(u0n0=u0n0, eps=eps)
    for point in sample_gap_curve(p, 201).points:
        assert point == solve_gap_at(point.t, p), point.t


def test_curve_memory_stays_flat(default_params):
    # the window pass stacks a capped number of rows per call, so the 199
    # interior nodes never share one stacked integrand
    tracemalloc.start()
    try:
        sample_gap_curve(default_params, 201)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2e6


def test_csv_round_trip(default_params):
    curve = sample_gap_curve(default_params, 5)
    text = curve.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "T,f,f_prime,f_second,residual"
    assert len(lines) == 6
    cells = lines[1].split(",")
    assert float(cells[0]) == 0.0
    assert float(cells[1]) == default_params.delta**2  # 17 digits round-trip
    last = lines[-1].split(",")
    assert float(last[0]) == default_params.t_c
    assert float(last[2]) == pytest.approx(_FPRIME_TC, rel=1e-12)

"""Potential pieces, condensation part, continuity, and the jump at t_c."""

import dataclasses
import math
import re

import numpy as np
import pytest

from bcsgap import thermo
from bcsgap.errors import NotSolved, OutsideDomain
from bcsgap.gap import gap_derivatives_at, solve_gap_at
from bcsgap.kernels import fermi, fermi_weight
from bcsgap.model import _dos, build_params
from bcsgap.quad import integrate, truncation_point
from bcsgap.thermo import (
    JumpMeasurement,
    condensation_potential,
    extrapolate_to_zero,
    measured_second_derivative_jump,
    normal_potential,
    second_derivative_jump,
    specific_heat_jump,
    tail_potential,
    thermo_to_csv,
    thermodynamic_potential,
)

from . import oracles


def test_tail_potential_derivatives_match_differences(default_params):
    # probed at several t_c so the smearing terms rise above the huge
    # t-independent filled-sea constant; near t_c they are ~1e-12 of it and
    # finite differences of the values bottom out in quadrature noise
    p = default_params
    t = 5.0 * p.t_c
    v0, v1, v2 = tail_potential(t, p)
    fd1 = oracles.d1_central(lambda s: tail_potential(s, p)[0], t, 1e-3 * t)
    fd2 = oracles.d1_central(lambda s: tail_potential(s, p)[1], t, 1e-3 * t)
    assert v1 == pytest.approx(fd1, rel=1e-5)
    assert v2 == pytest.approx(fd2, rel=1e-5)
    assert v2 < 0.0  # thermal smearing always lowers curvature


def test_window_part_matches_simpson(default_params):
    # the mu-dependent tails subtract off, leaving the pairing-window piece
    p = default_params
    t = 1.5 * p.t_c
    kt = p.k_b * t
    window = normal_potential(t, p)[0] - tail_potential(t, p)[0]
    ln_term = oracles.simpson(
        lambda xi: np.log1p(np.exp(-xi / kt)), 0.0, 1.0, n=50_000
    )
    assert window == pytest.approx(-1.0 - 4.0 * kt * ln_term, rel=1e-10)


def test_window_part_independent_of_band_shape(default_params):
    t = 1.2 * default_params.t_c
    wider = build_params(mu=20.0)
    a = normal_potential(t, default_params)[0] - tail_potential(t, default_params)[0]
    b = normal_potential(t, wider)[0] - tail_potential(t, wider)[0]
    assert a == pytest.approx(b, rel=1e-12)


def test_normal_potential_derivatives_match_differences(default_params):
    p = default_params
    t = 1.5 * p.t_c
    v0, v1, v2 = normal_potential(t, p)
    fd1 = oracles.d1_central(lambda s: normal_potential(s, p)[0], t, 1e-4 * t)
    fd2 = oracles.d1_central(lambda s: normal_potential(s, p)[1], t, 1e-4 * t)
    assert v1 == pytest.approx(fd1, rel=1e-7)
    assert v2 == pytest.approx(fd2, rel=1e-7)


def test_normal_branch_smooth_across_transition(default_params):
    # the normal branch itself has no feature at t_c
    p = default_params
    h = 1e-4 * p.t_c
    below = normal_potential(p.t_c - h, p)[2]
    above = normal_potential(p.t_c + h, p)[2]
    assert below == pytest.approx(above, rel=1e-4)


def test_condensation_vanishes_at_transition(default_params):
    p = default_params
    point = solve_gap_at(p.t_c, p)
    d0, d1, d2 = condensation_potential(p.t_c, p, point)
    assert d0 == 0.0  # integrands are identically zero once the gap closes
    assert d1 == 0.0
    assert d2 == pytest.approx(second_derivative_jump(p), rel=1e-10)


def test_condensation_lowers_the_potential(default_params):
    p = default_params
    t = 0.5 * p.t_c
    value = condensation_potential(t, p, solve_gap_at(t, p))[0]
    assert value < 0.0


def test_condensation_matches_simpson(default_params):
    # naive textbook form of the integrals, Simpson-summed; safe because the
    # gap is not small at t_c/2 so no catastrophic cancellation occurs
    p = default_params
    t = 0.5 * p.t_c
    kt = p.k_b * t
    f = solve_gap_at(t, p).f

    def shift(xi):
        return np.sqrt(xi * xi + f) - xi

    def ln_ratio(xi):
        s = np.sqrt(xi * xi + f)
        return np.log1p(np.exp(-s / kt)) - np.log1p(np.exp(-xi / kt))

    expected = (
        f / 0.3
        - 2.0 * oracles.simpson(shift, 0.0, 1.0, n=50_000)
        - 4.0 * kt * oracles.simpson(ln_ratio, 0.0, 1.0, n=50_000)
    )
    value = condensation_potential(t, p, solve_gap_at(t, p))[0]
    assert value == pytest.approx(expected, rel=1e-8)


def test_condensation_gates(default_params):
    p = default_params
    point = solve_gap_at(0.5 * p.t_c, p)
    with pytest.raises(OutsideDomain):
        condensation_potential(1.1 * p.t_c, p, point)
    with pytest.raises(NotSolved):
        condensation_potential(0.6 * p.t_c, p, point)  # stale temperature
    fat = dataclasses.replace(point, residual=1.0)
    with pytest.raises(NotSolved):
        condensation_potential(0.5 * p.t_c, p, fat)


def test_cold_point_below_band_rounding(default_params):
    # k_b t far below the rounding of hbar_omega_d puts the band edge on
    # hbar_omega_d itself; both band pieces are then exactly 0, not an error
    cold = thermodynamic_potential(1e-20, default_params)
    assert cold.omega == thermodynamic_potential(1e-12, default_params).omega
    assert cold.c_v == 0.0


@pytest.fixture(scope="module", params=[0.0, 1e-3], ids=["eps=0", "eps=1e-3"])
def cold_params(request):
    return build_params(eps=request.param)


@pytest.mark.parametrize("k", [66, 103, 108, 200, 300])
def test_far_below_transition_is_zero_temperature(cold_params, k):
    # the powers of t the partials and the parts divide by underflow here;
    # every thermal factor has long vanished, so the zero-temperature values hold
    p = cold_params
    t = 10.0 ** -k * p.t_c
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        g = solve_gap_at(t, p)
        point = thermodynamic_potential(t, p)
    assert (g.f, g.f_prime, g.f_second) == (p.delta**2, 0.0, 0.0)
    assert (point.omega_t, point.omega_tt, point.entropy, point.c_v) == (0.0, 0.0, 0.0, 0.0)
    assert point.omega == thermodynamic_potential(1e-20 * p.t_c, p).omega


@pytest.mark.parametrize("ratio", [1e89, 1e120])
def test_far_above_transition_is_refused(default_params, ratio):
    # core-unit band integrals of order t^3.5 overflow before the physical
    # values do; no point comes back with an infinite field, and no warning
    t = ratio * default_params.t_c
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        with pytest.raises(OutsideDomain, match=re.escape(repr(t))):
            thermodynamic_potential(t, default_params)


def test_hot_point_keeps_its_bits(default_params):
    # mpmath puts the entropy at 9.885628842422015e117: this value is 1 ulp
    # above it (3 with the density formed as sqrt((x + mu) / mu), 4 with the
    # unmapped band's 9.88562884242202e117)
    point = thermodynamic_potential(1e80 * default_params.t_c, default_params)
    assert dataclasses.astuple(point) == (
        4.044952519089007e78,
        -1.5994759715573563e196,
        -9.885628842422017e117,
        -3.6659128119933144e39,
        9.885628842422017e117,
        1.4828443263633023e118,
        "normal",
    )


def test_branch_dispatch(default_params):
    p = default_params
    above = thermodynamic_potential(1.2 * p.t_c, p)
    assert above.branch == "normal"
    # above the transition the potential IS the normal branch, bitwise
    parts = normal_potential(1.2 * p.t_c, p)
    assert (above.omega, above.omega_t, above.omega_tt) == parts
    at_tc = thermodynamic_potential(p.t_c, p)
    assert at_tc.branch == "superconducting"


@pytest.mark.parametrize("ratio", [1.1, 1.5, 3.0])
@pytest.mark.parametrize("eps", [0.0, 1e-3])
@pytest.mark.parametrize("u0n0", [0.15, 0.2])
def test_normal_potential_is_the_warm_point_where_the_band_is_dropped(u0n0, eps, ratio):
    # at these couplings the band starts 44 to 630 k_b t above the window,
    # past one thermal edge, 70.5 k_b t, everywhere but at u0n0 = 0.2 and
    # 3 t_c; neither call integrates it there, and both agree to the bit
    p = build_params(u0n0=u0n0, eps=eps)
    point = thermodynamic_potential(ratio * p.t_c, p)
    assert (point.omega, point.omega_t, point.omega_tt) == normal_potential(ratio * p.t_c, p)


def _band_quadratures(monkeypatch, integrate_calls) -> list:
    """A list that gains, per thermo._band call, the number of quadratures it made."""
    counts = []
    real = thermo._band

    def band(ts, params):
        before = len(integrate_calls)
        out = real(ts, params)
        counts.append(len(integrate_calls) - before)
        return out

    monkeypatch.setattr(thermo, "_band", band)
    return counts


@pytest.mark.parametrize("eps", [0.0, 1e-3])
def test_band_is_integrated_only_where_it_reaches_the_window_target(eps, integrate_calls, monkeypatch):
    # at u0n0 = 0.15 and 0.2 hbar_omega_d is 693 and 131 k_b t_c, so from
    # 0.5 to 1.5 t_c the band lies more than one thermal edge above the
    # window and no point integrates it; at defaults, 24.7 k_b t_c, it does
    band_quadratures = _band_quadratures(monkeypatch, integrate_calls)
    ratios = [0.5, 0.9, 1.0, 1.1, 1.5]
    for u0n0, quadratures in ((0.15, 0), (0.2, 0), (0.3, 1)):
        p = build_params(u0n0=u0n0, eps=eps)
        band_quadratures.clear()
        thermo._points([r * p.t_c for r in ratios], p)
        for r in ratios:
            thermodynamic_potential(r * p.t_c, p)
        assert band_quadratures == [quadratures] * (1 + len(ratios)), u0n0


def test_tail_potential_keeps_the_band_where_thermo_points_drop_it(integrate_calls, monkeypatch):
    # the thermo point at 3 t_c, u0n0 = 0.15 skips the band, 230 k_b t above
    # the window; tail_potential still integrates it to its own relative
    # accuracy, e^{-230} small
    band_quadratures = _band_quadratures(monkeypatch, integrate_calls)
    p = build_params(u0n0=0.15)
    t = 3.0 * p.t_c
    thermodynamic_potential(t, p)
    _, d1, d2 = tail_potential(t, p)
    assert band_quadratures == [0, 1]
    ref = oracles.mp_band_derivatives(t, p.k_b, p.hbar_omega_d, p.n0, p.mu)
    assert 0.0 > d1 == pytest.approx(ref[0], rel=1e-12, abs=0.0)
    assert 0.0 > d2 == pytest.approx(ref[1], rel=1e-12, abs=0.0)


def test_temperature_validation(default_params):
    p = default_params
    for bad in (0.0, -1.0, math.nan, math.inf, np.float32("nan"), "0.01", None, 10**400):
        with pytest.raises(OutsideDomain):
            thermodynamic_potential(bad, p)
    for fn in (normal_potential, tail_potential):
        with pytest.raises(OutsideDomain):
            fn(10**400, p)
    with pytest.raises(OutsideDomain):
        condensation_potential(10**400, p, solve_gap_at(0.5 * p.t_c, p))
    # real numpy temperatures are temperatures
    point = thermodynamic_potential(np.float32(0.5 * p.t_c), p)
    assert point.branch == "superconducting" and point.t == float(np.float32(0.5 * p.t_c))


def test_point_invariants(default_params):
    p = default_params
    point = thermodynamic_potential(0.9 * p.t_c, p)
    assert point.entropy == -point.omega_t
    assert point.c_v == -point.t * point.omega_tt
    assert point.entropy > 0.0
    assert point.c_v > 0.0


def test_potential_and_entropy_continuous_at_transition(default_params):
    p = default_params
    h = 1e-7 * p.t_c
    below = thermodynamic_potential(p.t_c - h, p)
    above = thermodynamic_potential(p.t_c + h, p)
    # the values sit 2h apart on a curve with slope -entropy, so the gap
    # between them is ~2h*|S| ~ 2e-9; anything beyond that is a seam defect
    assert abs(below.omega - above.omega) < 3.0 * h * abs(below.entropy)
    assert below.entropy == pytest.approx(above.entropy, rel=1e-6)


def test_continuity_at_weak_coupling():
    # k_b t_c ~ 5e-5 hbar_omega_d: the thermal window integrals on both sides
    # must resolve the same k_b t scale, or the seam shows their difference
    p = build_params(u0n0=0.1)
    h = 1e-8 * p.t_c
    below = thermodynamic_potential(p.t_c - h, p)
    above = thermodynamic_potential(p.t_c + h, p)
    assert abs(below.omega - above.omega) < 3.0 * h * abs(below.entropy)
    assert below.entropy == pytest.approx(above.entropy, rel=1e-6)


@pytest.mark.parametrize("u0n0", [0.3, 0.1, 0.06])
def test_normal_specific_heat_is_sommerfeld(u0n0):
    # above t_c, c_v = (2 pi^2 / 3) n0 k_b^2 t up to band-curvature terms of
    # order (k_b t / mu)^2, however small k_b t is against hbar_omega_d
    p = build_params(u0n0=u0n0)
    for ratio in (1.1, 1.5):
        t = ratio * p.t_c
        sommerfeld = 2.0 * math.pi**2 / 3.0 * p.n0 * p.k_b**2 * t
        assert thermodynamic_potential(t, p).c_v == pytest.approx(sommerfeld, rel=1e-4)


@pytest.mark.parametrize("mu", [1e3, 1e4, 1e6])
@pytest.mark.parametrize("u0n0", [0.3, 10.0])
def test_normal_specific_heat_with_far_band_edge(u0n0, mu):
    # the lower band reaches down to -mu, but its thermal weight lives
    # within tens of k_b t of -hbar_omega_d; it must be found however far
    # mu is (at mu = 1e6, u0n0 = 10 the whole-band integral read half)
    p = build_params(u0n0=u0n0, mu=mu)
    t = 3.0 * p.t_c
    ref = oracles.mp_normal_specific_heat(t, p.k_b, p.hbar_omega_d, p.n0, p.mu, p.xi_min)
    assert thermodynamic_potential(t, p).c_v == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("eps", [0.0, 1e-3])
@pytest.mark.parametrize("u0n0", [0.3, 0.1, 1.0])
def test_superconducting_entropy_and_specific_heat_match_mpmath(u0n0, eps):
    # every row of the quasiparticle form is positive, so far below t_c,
    # where both fall like e^{-Delta / k_b t}, they keep their relative
    # accuracy (the normal-minus-condensation split returned 0 at 0.035 t_c);
    # at u0n0 = 1 and 0.03 t_c the band's rows at the window edge, about
    # e^{-75}, are not negligible against the window's e^{-Delta / k_b t},
    # so a band cut at the window's thermal edge would miss them
    p = build_params(u0n0=u0n0, eps=eps)
    for ratio in (0.02, 0.03, 0.04, 0.05, 0.1, 0.5, 0.9):
        t = ratio * p.t_c
        point, solved = thermodynamic_potential(t, p), solve_gap_at(t, p)
        args = (t, p.k_b, p.hbar_omega_d, p.n0, p.mu, p.xi_min, solved.f)
        entropy = oracles.mp_superconducting_entropy(*args)
        c_v = oracles.mp_superconducting_specific_heat(*args, solved.f_prime)
        assert point.entropy == pytest.approx(entropy, rel=1e-12, abs=0.0), ratio
        assert point.c_v == pytest.approx(c_v, rel=1e-12, abs=0.0), ratio


@pytest.mark.parametrize("u0n0", [0.3, 0.1])
def test_low_temperature_specific_heat_is_the_bcs_asymptote(u0n0):
    # as t -> 0, c_v -> 4 sqrt(pi/2) n0 k_b Delta tau^{-3/2} e^{-1/tau} with
    # tau = k_b t / Delta (Tinkham, Introduction to Superconductivity, 2nd
    # ed. (1996), ch. 3), and the ratio runs to 1 like tau: expanding
    # E^3 / sqrt(E^2 - Delta^2) about E = Delta puts it at
    # 1 + (11/8) tau + (225/128) tau^2 + (945/1024) tau^3 + ..., up to terms
    # in e^{-1/tau}
    p = build_params(u0n0=u0n0)
    for ratio in (0.1, 0.06, 0.04, 0.03, 0.02, 0.01):
        t = ratio * p.t_c
        delta = math.sqrt(solve_gap_at(t, p).f)
        tau = p.k_b * t / delta
        leading = 4.0 * math.sqrt(math.pi / 2.0) * p.n0 * p.k_b * delta * tau**-1.5 * math.exp(-1.0 / tau)
        slope = (thermodynamic_potential(t, p).c_v / leading - 1.0) / tau
        assert abs(slope - 11.0 / 8.0 - 225.0 / 128.0 * tau) <= tau * tau, (ratio, slope)


@pytest.mark.parametrize("ratio", [1.1, 1.5, 3.0])
def test_band_is_one_folded_integral(default_params, integrate_calls, ratio):
    # at the benchmark's mu = 10 the band reaches past the truncation edge:
    # its lower part, folded onto the upper tail's energies, shares the
    # tail's one call, and the band rows are those of the two pieces
    # integrated apart
    core = default_params.core
    mu, L = core.mu, core.hbar_omega_d
    edge = truncation_point(L, ratio)
    assert mu >= edge
    (band,) = thermo._band([ratio], core)
    assert len(integrate_calls) == 1
    upper = integrate(lambda x: _dos(x, 1.0, mu) * thermo._thermal_rows(x, ratio), L, edge)[0]
    lower = integrate(lambda xi: _dos(xi, 1.0, mu) * thermo._thermal_rows(-xi, ratio), -edge, -L)[0]
    for got, ref in zip(band, upper + lower):
        assert abs(got - ref) <= 1e-15 * abs(ref)
    p = default_params
    t = ratio * p.t_c
    ref = oracles.mp_normal_specific_heat(t, p.k_b, p.hbar_omega_d, p.n0, p.mu, p.xi_min)
    assert thermodynamic_potential(t, p).c_v == pytest.approx(ref, rel=1e-12)


def test_jump_measurement(default_params):
    p = default_params
    closed = second_derivative_jump(p)
    assert closed < 0.0
    measured = measured_second_derivative_jump(p)
    assert isinstance(measured, JumpMeasurement)
    assert measured.jump == measured.below - measured.above
    assert measured.below < measured.above  # curvature drops on the cold side
    assert measured.jump == pytest.approx(closed, rel=1e-6)
    # the potential and its slope are continuous: both one-sided limits
    # reach the value at t_c
    at_tc = thermodynamic_potential(p.t_c, p)
    for omega, omega_t in zip(measured.omega, measured.omega_t):
        assert omega == pytest.approx(at_tc.omega, rel=1e-12)
        assert omega_t == pytest.approx(at_tc.omega_t, rel=1e-12)


def test_jump_with_cutoff(eps_params):
    closed = second_derivative_jump(eps_params)
    assert closed < 0.0
    measured = measured_second_derivative_jump(eps_params)
    assert measured.jump == pytest.approx(closed, rel=1e-3)


def test_specific_heat_jump(default_params, eps_params):
    for p in (default_params, eps_params):
        dcv = specific_heat_jump(p)
        assert dcv > 0.0
        assert dcv == pytest.approx(-p.t_c * second_derivative_jump(p), rel=1e-12)


@pytest.mark.parametrize("u0n0, eps", [(0.1, 8.0), (0.1, 12.0), (0.2, 5.0), (0.3, 0.5)])
def test_specific_heat_jump_near_the_cutoff_bound(u0n0, eps):
    # near the CutoffTooLarge bound tanh(U) and tanh(eps) both round to 1:
    # their plain difference is off by up to 3e-7 here, the product form is
    # not; abs=0, as the jump falls to 2e-23
    p = build_params(u0n0=u0n0, eps=eps)
    assert specific_heat_jump(p) == pytest.approx(-p.t_c * second_derivative_jump(p), rel=1e-13, abs=0.0)


def test_csv_serialization(default_params):
    p = default_params
    points = [
        thermodynamic_potential(0.9 * p.t_c, p),
        thermodynamic_potential(1.1 * p.t_c, p),
    ]
    text = thermo_to_csv(points)
    lines = text.strip().split("\n")
    assert lines[0] == "T,omega,omega_t,omega_tt,entropy,c_v,branch"
    full = lines[1].split(",")
    assert full[-1] == "superconducting"
    assert float(full[1]) == points[0].omega
    above = lines[2].split(",")
    assert above[-1] == "normal"
    assert float(above[5]) == points[1].c_v


def test_point_is_integrated_in_few_quadrature_calls(integrate_calls):
    # two stacked calls per point (the band, its lower part folded onto the
    # upper tail's energies, and the window), plus one certified first-order
    # gap pass at or below t_c; the gap's Newton steps take uncertified
    # first rounds, and the temperature-independent band constant is a
    # closed form
    p = build_params()
    counts = []
    for ratio in (0.5, 0.5, 1.0, 1.5, 0.9):
        integrate_calls.clear()
        thermodynamic_potential(ratio * p.t_c, p)
        counts.append(len(integrate_calls))
    first, second, at_tc, above, near_tc = counts
    assert second <= 3
    assert near_tc <= 3
    assert first == second  # nothing is integrated once per params
    assert at_tc <= 3
    assert above <= 2


def test_warm_point_takes_few_quadrature_rounds(quadrature_rounds):
    # the band, integrated above the window edge on its thermal scale, and
    # the window's three rows each converge in about one round
    p = build_params()
    quadrature_rounds.clear()
    thermodynamic_potential(1.1 * p.t_c, p)
    assert len(quadrature_rounds) <= 3


@pytest.mark.parametrize("eps", [0.0, 1e-3])
def test_measured_jump_takes_few_quadrature_rounds(eps, quadrature_rounds):
    # just below t_c the window's ln and occupation rows branch at
    # xi = +-i sqrt(f), nearer than their poles; mapped on that distance
    # they converge with the rest; on the pole distance alone the eight
    # points take 15-16 rounds
    p = build_params(eps=eps)
    quadrature_rounds.clear()
    measured_second_derivative_jump(p)
    assert len(quadrature_rounds) <= 8


def test_thermo_solves_the_gap_to_first_order(default_params, window_passes):
    # the potential reads f and f' alone, so the certified pass at the roots
    # of its cold temperatures skips the three second-order kernels; it is
    # one pass for all of them, t_c included, and none for the warm one
    thermo._points([r * default_params.t_c for r in (0.5, 1.0, 1.5)], default_params)
    assert window_passes == [(1, 2)]


@pytest.mark.parametrize("ratio", [1e-3, 0.5, 0.9, 1.0 - 1e-6, 1.0])
def test_cold_point_makes_one_certified_window_quadrature(
    default_params, eps_params, integrate_calls, ratio, monkeypatch
):
    # the window rows of a cold point ride in its gap's certified pass at
    # the root, so besides the band that pass is its only certified
    # quadrature
    band_calls = _band_quadratures(monkeypatch, integrate_calls)
    for p in (default_params, eps_params):
        integrate_calls.clear()
        band_calls.clear()
        thermodynamic_potential(ratio * p.t_c, p)
        assert len(band_calls) == 1
        assert len(integrate_calls) - band_calls[0] == 1


def test_batches_are_integrated_in_few_quadrature_calls(integrate_calls):
    # a batch takes one Newton iteration and one first-order pass for its
    # cold temperatures and two stacked calls for all of them, however
    # many temperatures it holds
    p = build_params()
    integrate_calls.clear()
    measured_second_derivative_jump(p)
    assert len(integrate_calls) <= 8
    integrate_calls.clear()
    thermo._points([p.t_c * (0.5 + i / 40) for i in range(41)], p)
    assert len(integrate_calls) <= 11


def test_straddling_batch_is_one_stacked_pass(monkeypatch):
    # per _BATCH chunk, temperatures on both sides of t_c share one band
    # call; the cold ones, t_c included, take one gap solve, whose certified
    # pass carries their window rows, and the warm ones one window call of
    # the normal branch, the f = f' = 0 case
    p = build_params()
    calls = {"_solved_columns": [], "_normal_window": [], "_band": []}
    for name, sizes in calls.items():
        real = getattr(thermo, name)

        def counting(ts, *args, real=real, sizes=sizes):
            sizes.append(len(ts))
            return real(ts, *args)

        monkeypatch.setattr(thermo, name, counting)
    measured_second_derivative_jump(p)
    assert calls == {"_solved_columns": [4], "_normal_window": [4], "_band": [8]}
    for sizes in calls.values():
        sizes.clear()
    thermo._points([p.t_c * (0.5 + i / 100) for i in range(101)], p)
    assert calls == {"_solved_columns": [51], "_normal_window": [13, 37], "_band": [thermo._BATCH, 101 - thermo._BATCH]}


@pytest.mark.parametrize("depth", [1e-12, 1e-9, 1e-3, 0.5])
def test_normal_specific_heat_with_thin_lower_band(depth):
    # the band bottom -mu sits depth below the window edge -hbar_omega_d;
    # integrated in xi, xi + mu cancelled there and the quadrature stalled
    p = build_params(mu=1.0 + depth)
    for ratio in (1.5, 3.0):
        t = ratio * p.t_c
        ref = oracles.mp_normal_specific_heat(t, p.k_b, p.hbar_omega_d, p.n0, p.mu, p.xi_min)
        assert thermodynamic_potential(t, p).c_v == pytest.approx(ref, rel=1e-12)
    assert thermodynamic_potential(0.5 * p.t_c, p).branch == "superconducting"


def test_extrapolate_to_zero_validates_its_input():
    assert extrapolate_to_zero([0.1, 0.01], [1.1, 1.01]) == pytest.approx(1.0, rel=1e-15)
    mismatched = (([0.1, 0.01], [1.0]), ([0.1], [1.0, 2.0]), ([], []))
    for hs, ys in mismatched:
        with pytest.raises(ValueError, match="as many abscissae as values"):
            extrapolate_to_zero(hs, ys)
    with pytest.raises(ValueError, match="distinct"):
        extrapolate_to_zero([0.1, 0.1], [1.0, 2.0])


def _assert_batch_matches_points(ts, p):
    batch = thermo._points(ts, p)
    assert [q.t for q in batch] == [float(t) for t in ts]
    for q in batch:
        lone = thermodynamic_potential(q.t, p)
        assert q.branch == lone.branch
        for field in ("omega", "omega_t", "omega_tt", "entropy", "c_v"):
            g, r = getattr(q, field), getattr(lone, field)
            assert abs(g - r) <= 1e-13 * abs(r), (q.t, field, g, r)


@pytest.mark.parametrize("eps", [0.0, 1e-3])
def test_batch_matches_one_temperature_points(eps):
    # 41 temperatures stacked on shared nodes, against one call each
    p = build_params(eps=eps)
    _assert_batch_matches_points([p.t_c * (0.5 + i / 40) for i in range(41)], p)


def test_batch_matches_one_temperature_points_at_the_edges(default_params):
    # the CLI window from below the band rounding, where the cold point has
    # no band rows, and one ulp either side of t_c, at two couplings
    _assert_batch_matches_points([1e-20, 0.02], default_params)
    # far below t_c too, where the entropy and c_v are e^{-Delta / k_b t} small
    _assert_batch_matches_points([r * default_params.t_c for r in (0.02, 0.03, 0.05, 0.1, 0.5, 1.2)], default_params)
    for p in (default_params, build_params(u0n0=0.1)):
        _assert_batch_matches_points([float(np.nextafter(p.t_c, side)) for side in (0.0, 1.0)], p)
    # far above t_c, with mu below the 1e6 t_c row's band edge, so the lower
    # band is split at its midpoint; the 1e3 t_c row is e^{-x/t} subnormal
    # below it, where a relative target on its rows was never met
    p = build_params(u0n0=0.1, eps=3.0)
    _assert_batch_matches_points([1e3 * p.t_c, 1e6 * p.t_c], p)


def test_long_unordered_batch_matches_one_temperature_points(default_params):
    # more temperatures than one stacked pass takes, both branches
    # interleaved and one repeated: each result lands at its own index
    p = default_params
    ratios = [0.4 + 1.2 * ((7 * i) % 70) / 69 for i in range(70)] + [0.9]
    _assert_batch_matches_points([r * p.t_c for r in ratios], p)


def test_batched_points_are_their_lone_points(default_params):
    # 40 temperatures on [0.3, 2] t_c, both branches: every window pair is
    # mapped on its own rung and no call refines, so each batched point is
    # its lone call to the bit; the band's one call, mapped on the batch's
    # coldest hot temperature, stays below the fields' rounding here, which
    # no rule guarantees
    p = default_params
    ts = list(np.linspace(0.3, 2.0, 40) * p.t_c)
    for point, t in zip(thermo._points(ts, p), ts):
        assert point == thermodynamic_potential(t, p), t


def test_one_temperature_is_a_batch_of_one(default_params):
    p = default_params
    for ratio in (0.3, 0.9, 1.0, 1.2):
        t = ratio * p.t_c
        assert thermodynamic_potential(t, p) == thermo._points([t], p)[0]


def _reference_point(t, p):
    """Potential, slope and curvature with one lone integrate call per integrand."""
    n0, kb, kt = p.n0, p.k_b, p.k_b * t
    mu, L, a = p.mu, p.hbar_omega_d, p.xi_min

    def dos(xi):
        return _dos(xi, n0, mu)

    def band(g):
        return integrate(g, -mu, -L)[0] if mu > L else 0.0

    def tail(g):
        return integrate(g, L, truncation_point(L, kt))[0]

    def win(g):
        return integrate(g, a, L)[0]

    const = band(lambda xi: xi * dos(xi))
    ln = band(lambda xi: dos(xi) * np.log1p(np.exp(xi / kt))) + tail(
        lambda xi: dos(xi) * np.log1p(np.exp(-xi / kt))
    )
    occ = band(lambda xi: dos(xi) * (-xi) * fermi(-xi / kt)) + tail(
        lambda xi: dos(xi) * xi * fermi(xi / kt)
    )
    w = band(lambda xi: dos(xi) * xi * xi * fermi_weight(xi / kt)) + tail(
        lambda xi: dos(xi) * xi * xi * fermi_weight(xi / kt)
    )
    ln_w = win(lambda xi: np.log1p(np.exp(-xi / kt)))
    occ_w = win(lambda xi: xi * fermi(xi / kt))
    w_w = win(lambda xi: xi * xi * fermi_weight(xi / kt))
    omega = 2.0 * const - 2.0 * kt * ln - n0 * (L * L - a * a) - 4.0 * n0 * kt * ln_w
    omega_t = -2.0 * kb * ln - (2.0 / t) * occ - 4.0 * n0 * kb * ln_w - (4.0 * n0 / t) * occ_w
    omega_tt = -2.0 / (kb * t**3) * w - 4.0 * n0 / (kb * t**3) * w_w
    if t > p.t_c:
        return omega, omega_t, omega_tt

    point = solve_gap_at(t, p)
    f, (f_prime, _) = point.f, gap_derivatives_at(t, p, point)

    def s(xi):
        return np.sqrt(xi * xi + f)

    def shift(xi):
        return f / (s(xi) + xi)

    i_ratio = win(lambda xi: np.log1p(fermi(xi / kt) * np.expm1(-shift(xi) / kt)))
    i_shift = win(shift)
    i_occ = win(
        lambda xi: xi * fermi(xi / kt) * -np.expm1(-shift(xi) / kt) / (1.0 + np.exp(-s(xi) / kt))
        - shift(xi) * fermi(s(xi) / kt)
    )
    i_w_shift = win(lambda xi: fermi_weight(s(xi) / kt) * (xi * xi + f - t * f_prime / 2.0))
    return (
        omega + f * n0 / p.u0n0 - 2.0 * n0 * i_shift - 4.0 * n0 * kt * i_ratio,
        omega_t - 4.0 * n0 * kb * i_ratio + (4.0 * n0 / t) * i_occ,
        omega_tt + 4.0 * n0 / (kb * t**3) * (w_w - i_w_shift),
    )


@pytest.mark.parametrize(
    "kwargs",
    [
        {"u0n0": 0.3},
        {"u0n0": 0.3, "eps": 1e-3},
        {"u0n0": 0.15},
        {"u0n0": 0.15, "eps": 1e-3},
        {"u0n0": 0.3, "mu": 0.5},  # mu inside the window: no lower band
    ],
)
def test_stacked_point_matches_lone_integrals(kwargs):
    p = build_params(**kwargs)
    for ratio in (0.5, 0.7, 0.95, 1.0 - 1e-6, 1.0, 1.0 + 1e-6, 1.2, 1.5):
        t = ratio * p.t_c
        point = thermodynamic_potential(t, p)
        got = (point.omega, point.omega_t, point.omega_tt)
        for g, r in zip(got, _reference_point(t, p)):
            assert abs(g - r) <= 1e-13 * abs(r), (ratio, g, r)


@pytest.mark.parametrize("u0n0", [0.3, 0.1, 0.03, 0.01, 0.005])
def test_bcs_weak_coupling_limits(u0n0):
    # the textbook weak-coupling limits at eps = 0, each with its leading
    # window correction in U = hbar_omega_d / (2 k_b t_c) written out; what
    # the corrections leave is O(e^{-2U}), bounded in each tolerance next to
    # the solver's contracts: a 1e-12 relative defect in the t_c condition
    # (1e-12 / u0n0 in ln U) and quadratures to 1e-12, of which f' and c_v
    # are quotients and sums (1e-10 allowed)
    zeta3, euler = 1.2020569031595942854, 0.57721566490153286061
    slope_integral = 7.0 * zeta3 / math.pi**2
    p = build_params(u0n0=u0n0)
    ln_u = oracles.mp_log_u(u0n0)
    u = math.exp(ln_u)
    tc_tol = 1e-12 / u0n0
    assert p.t_c == pytest.approx(p.hbar_omega_d / (2.0 * p.k_b) / u, rel=tc_tol, abs=0.0)

    # Delta0 / (k_b t_c) -> pi / e^gamma: 2U / sinh(1/u0n0), with
    # ln U = 1/u0n0 - ln(4 e^gamma / pi) - r and 0 <= r <= e^{-2U} / U
    ratio = p.delta0 / (p.k_b * p.t_c)
    expected = math.pi / math.exp(euler) / -math.expm1(-2.0 / u0n0)
    assert ratio == pytest.approx(expected, rel=tc_tol + math.exp(-2.0 * u) / u + 1e-15, abs=0.0)

    # f'(t_c) -> -8 pi^2 k_b^2 t_c / (7 zeta(3)): the sech^2 integral over
    # the window is tanh U, and the slope-kernel integral misses 1/(2 U^2)
    # at the top, up to 3 e^{-2U} / U^2
    f_prime = solve_gap_at(p.t_c, p).f_prime
    expected = -8.0 * p.k_b**2 * p.t_c * math.tanh(u) / (slope_integral - 0.5 / u**2)
    assert f_prime == pytest.approx(expected, rel=1e-10 + 4.0 * math.exp(-2.0 * u) / u**2, abs=0.0)

    # Delta C / C_n -> 12 / (7 zeta(3)), with Delta C = -n0 f'(t_c) tanh U
    # and C_n the Sommerfeld value, which the window edge z = 2U and the
    # band outside it move by at most 2 z^2 e^{-z}
    jump_ratio = specific_heat_jump(p) / (-p.t_c * normal_potential(p.t_c, p)[2])
    expected = 12.0 / (7.0 * zeta3) * math.tanh(u) ** 2 / (1.0 - 0.5 / (slope_integral * u**2))
    z = 2.0 * u
    assert jump_ratio == pytest.approx(expected, rel=1e-10 + 2.0 * z * z * math.exp(-z), abs=0.0)

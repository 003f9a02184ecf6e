"""Potential pieces, condensation part, continuity, and the jump at t_c."""

import math

import numpy as np
import pytest

from bcsgap import gap, kernels, quad, thermo
from bcsgap.errors import CutoffNotZero, NotSolved, OutsideDomain
from bcsgap.gap import GapPoint, gap_derivatives_at, solve_gap_at
from bcsgap.kernels import fermi, fermi_weight
from bcsgap.model import _dos, build_params
from bcsgap.quad import integrate, truncation_point
from bcsgap.thermo import (
    JumpMeasurement,
    condensation_potential,
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


def _solved_point_with_derivatives(t, params):
    point = solve_gap_at(t, params)
    f_prime, f_second = gap_derivatives_at(t, params, point)
    return GapPoint(
        t=point.t, f=point.f, residual=point.residual,
        f_prime=f_prime, f_second=f_second,
    )


def test_condensation_vanishes_at_transition(default_params):
    p = default_params
    point = _solved_point_with_derivatives(p.t_c, p)
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
    fat = GapPoint(t=0.5 * p.t_c, f=point.f, residual=1.0)
    with pytest.raises(NotSolved):
        condensation_potential(0.5 * p.t_c, p, fat)


def test_cold_point_below_band_rounding(default_params):
    # k_b t far below the rounding of hbar_omega_d puts the band edge on
    # hbar_omega_d itself; both band pieces are then exactly 0, not an error
    cold = thermodynamic_potential(1e-20, default_params)
    assert cold.omega == thermodynamic_potential(1e-12, default_params).omega
    assert cold.c_v == 0.0


def test_branch_dispatch(default_params):
    p = default_params
    above = thermodynamic_potential(1.2 * p.t_c, p)
    assert above.branch == "normal"
    # above the transition the potential IS the normal branch, bitwise
    parts = normal_potential(1.2 * p.t_c, p)
    assert (above.omega, above.omega_t, above.omega_tt) == parts
    at_tc = thermodynamic_potential(p.t_c, p)
    assert at_tc.branch == "superconducting"


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
    p = default_params
    dcv = specific_heat_jump(p)
    assert dcv > 0.0
    assert dcv == pytest.approx(-p.t_c * second_derivative_jump(p), rel=1e-12)
    with pytest.raises(CutoffNotZero):
        specific_heat_jump(eps_params)


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


def test_point_is_integrated_in_few_quadrature_calls(monkeypatch):
    # three stacked calls per point (lower band, upper tail, window), plus
    # the gap's Newton steps and one second-order pass below t_c; the
    # temperature-independent band constant is a closed form
    calls = []
    real = quad.integrate

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for module in (quad, kernels, gap, thermo):
        monkeypatch.setattr(module, "integrate", counting)
    p = build_params()
    counts = []
    for ratio in (0.5, 0.5, 1.2):
        calls.clear()
        thermodynamic_potential(ratio * p.t_c, p)
        counts.append(len(calls))
    first, second, above = counts
    assert second <= 12
    assert first == second  # nothing is integrated once per params
    assert above <= 3


def _reference_point(t, p):
    """Potential, slope and curvature with one lone integrate call per integrand."""
    n0, kb, kt = p.n0, p.k_b, p.k_b * t
    mu, L, a, spec = p.mu, p.hbar_omega_d, p.xi_min, p.quad_spec

    def dos(xi):
        return _dos(xi, n0, mu)

    def band(g):
        return integrate(g, -mu, -L, spec)[0] if mu > L else 0.0

    def tail(g):
        return integrate(g, L, truncation_point(L, kt, spec), spec)[0]

    def win(g):
        return integrate(g, a, L, spec)[0]

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

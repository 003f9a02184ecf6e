"""Each benchmark oracle against an mpmath evaluation at one point.

    python3 -m pytest perfbench/test_oracles.py

The reference side is the exact finite-window expression, evaluated at 30
digits; the oracle side is the closed form the benchmark checks with.  Each
test asserts that the two agree within the tolerance the benchmark states.
"""

import math
import sys
from pathlib import Path

import mpmath as mp
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles  # noqa: E402

mp.mp.dps = 30
U, L, KB, EPS = 0.3, 1.0, 1.0, 1e-3


def _tanh_over_x(lo, hi):
    return mp.quad(lambda x: mp.tanh(x) / x if x else mp.mpf(1), [lo, hi])


def _mp_tc(u, eps):
    """t_c from the defining condition: integral of tanh(x)/x over
    [eps, L/(2 k_B t)] equals 1/u."""
    guess = mp.mpf(oracles.weak_coupling_tc(u, L, KB, eps))
    return mp.findroot(lambda t: _tanh_over_x(eps, L / (2 * KB * t)) - 1 / mp.mpf(u), guess)


def test_tanh_over_x_integral():
    expected = _tanh_over_x(0, EPS)
    assert oracles.tanh_over_x_integral(EPS) == pytest.approx(float(expected), rel=1e-15)


def test_weak_coupling_tc():
    exact = float(_mp_tc(U, EPS))
    oracles.check_tc(exact, U, L, KB, EPS)


def test_weak_coupling_fprime():
    t_c = _mp_tc(U, EPS)
    x = L / (2 * KB * t_c)
    kappa = lambda e: (mp.tanh(e) / e - mp.sech(e) ** 2) / e**2  # noqa: E731
    slope = mp.quad(kappa, [EPS, 1, x])
    exact = -8 * KB**2 * t_c * (mp.tanh(x) - mp.tanh(EPS)) / slope
    oracles.check_fprime(float(exact), float(t_c), L, KB, EPS)
    bcs = -8 * math.pi**2 * KB**2 * float(t_c) / (7 * oracles.ZETA3)
    # the window correction is what makes the tight tolerance hold
    assert abs(bcs - float(exact)) > 100 * oracles.FPRIME_FLOOR * abs(float(exact))


def test_sommerfeld_cv():
    n0, t = 1.0, 0.05
    kt = KB * t
    weight = lambda xi: mp.exp(xi / kt) / (1 + mp.exp(xi / kt)) ** 2  # noqa: E731
    exact = mp.quad(lambda xi: 2 * n0 * xi**2 * weight(xi) / (KB * t**2), [-mp.inf, 0, mp.inf])
    assert oracles.sommerfeld_cv(t, n0, KB) == pytest.approx(float(exact), rel=1e-14)


def test_checks_reject_the_weak_coupling_zeros():
    with pytest.raises(oracles.OracleMiss):
        oracles.check_normal_cv(0.0, 0.1, 1.0, 1.0, 1.0)
    with pytest.raises(oracles.OracleMiss):
        oracles.check_fprime(-1.9e-37, 1e-5, 1.0, 1.0, 0.0)
    with pytest.raises(oracles.OracleMiss):
        oracles.check_superconducting_point(-1.0, 1.0, 1e-70, 0.05, 1.0, 1.0)
    oracles.check_superconducting_point(-1.0, 1.0, 0.126, 0.0202, 1.0, 1.0)

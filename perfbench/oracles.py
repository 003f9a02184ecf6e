"""Independent oracles for the benchmark's correctness checks.

Nothing here imports bcsgap or the repository's tests: each oracle is a
closed form from weak-coupling BCS theory (Bardeen, Cooper and Schrieffer,
Phys. Rev. 108, 1175 (1957); Muehlschlegel, Z. Phys. 155, 313 (1959)) with
its finite-window correction written out, plus a tolerance that states how
large the neglected terms can be.  Every check raises OracleMiss with the
measured and expected numbers, so a failed op says why it failed.

Notation: u is the coupling u0n0, L the window edge hbar_omega_d, X the
upper window limit L / (2 k_B t_c) in units of eta = xi / (2 k_B t_c).
"""

import math

import numpy as np

EULER_GAMMA = 0.57721566490153286061
ZETA3 = 1.2020569031595942854
# integral over (0, inf) of (tanh(eta)/eta - sech^2(eta)) / eta^2 = 7 zeta(3) / pi^2
SLOPE_INTEGRAL = 7.0 * ZETA3 / math.pi**2

TC_FLOOR = 1e-10  # relative; solve_tc promises a 1e-12 defect in the t_c condition
FPRIME_FLOOR = 1e-8  # relative; f'(t_c) is a quotient of two 1e-12 quadratures
SOMMERFELD_FLOOR = 1e-8  # relative; c_v is an analytic second derivative of 1e-12 quadratures
CV_FLOOR = 1e-2  # superconducting c_v over the normal c_v, below t_c
RESIDUAL_TOL = 1e-10  # gap-curve node residual, the library's documented contract
JUMP_TOL = 1e-3  # relative; measured vs closed-form jump, the verify suite's default
JUMP_IDENTITY_TOL = 1e-10  # relative; Delta C = -t_c * jump is exact at eps = 0

_GL_X, _GL_W = np.polynomial.legendre.leggauss(24)


class OracleMiss(AssertionError):
    """A result that does not match its oracle within the stated tolerance."""


def tanh_over_x_integral(eps):
    """Integral of tanh(x)/x over [0, eps], by 24-point Gauss-Legendre.

    The integrand is entire within |x| < pi/2, so the rule is exact to
    rounding for the cutoffs the benchmark uses (eps <= 1).
    """
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"oracle covers 0 <= eps <= 1, got {eps}")
    if eps == 0.0:
        return 0.0
    x = 0.5 * eps * (_GL_X + 1.0)
    return float(0.5 * eps * np.sum(_GL_W * np.tanh(x) / x))


def weak_coupling_tc(u, hbar_omega_d, k_b, eps):
    """k_B t_c = (2 e^gamma / pi) L e^{-1/u} e^{-I(eps)}, returned as t_c.

    Exact up to the factor e^{-R(X)}, where R(X) = integral of
    (1 - tanh x)/x over [X, inf) < e^{-2X}/X is dropped.
    """
    scale = 2.0 * math.exp(EULER_GAMMA) / math.pi
    return scale * hbar_omega_d * math.exp(-1.0 / u - tanh_over_x_integral(eps)) / k_b


def _window_limit(t_c, hbar_omega_d, k_b):
    return hbar_omega_d / (2.0 * k_b * t_c)


def check_tc(t_c, u, hbar_omega_d, k_b, eps):
    expected = weak_coupling_tc(u, hbar_omega_d, k_b, eps)
    x = _window_limit(expected, hbar_omega_d, k_b)
    tol = TC_FLOOR + math.exp(-2.0 * x) / x
    _require(abs(t_c - expected) <= tol * expected, "t_c", t_c, expected, tol)


def weak_coupling_fprime(t_c, hbar_omega_d, k_b, eps):
    """Slope of the squared gap at t_c with its window corrections.

    BCS: f'(t_c) = -8 pi^2 k_B^2 t_c / (7 zeta(3)) for an infinite window.
    On the window [eps, X] the two integrals of the implicit-function
    quotient lose their ends: the sech^2 integral is tanh X - tanh eps, and
    the slope-kernel integral loses (2/3) eps + O(eps^3) at the bottom and
    1/(2 X^2) + O(e^{-2X}) at the top.  The O(eps^3) term is the error.
    """
    x = _window_limit(t_c, hbar_omega_d, k_b)
    sech_part = math.tanh(x) - math.tanh(eps)
    slope_part = SLOPE_INTEGRAL - 2.0 * eps / 3.0 - 0.5 / (x * x)
    return -8.0 * k_b**2 * t_c * sech_part / slope_part


def check_fprime(f_prime, t_c, hbar_omega_d, k_b, eps):
    expected = weak_coupling_fprime(t_c, hbar_omega_d, k_b, eps)
    tol = FPRIME_FLOOR + eps**3
    _require(abs(f_prime - expected) <= tol * abs(expected), "f'(t_c)", f_prime, expected, tol)


def sommerfeld_cv(t, n0, k_b):
    """Normal-state specific heat (2 pi^2 / 3) n0 k_B^2 T of a flat band."""
    return 2.0 * math.pi**2 / 3.0 * n0 * k_b**2 * t


def check_normal_cv(c_v, t, n0, k_b, hbar_omega_d):
    """c_v above t_c against Sommerfeld.

    The density of states is n0 inside the window and departs from it only
    outside, where the thermal weight of the specific heat is bounded by
    (L / k_B T)^2 e^{-L / (k_B T)}; that bound is the tolerance.
    """
    expected = sommerfeld_cv(t, n0, k_b)
    z = hbar_omega_d / (k_b * t)
    tol = SOMMERFELD_FLOOR + z * z * math.exp(-z)
    _require(abs(c_v - expected) <= tol * expected, "c_v above t_c", c_v, expected, tol)


def check_superconducting_point(omega, entropy, c_v, t, n0, k_b):
    """Below t_c: finite fields, positive entropy, and c_v above a loose floor.

    In weak-coupling BCS the superconducting c_v stays within a factor of
    about 3 of the normal one on [0.5, 1) t_c (0.94 of it at 0.5 t_c and
    u0n0 = 0.3 or 0.12 here), so CV_FLOOR * Sommerfeld only rejects values
    that are off by orders of magnitude, such as the 1e-70 of the
    weak-coupling defect.
    """
    for name, v in (("omega", omega), ("entropy", entropy), ("c_v", c_v)):
        if not math.isfinite(v):
            raise OracleMiss(f"{name} below t_c is not finite: {v!r}")
    if not entropy > 0.0:
        raise OracleMiss(f"entropy below t_c is not positive: {entropy!r}")
    floor = CV_FLOOR * sommerfeld_cv(t, n0, k_b)
    if not c_v > floor:
        raise OracleMiss(f"c_v below t_c = {c_v!r}, under {CV_FLOOR:g} of the normal value {floor / CV_FLOOR!r}")


def check_curve(ts, fs, residuals, t_c, delta_sq):
    if ts[0] != 0.0 or ts[-1] != t_c:
        raise OracleMiss(f"curve spans [{ts[0]!r}, {ts[-1]!r}], not [0, {t_c!r}]")
    if fs[0] != delta_sq:
        raise OracleMiss(f"f(0) = {fs[0]!r}, closed form {delta_sq!r}")
    if fs[-1] != 0.0:
        raise OracleMiss(f"f(t_c) = {fs[-1]!r}, not 0")
    worst = max(residuals)
    if not worst <= RESIDUAL_TOL:
        raise OracleMiss(f"largest node residual {worst:.3e} above {RESIDUAL_TOL:g}")


def check_jump(measured, closed, cv_jump, t_c):
    _require(abs(measured - closed) <= JUMP_TOL * abs(closed), "measured jump", measured, closed, JUMP_TOL)
    if cv_jump is not None:
        expected = -t_c * closed
        _require(
            abs(cv_jump - expected) <= JUMP_IDENTITY_TOL * abs(expected),
            "Delta C", cv_jump, expected, JUMP_IDENTITY_TOL,
        )


def check_verify_report(exit_code, report, n_checks=31):
    if exit_code != 0:
        raise OracleMiss(f"verify exited {exit_code}")
    if report.get("pass") is not True:
        failed = [c["name"] for c in report.get("checks", []) if not c.get("pass")]
        raise OracleMiss(f"verify report fails: {failed}")
    if len(report.get("checks", [])) != n_checks:
        raise OracleMiss(f"verify report has {len(report['checks'])} checks, expected {n_checks}")


def _require(ok, what, measured, expected, rel_tol):
    if not ok:
        raise OracleMiss(
            f"{what} = {measured!r}, oracle {expected!r} (relative tolerance {rel_tol:.3g})"
        )

"""Independent numerical oracles used by the test suite.

Everything here is deliberately written without importing the package under
test (beyond plain numbers passed in), so agreement between the two is
evidence rather than tautology.  The tools are brute-force Simpson sums,
central finite differences with Richardson extrapolation, Neville
extrapolation to zero step, and slow mpmath evaluations.
"""

import math

import mpmath as mp
import numpy as np


def simpson(f, a, b, n=100_000):
    """Composite Simpson rule with n panels (n made even)."""
    n += n % 2
    x = np.linspace(a, b, n + 1)
    y = np.asarray(f(x), dtype=float)
    h = (b - a) / n
    return h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum())


def d1_central(f, x, h):
    """Five-point first derivative, O(h^4)."""
    return (f(x - 2 * h) - 8.0 * f(x - h) + 8.0 * f(x + h) - f(x + 2 * h)) / (12.0 * h)


def d2_central(f, x, h):
    """Five-point second derivative, O(h^4)."""
    return (
        -f(x - 2 * h) + 16.0 * f(x - h) - 30.0 * f(x) + 16.0 * f(x + h) - f(x + 2 * h)
    ) / (12.0 * h * h)


def d1_onesided(f, x, h):
    """Five-point one-sided first derivative from x, x + h, ..., x + 4h, O(h^4).

    h may be negative, for a stencil that reaches back from x.
    """
    return (
        -25.0 * f(x) + 48.0 * f(x + h) - 36.0 * f(x + 2 * h) + 16.0 * f(x + 3 * h) - 3.0 * f(x + 4 * h)
    ) / (12.0 * h)


def richardson(stencil, f, x, h):
    """One Richardson level on an O(h^4) stencil: error drops to O(h^6)."""
    return (16.0 * stencil(f, x, h / 2.0) - stencil(f, x, h)) / 15.0


def neville_to_zero(hs, ys):
    """Polynomial extrapolation of samples y(h) to h = 0 (Neville tableau)."""
    hs = [float(h) for h in hs]
    ys = [float(y) for y in ys]
    n = len(hs)
    tab = list(ys)
    for level in range(1, n):
        for i in range(n - level):
            tab[i] = tab[i + 1] + (tab[i + 1] - tab[i]) * hs[i + level] / (
                hs[i] - hs[i + level]
            )
    return tab[0]


def mp_tanh_over_x_integral(lo, hi, dps=30):
    """High-precision integral of tanh(x)/x over [lo, hi]."""
    with mp.workdps(dps):
        return float(mp.quad(lambda x: mp.tanh(x) / x if x != 0 else mp.mpf(1), [lo, hi]))


def tc_defect(u0n0, hbar_omega_d, k_b, eps, t_c, dps=30):
    """Relative defect of the critical-temperature condition at t_c.

    The condition ties the inverse coupling to the integral of tanh(x)/x
    between the cutoff and the half-bandwidth in thermal units.  Returns
    (integral - 1/u0n0) * u0n0, which is zero at the true t_c.
    """
    with mp.workdps(dps):
        upper = mp.mpf(hbar_omega_d) / (2 * mp.mpf(k_b) * mp.mpf(t_c))
        val = mp.quad(
            lambda x: mp.tanh(x) / x if x != 0 else mp.mpf(1), [mp.mpf(eps), upper]
        )
        return float((val - 1 / mp.mpf(u0n0)) * mp.mpf(u0n0))


def mp_tc(u0n0, hbar_omega_d, k_b, eps=0.0, dps=30, tol=None):
    """Critical temperature by bisection on the defining condition (mpmath)."""
    with mp.workdps(dps):
        target = 1 / mp.mpf(u0n0)

        def phi(t):
            upper = mp.mpf(hbar_omega_d) / (2 * mp.mpf(k_b) * t)
            return (
                mp.quad(lambda x: mp.tanh(x) / x if x != 0 else mp.mpf(1), [mp.mpf(eps), upper])
                - target
            )

        lo = mp.mpf(hbar_omega_d) / mp.mpf(k_b) * mp.mpf("1e-6")
        hi = mp.mpf(hbar_omega_d) / mp.mpf(k_b) * mp.mpf(10)
        flo, fhi = phi(lo), phi(hi)
        assert flo > 0 > fhi, "oracle bracket failed"
        tol = tol or mp.mpf(10) ** (-(dps - 5))
        while (hi - lo) / lo > tol:
            mid = mp.sqrt(lo * hi)
            if phi(mid) > 0:
                lo = mid
            else:
                hi = mid
        return float(mp.sqrt(lo * hi))


def _mp_zero_t(u0n0, hbar_omega_d, k_b, eps, t_c):
    """Squared zero-temperature gap and the residual's y-slope there (mpf).

    On the pairing window [a, L], a = 2 k_b t_c eps, the gap is the closed
    form sqrt((L - a e^{1/u})(L - a e^{-1/u})) / sinh(1/u), and at t = 0
    the residual's y-derivative is -(A(L) - A(a)) / 2 with
    A(xi) = xi / (y sqrt(xi^2 + y)).  Call inside mp.workdps.
    """
    inv = 1 / mp.mpf(u0n0)
    big, a = mp.mpf(hbar_omega_d), 2 * mp.mpf(k_b) * mp.mpf(t_c) * mp.mpf(eps)
    y = (big - a * mp.exp(inv)) * (big - a * mp.exp(-inv)) / mp.sinh(inv) ** 2
    anti = lambda xi: xi / (y * mp.sqrt(xi * xi + y))
    return y, -(anti(big) - anti(a)) / 2


def mp_zero_t_slope(u0n0, hbar_omega_d, k_b, eps, t_c, dps=60):
    """Closed-form y-derivative of the residual at (0, f(0)) (mpmath)."""
    with mp.workdps(dps):
        return float(_mp_zero_t(u0n0, hbar_omega_d, k_b, eps, t_c)[1])


def mp_cold_gap(u0n0, hbar_omega_d, k_b, eps, t_c, t, dps=60):
    """Squared gap at a cold temperature, to first order in its depletion.

    With E = sqrt(xi^2 + y) the residual splits as
    F(t, y) = F(0, y) - 2 * int dxi / (E (e^{E / (k_b t)} + 1)); linearising
    F(0, .) about f(0) puts the curve delta(t) = thermal / d_y below f(0),
    where thermal is that (negative) integral at y = f(0) and d_y the
    zero-temperature slope.  The neglected terms are O(delta^2), far below
    one ulp of f wherever delta itself is a few thousand ulps or less.
    Returns (f(0) - delta correctly rounded, delta) as floats.
    """
    with mp.workdps(dps):
        y, d_y = _mp_zero_t(u0n0, hbar_omega_d, k_b, eps, t_c)
        if t == 0:
            return float(y), 0.0
        kt = mp.mpf(k_b) * mp.mpf(t)
        big, a = mp.mpf(hbar_omega_d), 2 * mp.mpf(k_b) * mp.mpf(t_c) * mp.mpf(eps)

        def excess(xi):
            e = mp.sqrt(xi * xi + y)
            return 2 / (e * (mp.exp(e / kt) + 1))

        # the integrand falls off over xi ~ sqrt(2 k_b t gap); split there
        width = mp.sqrt(2 * kt * mp.sqrt(y))
        cuts = [a + width * k for k in (1, 4, 16, 64) if a + width * k < big]
        delta = -mp.quad(excess, [a, *cuts, big]) / d_y
        return float(y - delta), float(delta)


def mp_kernel_small(eta, dps=60):
    """Reference value of (sech^2 x - tanh x / x) / x^2 at any x (mpmath).

    Uses enough working digits that the subtractive cancellation near zero
    is irrelevant; at x = 1e-6 roughly 40 digits cancel.
    """
    with mp.workdps(dps):
        x = mp.mpf(eta)
        if x == 0:
            return float(mp.mpf(-2) / 3)
        return float((1 / mp.cosh(x) ** 2 - mp.tanh(x) / x) / x**2)


def mp_curvature_kernel(eta, dps=60):
    """Reference value of the second-variation kernel (mpmath).

    (3 * kernel(x) + 2 tanh x / (x cosh^2 x)) / x^2 with the same guard
    against cancellation as mp_kernel_small.
    """
    with mp.workdps(dps):
        x = mp.mpf(eta)
        if x == 0:
            return float(mp.mpf(-16) / 15)
        g = (1 / mp.cosh(x) ** 2 - mp.tanh(x) / x) / x**2
        return float((3 * g + 2 * mp.tanh(x) / (x * mp.cosh(x) ** 2)) / x**2)


def fermi(x):
    """Fermi factor 1/(1 + e^x), overflow-safe for large |x| (numpy-safe)."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    pos = x >= 0
    u = np.exp(-np.abs(x))
    out[pos] = u[pos] / (1.0 + u[pos])
    out[~pos] = 1.0 / (1.0 + u[~pos])
    return out if out.ndim else float(out)


def mp_normal_specific_heat(t, k_b, hbar_omega_d, n0, mu, xi_min=0.0, dps=30):
    """Specific heat of the normal branch at temperature t (mpmath).

    With w(xi) = xi^2 e^{xi/kt} / (1 + e^{xi/kt})^2 and the free-electron
    density of states n0 sqrt((xi + mu) / mu), c_v = (4 n0 W + 2 B) / (k_b t^2),
    where W integrates w over the pairing window [xi_min, L] and B integrates
    w times the density of states over both band pieces outside it, the
    upper tail [L, inf) and, when mu > L, the lower band [-mu, -L].
    """
    with mp.workdps(dps):
        kt = mp.mpf(k_b) * mp.mpf(t)
        big, mu, n0 = mp.mpf(hbar_omega_d), mp.mpf(mu), mp.mpf(n0)
        w = lambda xi: xi * xi / (4 * mp.cosh(xi / (2 * kt)) ** 2)
        dos = lambda xi: n0 * mp.sqrt(max(xi + mu, 0) / mu)
        # the weight decays over kt; split where it does
        steps = [big + kt * k for k in (2, 8, 32, 128, 512)]
        window = mp.quad(w, [mp.mpf(xi_min), big])
        band = mp.quad(lambda xi: dos(xi) * w(xi), [big, *steps, mp.inf])
        if mu > big:
            band += mp.quad(lambda xi: dos(-xi) * w(xi), [big, *(s for s in steps if s < mu), mu])
        return float((4 * n0 * window + 2 * band) / (kt * mp.mpf(t)))


def _mp_scaled_quad(g, lo, hi, width):
    """Integral of g over [lo, hi], split at lo + width 4^k and scaled by g half a width up (call inside mp.workdps).

    mp.quad stops on an absolute error, so the scaling keeps the integral's
    relative accuracy however small it is.
    """
    cuts = [lo + width * 4**k for k in range(40) if lo + width * 4**k < hi]
    peak = g(lo + min(width, hi - lo) / 2)
    return peak * mp.quad(lambda x: g(x) / peak, [lo, *cuts, hi])


def _mp_band_sum(band_row, t, k_b, hbar_omega_d, n0, mu):
    """Band integral of n0 sqrt((xi + mu) / mu) band_row(|xi|) outside the pairing window.

    The band is the upper tail [L, L + 128 k_b t], past which band_row is
    below e^{-128} of its value at L, and, when mu > L, the lower band
    [-mu, -L], folded onto the same energies; each falls off over k_b t.
    Call inside mp.workdps, with every argument an mpf.
    """
    kt = k_b * t
    dos = lambda xi: n0 * mp.sqrt(max(xi + mu, 0) / mu)
    band = _mp_scaled_quad(lambda x: dos(x) * band_row(x), hbar_omega_d, hbar_omega_d + 128 * kt, kt)
    if mu > hbar_omega_d:
        band += _mp_scaled_quad(lambda x: dos(-x) * band_row(x), hbar_omega_d, mu, kt)
    return band


def _mp_thermal_sum(window_row, band_row, t, k_b, hbar_omega_d, n0, mu, xi_min, f):
    """4 n0 times the pairing-window integral of window_row(E) at E = sqrt(xi^2 + f), plus 2
    times the _mp_band_sum of band_row.

    The window's integrand falls off from xi_min over sqrt(2 k_b t sqrt(f)),
    or k_b t when that is smaller or f = 0, and _mp_scaled_quad splits it
    there.  Call inside mp.workdps, with every argument an mpf.
    """
    kt = k_b * t
    width = min(kt, mp.sqrt(2 * kt * mp.sqrt(f))) if f > 0 else kt
    window = _mp_scaled_quad(lambda xi: window_row(mp.sqrt(xi * xi + f)), xi_min, hbar_omega_d, width)
    return 4 * n0 * window + 2 * _mp_band_sum(band_row, t, k_b, hbar_omega_d, n0, mu)


def mp_band_derivatives(t, k_b, hbar_omega_d, n0, mu, dps=20):
    """First and second temperature derivatives of the band's part of the potential (mpmath).

    With s(x) = ln(1 + e^{-x}) + x / (e^x + 1) and w(x) = e^x / (1 + e^x)^2,
    they are -2 k_b B_s and -2 B_w / (k_b t^3), where B_s integrates
    s(xi / k_b t) and B_w integrates w(xi / k_b t) xi^2 times the
    free-electron density of states over the band outside the pairing
    window: tail_potential's d1 and d2.
    """
    with mp.workdps(dps):
        t, k_b, big, n0, mu = map(mp.mpf, (t, k_b, hbar_omega_d, n0, mu))
        kt = k_b * t
        s = lambda e: mp.log1p(mp.exp(-e / kt)) + (e / kt) / (mp.exp(e / kt) + 1)
        w = lambda e: e * e / (4 * mp.cosh(e / (2 * kt)) ** 2)
        band = lambda row: _mp_band_sum(row, t, k_b, big, n0, mu)
        return float(-2 * k_b * band(s)), float(-2 * band(w) / (kt * t * t))


def mp_superconducting_entropy(t, k_b, hbar_omega_d, n0, mu, xi_min, f, dps=20):
    """Entropy at temperature t and squared gap f, in quasiparticle form (mpmath).

    With E = sqrt(xi^2 + f) on the pairing window and s(x) = ln(1 + e^{-x})
    + x / (e^x + 1), the entropy is k_b (4 n0 W + 2 B), where W integrates
    s(E / k_b t) over the window [xi_min, L] and B integrates s(xi / k_b t)
    times the free-electron density of states over the band outside it.
    Every integrand is positive.  f = 0 is the normal branch.
    """
    with mp.workdps(dps):
        t, k_b, big, n0, mu, a, f = map(mp.mpf, (t, k_b, hbar_omega_d, n0, mu, xi_min, f))
        kt = k_b * t
        row = lambda e: mp.log1p(mp.exp(-e / kt)) + (e / kt) / (mp.exp(e / kt) + 1)
        return float(k_b * _mp_thermal_sum(row, row, t, k_b, big, n0, mu, a, f))


def mp_superconducting_specific_heat(t, k_b, hbar_omega_d, n0, mu, xi_min, f, f_prime, dps=20):
    """Specific heat at temperature t, squared gap f and its slope f' <= 0, in quasiparticle form (mpmath).

    With E = sqrt(xi^2 + f) on the pairing window and w(x) = e^x / (1 + e^x)^2,
    c_v = (4 n0 W + 2 B) / (k_b t^2), where W integrates
    w(E / k_b t) (E^2 - t f' / 2) over the window [xi_min, L] and B
    integrates w(xi / k_b t) xi^2 times the free-electron density of states
    over the band outside it.  Every integrand is positive.  f = f' = 0 is
    mp_normal_specific_heat.
    """
    with mp.workdps(dps):
        t, k_b, big, n0, mu, a, f, f_prime = map(mp.mpf, (t, k_b, hbar_omega_d, n0, mu, xi_min, f, f_prime))
        kt = k_b * t
        w = lambda e: 1 / (4 * mp.cosh(e / (2 * kt)) ** 2)
        window_row = lambda e: w(e) * (e * e - t * f_prime / 2)
        band_row = lambda x: w(x) * x * x
        return float(_mp_thermal_sum(window_row, band_row, t, k_b, big, n0, mu, a, f) / (kt * t))


def mp_band_constant(n0, mu, hbar_omega_d, dps=40):
    """Integral of xi n0 sqrt((xi + mu) / mu) over [-mu, -hbar_omega_d] (mpmath).

    0 when mu <= hbar_omega_d, where the lower band is empty.  The
    square-root endpoint at -mu is handled by mpmath's tanh-sinh rule.
    """
    if mu <= hbar_omega_d:
        return 0.0
    with mp.workdps(dps):
        n0, mu, big = mp.mpf(n0), mp.mpf(mu), mp.mpf(hbar_omega_d)
        return float(mp.quad(lambda xi: xi * n0 * mp.sqrt((xi + mu) / mu), [-mu, -big]))


def _mp_kernel(kind, eta):
    """One pairing-window kernel at eta >= 0 (call inside mp.workdps).

    slope and curv cancel about 2 and 4 times log10(1/eta) digits near 0,
    so they are evaluated with that many extra digits.
    """
    if eta == 0:
        return {"sech": 1, "eta_tanh": 0, "slope": mp.mpf(-2) / 3, "mixed": 1, "curv": mp.mpf(-16) / 15}[kind]
    extra = 10 + 4 * max(0, int(-mp.log10(eta)))
    with mp.extradps(extra):
        s2, th = mp.sech(eta) ** 2, mp.tanh(eta)
        slope = (s2 - th / eta) / eta**2
        return +{
            "sech": s2,
            "eta_tanh": eta * th * s2,
            "slope": slope,
            "mixed": th * s2 / eta,
            "curv": (3 * slope + 2 * th * s2 / eta) / eta**2,
        }[kind]


def mp_window_integral(kind, t, y, k_b, xi_min, hbar_omega_d, dps=40):
    """Pairing-window integral of one kernel of eta = sqrt(xi^2 + y) / (2 k_b t).

    kind is "sech" (sech^2 eta), "eta_tanh" (eta tanh eta sech^2 eta),
    "slope" ((sech^2 eta - tanh(eta) / eta) / eta^2), "mixed"
    (tanh(eta) sech^2(eta) / eta) or "curv" ((3 slope + 2 tanh(eta)
    sech^2(eta) / eta) / eta^2), integrated over [xi_min, hbar_omega_d]
    (mpmath).  At a cold temperature the integrand is a narrow peak of width
    about sqrt(2 k_b t sqrt(y)) at the lower edge, and at y = 0 of width
    2 k_b t; the interval is split there and then geometrically, so the
    algebraic tails of slope (~eta^-3) and curv (~eta^-5) are resolved too.
    """
    with mp.workdps(dps):
        two_kt, y = 2 * mp.mpf(k_b) * mp.mpf(t), mp.mpf(y)
        a, big = mp.mpf(xi_min), mp.mpf(hbar_omega_d)

        def integrand(xi):
            return _mp_kernel(kind, mp.sqrt(xi * xi + y) / two_kt)

        # mp.quad stops on an absolute error, so the integrand one width
        # above the edge, nonzero for every kind, is scaled to 1
        width = mp.sqrt(two_kt * mp.sqrt(y)) if y > 0 else two_kt
        peak = integrand(a + width)
        steps = (1, 2, 4, 8, 16, 64, 256, *(4**k for k in range(5, 40)))
        cuts = [a + width * k for k in steps if a + width * k < big]
        return float(peak * mp.quad(lambda xi: integrand(xi) / peak, [a, *cuts, big]))


def mp_log_u(u0n0, dps=30):
    """ln U, U = hbar_omega_d / (2 k_b t_c), solving the t_c condition in ln U (mpmath).

    The condition is that tanh(x)/x integrates to 1/u0n0 over [0, U], with
    no unit in it.  Above a = 40 the integral is the one over [0, a] plus
    ln(U / a) minus the integral of (1 - tanh x)/x over [a, U], so the
    weak-coupling roots, with U up to e^200, take no quadrature over a huge
    interval.
    """
    with mp.workdps(dps):
        a, target = mp.mpf(40), 1 / mp.mpf(u0n0)
        tanh_over = lambda x: mp.tanh(x) / x if x != 0 else mp.mpf(1)
        rest = lambda x: (1 - mp.tanh(x)) / x
        head = mp.quad(tanh_over, [0, a])

        def defect(s):
            u = mp.exp(s)
            if u <= a:
                return mp.quad(tanh_over, [0, u]) - target
            return head + s - mp.log(a) - (mp.quad(rest, [a, mp.inf]) - mp.quad(rest, [u, mp.inf])) - target

        return float(mp.findroot(defect, target - mp.log(4 / mp.pi) - mp.euler))

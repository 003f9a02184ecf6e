"""Thermodynamic potential: normal part, condensation part, and the jump.

The potential is piecewise: the normal branch everywhere, plus a
condensation correction at and below the transition.  The correction and
its first temperature derivative vanish at the transition (the potential is
C1 there), while the second derivative jumps by a closed-form amount; the
specific-heat discontinuity follows from it.  Everything is evaluated with
overflow-safe thermal factors, and the semi-infinite band tails truncate on
the thermal decay scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import CutoffNotZero, NonFiniteInput, OutsideDomain
from .gap import GapPoint, _require_solved, gap_derivatives_at, gap_point_at
from .kernels import fermi, fermi_weight
from .model import ModelParams, _as_finite_float, _dos
from .quad import integrate, truncation_point

__all__ = [
    "JumpMeasurement",
    "ThermoPoint",
    "extrapolate_to_zero",
    "condensation_potential",
    "measured_second_derivative_jump",
    "normal_potential",
    "second_derivative_jump",
    "specific_heat_jump",
    "tail_potential",
    "thermo_to_csv",
    "thermodynamic_potential",
]

# Offsets t_c * 10^-k of the one-sided samples the measured jump extrapolates from.
_JUMP_KS = (3, 4, 5, 6)


@dataclass(frozen=True)
class ThermoPoint:
    """Potential and its first two temperature derivatives at one temperature.

    entropy = -omega_t and c_v = -t * omega_tt by definition.  branch is
    "superconducting" for t <= t_c and "normal" above.
    """

    t: float
    omega: float
    omega_t: float
    omega_tt: float
    entropy: float
    c_v: float
    branch: str


def _check_temperature(t) -> float:
    try:
        t = _as_finite_float("temperature", t)
    except NonFiniteInput as exc:
        raise OutsideDomain(str(exc)) from None
    if not t > 0.0:
        raise OutsideDomain(f"temperature must be > 0, got {t!r}")
    return t


def _thermal_rows(e, kt):
    """Rows ln(1 + e^{-e/kt}), e fermi(e/kt), e^2 fermi_weight(e/kt) at energies e >= 0."""
    return np.stack((np.log1p(np.exp(-e / kt)), e * fermi(e / kt), e * e * fermi_weight(e / kt)))


def _condensation_rows(xi, kt, f):
    """Condensation rows at squared gap f, with s = sqrt(xi^2 + f).

    The log ratio, gap shift, occupation difference, and fermi_weight(s/kt)
    times (xi^2 + f) and times 1, apart so f' multiplies outside the integral.
    """
    s = np.sqrt(xi * xi + f)
    # sqrt(xi^2 + f) - xi without cancellation for xi >> sqrt(f)
    shift = f / (s + xi)
    # ln((1 + e^{-s/kt}) / (1 + e^{-xi/kt})) collapsed to a single log1p:
    # the two logarithms agree to O(f), so subtracting them directly would
    # leave only cancellation noise once the gap is small
    ln_ratio = np.log1p(fermi(xi / kt) * np.expm1(-shift / kt))
    # xi fermi(xi/kt) - s fermi(s/kt), with the occupation drop
    # fermi(v) - fermi(u) = -fermi(v) expm1(v - u) / (1 + e^{-u}) kept in
    # factored form for the same reason as ln_ratio
    drop = -np.expm1(-shift / kt) / (1.0 + np.exp(-s / kt))
    occ_diff = xi * fermi(xi / kt) * drop - shift * fermi(s / kt)
    weight = fermi_weight(s / kt)
    return np.stack((ln_ratio, shift, occ_diff, weight * (xi * xi + f), weight))


def _quadratures(t: float, params: ModelParams, point: GapPoint | None = None):
    """Every temperature-dependent integral of the potential at t, as lists.

    Three stacked quadrature calls: the _thermal_rows times the density of
    states on the lower band (none when mu lies inside the window) and on
    the upper tail, summed into band; and the pairing window's
    _thermal_rows, then its _condensation_rows if point is given.  Both band
    pieces stop at one edge where the thermal rows are negligible, so their
    decay over k_b t is resolved however far mu or the tail reaches; when
    k_b t is below the rounding of hbar_omega_d the edge is hbar_omega_d
    itself and both pieces are skipped.  The window is
    mapped on sqrt(f + (pi k_b t)^2), the distance from the real axis of its
    integrands' nearest singularities.
    """
    kt = params.k_b * t
    n0, mu, L, spec = params.n0, params.mu, params.hbar_omega_d, params.quad_spec
    edge = truncation_point(L, kt, spec)
    band = np.zeros(3)
    if edge > L:  # else the rows carry e^{-L/kt}, exactly 0 in float64
        band = integrate(lambda xi: _dos(xi, n0, mu) * _thermal_rows(xi, kt), L, edge, spec)[0]
        if mu > L:
            band = integrate(lambda xi: _dos(xi, n0, mu) * _thermal_rows(-xi, kt), -min(mu, edge), -L, spec)[0] + band
    f = 0.0 if point is None else point.f

    def window(xi):
        rows = _thermal_rows(xi, kt)
        return rows if point is None else np.concatenate((rows, _condensation_rows(xi, kt, f)))

    scale = math.sqrt(f + (math.pi * kt) ** 2)
    return band.tolist(), integrate(window, params.xi_min, L, spec, scale=scale)[0].tolist()


def _tail_parts(t: float, params: ModelParams, band) -> tuple:
    kb, kt = params.k_b, params.k_b * t
    ln, occ, w = band
    return (
        2.0 * params.band_constant - 2.0 * kt * ln,
        -2.0 * kb * ln - (2.0 / t) * occ,
        -2.0 / (kb * t**3) * w,
    )


def _normal_parts(t: float, params: ModelParams, band, window) -> tuple:
    n0, kb, kt = params.n0, params.k_b, params.k_b * t
    a, L = params.xi_min, params.hbar_omega_d
    ln, occ, w = window[:3]
    tails = _tail_parts(t, params, band)
    return (
        -n0 * (L * L - a * a) - 4.0 * n0 * kt * ln + tails[0],
        -4.0 * n0 * kb * ln - (4.0 * n0 / t) * occ + tails[1],
        -4.0 * n0 / (kb * t**3) * w + tails[2],
    )


def _condensation_parts(t: float, params: ModelParams, point: GapPoint, window) -> tuple:
    n0, kb, kt = params.n0, params.k_b, params.k_b * t
    _, _, w, ratio, shift, occ, w_shift, w_gap = window
    f, f_prime = point.f, point.f_prime
    return (
        f * n0 / params.u0n0 - 2.0 * n0 * shift - 4.0 * n0 * kt * ratio,
        -4.0 * n0 * kb * ratio + (4.0 * n0 / t) * occ,
        4.0 * n0 / (kb * t**3) * (w - (w_shift - t * f_prime / 2.0 * w_gap)),
    )


def tail_potential(t: float, params: ModelParams) -> tuple:
    """Band contributions from outside the pairing window, with derivatives.

    Covers energies in [-mu, -hbar_omega_d] (empty when mu is inside the
    window) and [hbar_omega_d, inf); the improper tail truncates on the
    thermal decay scale k_b * t.  Returns (value, d1, d2).
    """
    t = _check_temperature(t)
    return _tail_parts(t, params, _quadratures(t, params)[0])


def normal_potential(t: float, params: ModelParams) -> tuple:
    """Normal-branch potential with derivatives: pairing window plus tails.

    The window's zero-point piece -n0 * (hbar_omega_d^2 - xi_min^2) is a
    closed form; the thermal window piece and the tails are quadratures.
    """
    t = _check_temperature(t)
    return _normal_parts(t, params, *_quadratures(t, params))


def condensation_potential(t: float, params: ModelParams, gap: GapPoint) -> tuple:
    """Superconducting-minus-normal potential difference, with derivatives.

    gap is the solved GapPoint at t; f' is taken from it, or computed when
    it carries none.  Vanishes identically at t = t_c together with its
    first derivative; the second derivative does not, which is the whole
    point.  The first derivative's gap-equation bracket (slope of the gap
    times the residual) is dropped analytically; the verify suite reports
    its size.
    """
    t = _check_temperature(t)
    if t > params.t_c:
        raise OutsideDomain(f"condensation part exists for 0 < t <= t_c, got t = {t!r}")
    _require_solved(t, gap)
    if gap.f_prime is None:
        gap = replace(gap, f_prime=gap_derivatives_at(t, params, gap)[0])
    _, window = _quadratures(t, params, gap)
    return _condensation_parts(t, params, gap, window)


def thermodynamic_potential(t: float, params: ModelParams) -> ThermoPoint:
    """Piecewise potential at one temperature, with entropy and specific heat.

    At or below the transition the condensation part is added to the normal
    branch (the gap is solved internally); above it the normal branch alone.
    Either way every integral comes from one _quadratures pass.
    """
    t = _check_temperature(t)
    point = gap_point_at(t, params) if t <= params.t_c else None
    band, window = _quadratures(t, params, point)
    parts = _normal_parts(t, params, band, window)
    if point is not None:
        parts = tuple(nv + cv for nv, cv in zip(parts, _condensation_parts(t, params, point, window)))
    omega, omega_t, omega_tt = parts
    return ThermoPoint(
        t=t,
        omega=omega,
        omega_t=omega_t,
        omega_tt=omega_tt,
        entropy=-omega_t,
        c_v=-t * omega_tt,
        branch="normal" if point is None else "superconducting",
    )


def second_derivative_jump(params: ModelParams) -> float:
    """Closed-form jump of the potential's second derivative at t_c.

    (2 n0 f'(t_c) / t_c) * (fermi(2 eps) - fermi(hbar_omega_d / (k_b t_c))).
    The slope factor is negative and the occupation bracket positive, so the
    jump is strictly negative: the limit from below lies under the limit
    from above.
    """
    f_prime = gap_point_at(params.t_c, params).f_prime
    bracket = float(fermi(2.0 * params.eps)) - float(
        fermi(params.hbar_omega_d / (params.k_b * params.t_c))
    )
    return 2.0 * params.n0 * f_prime / params.t_c * bracket


def extrapolate_to_zero(hs, ys) -> float:
    """Neville tableau for the limit of y(h) as h -> 0."""
    hs = [float(h) for h in hs]
    tab = [float(y) for y in ys]
    n = len(tab)
    for level in range(1, n):
        for i in range(n - level):
            tab[i] = tab[i + 1] + (tab[i + 1] - tab[i]) * hs[i + level] / (
                hs[i] - hs[i + level]
            )
    return tab[0]


@dataclass(frozen=True)
class JumpMeasurement:
    """One-sided limits at t_c measured from samples.

    below and above are the limits of the second derivative; omega and
    omega_t hold the (below, above) limits of the potential and its slope.
    """

    below: float
    above: float
    omega: tuple[float, float]
    omega_t: tuple[float, float]

    @property
    def jump(self) -> float:
        return self.below - self.above


def measured_second_derivative_jump(params: ModelParams) -> JumpMeasurement:
    """Jump of the potential's second derivative measured from one-sided fits.

    Protocol: evaluate the potential at t_c * (1 -+ 10^-k) for each k in
    _JUMP_KS, then extrapolate each side to t_c with a Neville tableau.
    This is the measurement the closed form is certified against; the
    limits of omega and omega_t from the same points certify continuity.
    """
    t_c = params.t_c
    hs = [t_c * 10.0 ** (-k) for k in _JUMP_KS]
    sides = [[thermodynamic_potential(t_c + s * h, params) for h in hs] for s in (-1.0, 1.0)]

    def limits(field):
        return tuple(extrapolate_to_zero(hs, [getattr(p, field) for p in side]) for side in sides)

    below, above = limits("omega_tt")
    return JumpMeasurement(below=below, above=above, omega=limits("omega"), omega_t=limits("omega_t"))


def specific_heat_jump(params: ModelParams) -> float:
    """Closed-form specific-heat discontinuity at t_c (cutoff-free mode only).

    -n0 * f'(t_c) * tanh(hbar_omega_d / (2 k_b t_c)), strictly positive:
    the superconducting side carries the larger specific heat.  Equals
    -t_c times the second-derivative jump when eps = 0.
    """
    if params.eps != 0.0:
        raise CutoffNotZero(
            f"the specific-heat closed form needs eps = 0, got eps = {params.eps}"
        )
    f_prime = gap_point_at(params.t_c, params).f_prime
    return -params.n0 * f_prime * math.tanh(
        params.hbar_omega_d / (2.0 * params.k_b * params.t_c)
    )


def thermo_to_csv(points) -> str:
    """Serialize ThermoPoints with the fixed column order."""
    lines = ["T,omega,omega_t,omega_tt,entropy,c_v,branch"]
    for p in points:
        cells = (p.t, p.omega, p.omega_t, p.omega_tt, p.entropy, p.c_v)
        lines.append(",".join(f"{v:.17g}" for v in cells) + f",{p.branch}")
    return "\n".join(lines) + "\n"

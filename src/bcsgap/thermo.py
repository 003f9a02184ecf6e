"""Thermodynamic potential in quasiparticle form, and the jump at t_c.

At squared gap f, 0 at and above the transition, the potential is a
closed-form constant, the band outside the pairing window, and the window
at E = sqrt(xi^2 + f) (Bardeen, Cooper and Schrieffer 1957; Muehlschlegel
1959), whose entropy and specific heat are integrals of positive rows, so
they keep their relative accuracy however far below t_c they fall.  The
condensation part, superconducting minus normal, and its first temperature
derivative vanish at the transition (the potential is C1 there), while the
second derivative jumps by a closed-form amount, and the specific heat by
-t_c times it at every cutoff.  Thermal factors are overflow-safe.  Every
window row decays like e^{-E / k_b t}, so the window and the condensation
part are integrated up to the kernels' thermal edge, by
kernels._ungated_pass, the one owner of every pairing-window quadrature,
and their work does not grow with the window; the semi-infinite band
truncates on its own thermal decay scale, as its rows can outweigh the
window's far below t_c.  It is integrated only at a temperature where it
can reach the window's quadrature target: its rows start
hbar_omega_d - E_min above the window's lowest quasiparticle energy E_min,
and past one thermal edge, allowing for its density of states, they
cannot.  At and below t_c the window's rows depend on the solved root
(t, f) alone, f' entering only as a factor outside the integral, so they
ride in the gap's certified pass at that root: a cold point takes that one
certified window quadrature, and a warm one the normal window's, each with
the band's where the band can reach the target.  Every entry checks each
temperature once, in _gated_temperature, which also gives its core value.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteInput, OutsideDomain
from .gap import GapPoint, _csv, _require_solved, _solved_columns, solve_gap_at
from .kernels import _COLDEST, _EDGE, _ungated_pass, fermi, fermi_weight
from .model import ModelParams, _as_finite_float, _dos, _normal_constant
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
# Temperatures per stacked pass of _points.  Every temperature adds three
# or four rows on every node, so the cap keeps peak memory independent of
# how many temperatures a batch is given.
_BATCH = 64
# Hottest temperature, in units of t_c, that thermo evaluates: the parts divide by its cube.
_HOTTEST = sys.float_info.max ** (1.0 / 3.0)
# Columns of a thermo table, each with the ThermoPoint field it holds.
_THERMO_COLUMNS = {"T": "t", **{field: field for field in ("omega", "omega_t", "omega_tt", "entropy", "c_v", "branch")}}


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


def _gated_temperature(t, params: ModelParams) -> tuple:
    """(t, tau): a checked temperature t > 0 and tau = t / t_c, its core value.

    One below _COLDEST t_c is evaluated there, as the scalar residual
    functions do; one above _HOTTEST t_c is refused.
    """
    try:
        t = _as_finite_float("temperature", t)
    except NonFiniteInput as exc:
        raise OutsideDomain(str(exc)) from None
    if not t > 0.0:
        raise OutsideDomain(f"temperature must be > 0, got {t!r}")
    tau = max(t / params.t_c, _COLDEST)
    if not tau <= _HOTTEST:
        raise OutsideDomain(f"temperature {t!r} is above {_HOTTEST:.6g} t_c, whose cube overflows")
    return t, tau


def _thermal_rows(e, kt, split=False):
    """Rows ln(1 + u), e fermi(e/kt) and e^2 fermi_weight(e/kt) at energies e >= 0, all from u = e^{-e/kt}.

    split=True appends fermi_weight(e/kt) itself, the row that a lift of the
    third row multiplies.  kt is a float, or a column of n temperatures,
    which gives each row n rows in turn.
    """
    u = np.exp(-e / kt)
    weight = u / (1.0 + u) ** 2
    rows = (np.log1p(u), e * (u / (1.0 + u)), e * e * weight)
    return np.vstack(rows + (weight,) if split else rows)


def _condensation_rows(xi, kt, f):
    """Condensation rows at squared gap f, with s = sqrt(xi^2 + f).

    The log ratio, the occupation difference, and fermi_weight(s/kt) times
    (xi^2 + f) and times 1, apart so f' multiplies outside the integral.
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
    return np.vstack((ln_ratio, occ_diff, weight * (xi * xi + f), weight))


def _column(values: list):
    """Floats as a column against a row of nodes; a lone float stays a float, as numpy broadcasts it faster."""
    return values[0] if len(values) == 1 else np.array(values)[:, None]


def _band(ts: list, params: ModelParams) -> list:
    """The band's _thermal_rows integrals at core temperatures ts, one list of three per temperature.

    Runs on the core view, where k_b = n0 = 1, and stacks the rows of every
    temperature on shared nodes, times the density of states of the band
    outside the pairing window.  Each integral keeps its own relative
    accuracy, as tail_potential returns them; a thermo point passes only
    temperatures whose band can reach its window's target (_reaching_band),
    so ts may be empty.  The band stops at one edge where the thermal rows
    of the warmest temperature are negligible, so their decay is resolved
    however far mu or the tail reaches; a temperature whose rows at the
    window edge, about e^{-hbar_omega_d / t}, are below the smallest normal
    float gets no band rows, as a relative target on them would underflow.
    The lower band's rows are the thermal rows at |xi|, so it,
    [-min(mu, edge), -L], is folded onto the upper tail [L, edge], and the
    band is one integral of their summed densities (the lower one exactly
    0 when mu lies inside the window).  It is integrated in the distance
    s = x - L above the window edge, mapped on the coldest temperature of
    the pass, the width over which its rows decay.  A lower band that ends
    before that edge is integrated apart instead: split at its midpoint,
    each half in the distance from its nearer end, so no node forms
    xi + mu where it cancels.  The half below the midpoint carries only the
    temperatures whose own truncation point passes it: a colder one's rows
    are negligible there, and a relative target on them would underflow.
    """
    mu, L = params.mu, params.hbar_omega_d
    band = [[0.0] * 3 for _ in ts]
    hot = [i for i, t in enumerate(ts) if L / t < -math.log(sys.float_info.min)]
    if not hot:
        return band
    kt = _column([ts[i] for i in hot])
    edge = truncation_point(L, max(ts[i] for i in hot))
    # at temperatures far above t_c these integrals, of order t^3.5, overflow; _physical refuses them
    with np.errstate(over="ignore", invalid="ignore"):
        split = L < mu < edge
        # the lower band's energies -x folded onto the tail's x: its density is exactly 0 where mu <= L
        lower = (lambda x: 0.0) if split else (lambda x: _dos(-x, 1.0, mu))

        def rows(s):
            x = L + s
            return (_dos(x, 1.0, mu) + lower(x)) * _thermal_rows(x, kt)

        values = integrate(rows, 0.0, edge - L, scale=min(ts[i] for i in hot))[0]
        if split:
            # energies L + s up to the midpoint, and mu - u^2 below it, where the density is u / sqrt(mu)
            half = (mu - L) / 2.0
            near = lambda s: np.sqrt((mu - L - s) / mu) * _thermal_rows(L + s, kt)
            # only a temperature whose truncation point passes the midpoint has rows
            # below it; the warmest's is the edge, above mu, so the stack is never empty
            deep = [j for j, i in enumerate(hot) if truncation_point(L, ts[i]) > L + half]
            deep_kt = _column([ts[hot[j]] for j in deep])
            bottom = lambda u: 2.0 * u * u / math.sqrt(mu) * _thermal_rows(mu - u * u, deep_kt)
            bottom_values = np.zeros((3, len(hot)))
            bottom_values[:, deep] = integrate(bottom, 0.0, math.sqrt(half))[0].reshape(3, -1)
            values = integrate(near, 0.0, half)[0] + bottom_values.ravel() + values
    for i, row in zip(hot, values.reshape(3, -1).T.tolist()):
        band[i] = row
    return band


def _reaching_band(ts: list, fs: list, params: ModelParams) -> list:
    """_band at core temperatures ts and squared gaps fs, with zero rows where the band cannot reach the window's target.

    One _band call, of the temperatures whose band can reach the target of
    the window's integrals beside it, possibly none.
    """
    L, mu = params.hbar_omega_d, params.mu
    # The bound.  E_min = sqrt(xi_min^2 + f) is the window's lowest
    # quasiparticle energy, and w(x) the band's density of states at x, its
    # two pieces summed, over the window's: (_dos(x) + _dos(-x)) / 2 at
    # n0 = 1, formed below in floats, as numpy would cost a lone point more
    # than the rest of the rule.  A band row at x >= L is at most the same
    # row at E_min times e^{-(x - E_min) / t}, a power of x / E_min and
    # w(x); the window's row, positive and entering each field with the
    # band's sign, keeps its value at E_min over a width of order t.  So the
    # band is at most e^{-(L - E_min) / t} w(L) times the window's, up to
    # factors that grow slowly in (x - E_min) / t, and, as past the kernels'
    # _EDGE, below the quadrature target wherever (L - E_min) / t >=
    # _EDGE + ln w(L).  w(L) grows like sqrt(L / mu) for mu < L, so a tiny
    # mu keeps its band.
    limit = _EDGE + math.log((math.sqrt(1.0 + L / mu) + math.sqrt(max(1.0 - L / mu, 0.0))) / 2.0)
    a2 = params.xi_min**2
    reach = [i for i, (t, f) in enumerate(zip(ts, fs)) if (L - math.sqrt(a2 + f)) / t < limit]
    band = [[0.0] * 3 for _ in ts]
    for i, row in zip(reach, _band([ts[i] for i in reach], params)):
        band[i] = row
    return band


def _normal_window(ts: list, params: ModelParams) -> list:
    """The window's _thermal_rows integrals at f = 0, where E = xi, at core temperatures ts: one window pass.

    Returns one list of three per temperature.  The solved gap's window
    rows are integrated in its certified pass instead (_points).
    """
    rows = lambda xi, y, kt: _thermal_rows(xi, kt)
    return _ungated_pass(np.array(ts), np.zeros(len(ts)), params, (), rows=rows)[1].T.tolist()


def _shift(params: ModelParams, f: float) -> float:
    """Integral of sqrt(xi^2 + f) - xi over the pairing window, in closed form.

    Its antiderivative (xi f / (E + xi) + f ln(xi + E)) / 2, E = sqrt(xi^2 + f),
    is a sum of positive terms with no cancellation for xi >> sqrt(f).
    """
    if f == 0.0:
        return 0.0
    a, L = params.xi_min, params.hbar_omega_d
    e_a, e_l = math.sqrt(a * a + f), math.sqrt(L * L + f)
    return 0.5 * f * (L / (e_l + L) - a / (e_a + a) + math.log((L + e_l) / (a + e_a)))


def _tails(t: float, band) -> tuple:
    """Core (value, d1, d2) of the band outside the window at t, from its _band integrals."""
    ln_b, occ_b, w_b = band
    return (-2.0 * t * ln_b, -2.0 * ln_b - (2.0 / t) * occ_b, -2.0 / t**3 * w_b)


def _parts(t: float, core: ModelParams, f: float, band, window) -> tuple:
    """Core (value, d1, d2) of the potential at t and squared gap f, less its constant.

    The band's _tails plus the window in quasiparticle form; at f = 0 the
    window terms are the normal branch's to the bit, as E = xi there.
    """
    ln, occ, w = window
    tails = _tails(t, band)
    return (
        f / core.u0n0 - 2.0 * _shift(core, f) - 4.0 * t * ln + tails[0],
        -4.0 * ln - (4.0 / t) * occ + tails[1],
        -4.0 / t**3 * w + tails[2],
    )


def _physical(t: float, params: ModelParams, parts, constant: float = 0.0) -> tuple:
    """Core (value, d1, d2) of a potential at t times n0 and params.scales, plus a constant.

    The temperature-independent constant is physical: in core units it is
    of order (mu / (k_b t_c))^2, which overflows where its physical value
    is far inside float64.  Raises OutsideDomain, naming t, unless all three
    are finite.
    """
    value, d1, d2 = (params.n0 * unit * part for unit, part in zip(params.scales, parts))
    return _finite(t, constant + value, d1, d2)


def _finite(t: float, *values: float) -> tuple:
    """values, once each is checked finite; OutsideDomain naming t if one is not."""
    if not all(map(math.isfinite, values)):
        raise OutsideDomain(f"the potential or a temperature derivative at t = {t!r} is not a finite float: {values}")
    return values


def _thermo_point(t: float, params: ModelParams, parts) -> ThermoPoint:
    """The ThermoPoint at t from its _parts, made physical once."""
    omega, omega_t, omega_tt = _physical(t, params, parts, _normal_constant(params))
    (c_v,) = _finite(t, -t * omega_tt)
    branch = "superconducting" if t <= params.t_c else "normal"
    # + 0.0: a cold point's exact zeros are stored as +0.0, not negated to -0.0
    return ThermoPoint(t, omega, omega_t, omega_tt, entropy=-omega_t + 0.0, c_v=c_v + 0.0, branch=branch)


def _points(ts, params: ModelParams) -> list[ThermoPoint]:
    """Piecewise potential at a batch of temperatures, in their order.

    Per _BATCH temperatures, one first-order _solved_columns call for those
    at or below t_c, as the potential reads f and f' alone, whose certified
    pass at the roots also integrates their window rows, _thermal_rows at
    the quasiparticle energies E = sqrt(xi^2 + f), formed here from the
    pass's nodes xi and roots f, on a map that allows for branch points:
    the first two rows are not even in E and branch at xi = +-i sqrt(f),
    just below t_c nearer than their poles.  The third row's lift -t f' / 2 >= 0,
    which keeps every row positive, multiplies the split-off weight row
    after the pass, so every row depends on the root (t, f) alone.  Above
    t_c the gap is f = f' = 0, the normal branch, whose window is one
    _normal_window call.  The band is one _reaching_band call, whose one
    _band call takes only the temperatures whose band can reach the
    window's target, at weak coupling often none.  A batch of one is
    thermodynamic_potential.
    """
    checked = [_gated_temperature(t, params) for t in ts]
    core = params.core
    f_unit, f_prime_unit, _ = params.scales
    split_rows = lambda xi, y, kt: _thermal_rows(np.sqrt(xi * xi + y), kt, split=True)
    points = []
    for lo in range(0, len(checked), _BATCH):
        chunk, taus = zip(*checked[lo:lo + _BATCH])
        cold = [i for i, t in enumerate(chunk) if t <= params.t_c]
        warm = [i for i, t in enumerate(chunk) if t > params.t_c]
        fs, windows = [0.0] * len(chunk), [None] * len(chunk)
        if cold:
            (_, f, _, f_prime), rows = _solved_columns(np.array([chunk[i] for i in cold]), params, 1, split_rows)
            for i, f_i, f_prime_i, (ln, occ, w_e, w) in zip(cold, f.tolist(), f_prime.tolist(), rows.T.tolist()):
                fs[i] = f_i / f_unit
                windows[i] = [ln, occ, w_e - taus[i] * (f_prime_i / f_prime_unit) / 2.0 * w]
        if warm:
            for i, window in zip(warm, _normal_window([taus[i] for i in warm], core)):
                windows[i] = window
        for t, tau, f, band, window in zip(chunk, taus, fs, _reaching_band(taus, fs, core), windows):
            points.append(_thermo_point(t, params, _parts(tau, core, f, band, window)))
    return points


def tail_potential(t: float, params: ModelParams) -> tuple:
    """Band contributions from outside the pairing window, with derivatives.

    Covers energies in [-mu, -hbar_omega_d] (empty when mu is inside the
    window) and [hbar_omega_d, inf); the improper tail truncates on the
    thermal decay scale k_b * t.  One _band call, at any temperature whose
    band rows are normal floats, so the band keeps its relative accuracy
    where the thermo point drops it.  Returns (value, d1, d2).
    """
    t, tau = _gated_temperature(t, params)
    (band,) = _band([tau], params.core)
    return _physical(t, params, _tails(tau, band), 2.0 * params.band_constant)


def normal_potential(t: float, params: ModelParams) -> tuple:
    """Normal-branch potential with derivatives: pairing window plus tails.

    The window's zero-point piece -n0 * (hbar_omega_d^2 - xi_min^2) is a
    closed form; the thermal window piece and the tails are quadratures.
    It is the f = 0 case of the thermo point, one _normal_window and one
    _reaching_band call, so above t_c it is thermodynamic_potential's to the
    bit, and where the band cannot reach the window's target it is not
    integrated.
    """
    t, tau = _gated_temperature(t, params)
    (window,), (band,) = _normal_window([tau], params.core), _reaching_band([tau], [0.0], params.core)
    return _physical(t, params, _parts(tau, params.core, 0.0, band, window), _normal_constant(params))


def condensation_potential(t: float, params: ModelParams, gap: GapPoint) -> tuple:
    """Superconducting-minus-normal potential difference, with derivatives.

    gap is the solved GapPoint at t, and f' is taken from it.  Vanishes
    identically at t = t_c together with its first derivative; the second
    derivative does not, which is the whole point.  The first derivative's
    gap-equation bracket (slope of the gap times the residual) is dropped
    analytically; the verify suite reports its size.  The
    _condensation_rows are one window pass, on nodes they share with the
    normal weight row xi^2 fermi_weight(xi/t), which the second derivative
    subtracts from; the shift is _shift.
    """
    t, tau = _gated_temperature(t, params)
    if t > params.t_c:
        raise OutsideDomain(f"condensation part exists for 0 < t <= t_c, got t = {t!r}")
    _require_solved(t, gap)
    core = params.core
    f, f_prime = gap.f / params.scales[0], gap.f_prime / params.scales[1]
    rows = lambda xi, y, kt: np.vstack((xi * xi * fermi_weight(xi / kt), _condensation_rows(xi, kt, y)))
    integrals = _ungated_pass(np.array([tau]), np.array([f]), core, (), rows=rows)[1]
    w, ratio, occ_diff, w_shift, w_gap = integrals[:, 0].tolist()
    cond = (
        f / core.u0n0 - 2.0 * _shift(core, f) - 4.0 * tau * ratio,
        -4.0 * ratio + (4.0 / tau) * occ_diff,
        4.0 / tau**3 * (w - (w_shift - tau * f_prime / 2.0 * w_gap)),
    )
    return _physical(t, params, cond)


def thermodynamic_potential(t: float, params: ModelParams) -> ThermoPoint:
    """Piecewise potential at one temperature, with entropy and specific heat.

    The band plus the window in quasiparticle form at the gap, solved
    internally at or below the transition and 0 above it.  Below t_c the
    window's integrals come from the gap's certified pass at its root, and
    above it from one window quadrature; the band is one more, on the core
    view, where it can reach the window's target, and the sum becomes
    physical once.  It is _points at one temperature.
    """
    return _points([t], params)[0]


def second_derivative_jump(params: ModelParams) -> float:
    """Closed-form jump of the potential's second derivative at t_c.

    (2 n0 f'(t_c) / t_c) * (fermi(2 eps) - fermi(hbar_omega_d / (k_b t_c))).
    The slope factor is negative and the occupation bracket positive, so the
    jump is strictly negative: the limit from below lies under the limit
    from above.
    """
    return _closed_form_jumps(params)[0]


def extrapolate_to_zero(hs, ys) -> float:
    """Neville tableau for the limit of y(h) as h -> 0.

    Raises ValueError unless there are as many distinct abscissae hs as
    values ys, and at least one.
    """
    hs = [float(h) for h in hs]
    tab = [float(y) for y in ys]
    n = len(tab)
    if len(hs) != n or n == 0:
        raise ValueError(f"need as many abscissae as values, at least one: got {len(hs)} and {n}")
    if len(set(hs)) != n:
        raise ValueError(f"abscissae must be distinct, got {hs}")
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
    The eight points are one _points batch.
    """
    t_c = params.t_c
    hs = [t_c * 10.0 ** (-k) for k in _JUMP_KS]
    points = _points([t_c + s * h for s in (-1.0, 1.0) for h in hs], params)
    sides = [points[:len(hs)], points[len(hs):]]

    def limits(field):
        return tuple(extrapolate_to_zero(hs, [getattr(p, field) for p in side]) for side in sides)

    below, above = limits("omega_tt")
    return JumpMeasurement(below=below, above=above, omega=limits("omega"), omega_t=limits("omega_t"))


def specific_heat_jump(params: ModelParams) -> float:
    """Closed-form specific-heat discontinuity at t_c, at every cutoff.

    -n0 f'(t_c) [tanh(U) - tanh(eps)], U = hbar_omega_d / (2 k_b t_c), is
    -t_c times the second-derivative jump, as c_v = -t omega_tt; strictly
    positive: the superconducting side carries the larger specific heat.
    """
    return _closed_form_jumps(params)[1]


def _closed_form_jumps(params: ModelParams, at_tc: GapPoint | None = None) -> tuple[float, float]:
    """(second_derivative_jump, specific_heat_jump) from the f'(t_c) of one gap solve at t_c.

    at_tc is that solve where the caller has made it; without it, it is
    made here, once for both jumps.  Near the CutoffTooLarge bound tanh(U)
    and tanh(eps) both round to 1, so their difference is the product
    tanh(U - eps) 2 fermi(2 eps) (1 + e^{-2(U - eps)}) / (1 + e^{-2U}),
    ratio first: 1.0 at eps = 0.
    """
    f_prime = (solve_gap_at(params.t_c, params) if at_tc is None else at_tc).f_prime
    bracket = float(fermi(2.0 * params.eps)) - float(fermi(params.core.hbar_omega_d))
    eps, u = params.eps, params.core.hbar_omega_d / 2.0
    ratio = 2.0 * float(fermi(2.0 * eps)) * (1.0 + math.exp(2.0 * (eps - u))) / (1.0 + math.exp(-2.0 * u))
    return 2.0 * params.n0 * f_prime / params.t_c * bracket, -params.n0 * f_prime * math.tanh(u - eps) * ratio


def thermo_to_csv(points) -> str:
    """Serialize ThermoPoints with the fixed column order."""
    return _csv(points, _THERMO_COLUMNS)

"""Acceptance gate: the ten headline contracts, one test (and one line) each.

Every test prints a single `[criterion NN] PASS/FAIL detail` record (visible
under pytest -s; the -v test line carries the same verdict) and then asserts.
Tolerances are the contractual ones, not what the implementation happens to
achieve, and nothing is loosened to force a green.  Criterion 03 checks the
strict decrease of the gap curve on the 201-point grid in the form float64
can show: no step may rise at all; every step whose true decrease (an
independent mpmath oracle) exceeds the solver's resolution must fall
strictly; on the colder steps, whose true decrease is below one ulp or
below that resolution, the nodes must match the oracle instead; and the
implicit-function slope f' must be negative at every interior node.
"""

import math

import numpy as np
import pytest

from bcsgap.gap import gap_derivatives_at, sample_gap_curve, solve_gap_at
from bcsgap.kernels import (
    curvature_kernel,
    gap_residual,
    gap_residual_partials,
    slope_kernel,
)
from bcsgap.model import build_params
from bcsgap.thermo import (
    condensation_potential,
    measured_second_derivative_jump,
    normal_potential,
    second_derivative_jump,
    specific_heat_jump,
    thermodynamic_potential,
)

from . import oracles

_SEED = 20260817


def _report(label: str, ok: bool, detail: str) -> bool:
    print(f"[{label}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


@pytest.fixture(scope="module", params=[0.0, 1e-3], ids=["eps=0", "eps=1e-3"])
def accept_params(request):
    return build_params(eps=request.param)


@pytest.fixture(scope="module")
def curve_201(accept_params):
    return sample_gap_curve(accept_params, 201)


def test_criterion_01_transition_temperature_reproduces_coupling():
    rng = np.random.default_rng(_SEED)
    worst = 0.0
    for i in range(20):
        u = rng.uniform(0.15, 0.6)
        band = rng.uniform(0.5, 3.0)
        k = rng.uniform(0.5, 2.0)
        eps = 0.0 if i % 2 == 0 else rng.uniform(0.0, 0.5)
        p = build_params(u0n0=u, hbar_omega_d=band, k_b=k, eps=eps)
        worst = max(worst, abs(float(oracles.tc_defect(u, band, k, eps, p.t_c))))
    detail = f"max relative defect {worst:.3e} over 20 random parameter sets (tol 1e-12)"
    assert _report("criterion 01", worst <= 1e-12, detail), detail


def test_criterion_02_gap_equation_anchors(accept_params):
    p = accept_params
    at_zero = abs(gap_residual(0.0, p.delta**2, p))
    at_tc = abs(gap_residual(p.t_c, 0.0, p))
    ok = at_zero < 1e-10 and at_tc < 1e-10
    detail = f"|residual| {at_zero:.3e} at (0, closed-form gap^2), {at_tc:.3e} at (t_c, 0) (tol 1e-10)"
    assert _report("criterion 02", ok, detail), detail


def test_criterion_03_gap_curve_strictly_decreasing(accept_params, curve_201):
    p = accept_params
    ts = np.array([pt.t for pt in curve_201.points])
    fs = np.array([pt.f for pt in curve_201.points])
    residuals = np.array([abs(pt.residual) for pt in curve_201.points])
    end_zero = abs(fs[0] - p.delta**2) <= 1e-10 * p.delta**2
    end_tc = abs(fs[-1]) <= 1e-10 * fs[0]
    res_ok = residuals.max() < 1e-10
    falls = fs[:-1] - fs[1:]
    rises = int(np.count_nonzero(falls < 0.0))

    # A residual-based solve resolves f only to the residual's rounding, a
    # few ulps of 1/u0n0, divided by |dF/dy|.  Strict decrease is demanded
    # from the first step whose true decrease (mpmath oracle) exceeds that;
    # colder nodes must instead match the oracle to the same resolution.
    model = (p.u0n0, p.hbar_omega_d, p.k_b, p.eps, p.t_c)
    resolution = 4.0 * math.ulp(1.0 / p.u0n0) / abs(oracles.mp_zero_t_slope(*model))
    refs, depletions, first = [], [], None
    for i, t in enumerate(ts):
        ref, depletion = oracles.mp_cold_gap(*model, t)
        if i > 0 and depletion - depletions[-1] > resolution:
            first = i - 1
            break
        refs.append(ref)
        depletions.append(depletion)
    ulp = math.ulp(refs[0])
    demanded = falls[first:]  # every step if the oracle exempts none
    strict = bool(np.all(demanded > 0.0))
    cold_err = np.abs(fs[: len(refs)] - np.array(refs)).max()
    fprime_max = max(pt.f_prime for pt in curve_201.points[1:-1])

    ok = (
        end_zero and end_tc and res_ok and rises == 0 and strict
        and cold_err <= resolution and fprime_max < 0.0
    )
    detail = (
        f"endpoints {'ok' if end_zero and end_tc else 'BAD'}, "
        f"max residual {residuals.max():.3e}, {rises} rising steps; "
        + (
            f"strict decrease demanded from step {first}->{first + 1} "
            f"(t = {ts[first] / p.t_c:.3f} t_c, oracle decrease "
            f"{(depletion - depletions[-1]) / ulp:.1f} ulp > resolution "
            f"{resolution / ulp:.1f} ulp): "
            f"{int(np.count_nonzero(demanded > 0.0))} of {demanded.size} strict, "
            f"weakest {demanded.min() / ulp:.0f} ulp; "
            if first is not None
            else "oracle found no resolvable step; "
        )
        + f"{len(refs)} cold nodes within {cold_err / ulp:.0f} ulp of the oracle, "
        f"largest interior f' {fprime_max:.3e}"
    )
    assert _report("criterion 03", ok, detail), detail


def test_criterion_04_derivatives_match_finite_differences(accept_params):
    p = accept_params
    t_c = p.t_c
    h = 1e-5 * t_c
    stencil = (-2.0, -1.0, 1.0, 2.0)
    weights = (1.0, -8.0, 8.0, -1.0)
    first, second = [], []
    for i in (20, 45, 70, 95, 120, 145, 170, 190):
        t = t_c * (i / 200.0)
        node = solve_gap_at(t, p)
        fp, fs = gap_derivatives_at(t, p, node)
        offsets = [solve_gap_at(t + s * h, p) for s in stencil]
        fd1 = sum(w * q.f for w, q in zip(weights, offsets)) / (12.0 * h)
        fd2 = (
            sum(w * gap_derivatives_at(q.t, p, q)[0] for w, q in zip(weights, offsets))
            / (12.0 * h)
        )
        first.append((fp, fd1))
        second.append((fs, fd2))
    # relative error, guarded so nodes where the derivative underflows toward
    # zero (and FD measures pure roundoff) do not divide by ~0
    floor1 = 0.01 * max(abs(fp) for fp, _ in first)
    floor2 = 0.01 * max(abs(fs) for fs, _ in second)
    err1 = max(abs(fp - fd) / max(abs(fp), floor1) for fp, fd in first)
    err2 = max(abs(fs - fd) / max(abs(fs), floor2) for fs, fd in second)

    f0 = solve_gap_at(0.0, p).f
    slopes, curvs = [], []
    for frac in (0.2, 0.1, 0.05):
        step = frac * t_c
        node = solve_gap_at(step, p)
        slopes.append((node.f - f0) / step)
        curvs.append(gap_derivatives_at(step, p, node)[0] / step)
    fp_c = abs(gap_derivatives_at(t_c, p, solve_gap_at(t_c, p))[0])
    fs_c = abs(gap_derivatives_at(t_c, p, solve_gap_at(t_c, p))[1])
    noise1, noise2 = 1e-10 * fp_c, 1e-10 * fs_c
    trend1 = all(
        abs(b) <= max(abs(a), noise1) for a, b in zip(slopes, slopes[1:])
    ) and abs(slopes[-1]) <= 1e-6 * fp_c
    trend2 = all(
        abs(b) <= max(abs(a), noise2) for a, b in zip(curvs, curvs[1:])
    ) and abs(curvs[-1]) <= 1e-6 * fs_c
    ok = err1 < 1e-6 and err2 < 1e-5 and trend1 and trend2
    detail = (
        f"slope vs 5-point FD {err1:.3e} (tol 1e-6), curvature vs FD of slope "
        f"{err2:.3e} (tol 1e-5), one-sided slopes at 0 shrink "
        f"{abs(slopes[0]):.1e}->{abs(slopes[-1]):.1e}, curvatures "
        f"{abs(curvs[0]):.1e}->{abs(curvs[-1]):.1e}"
    )
    assert _report("criterion 04", ok, detail), detail


def test_criterion_05_endpoint_closed_forms(accept_params):
    p = accept_params
    t_c = p.t_c
    at_tc = solve_gap_at(t_c, p)
    fp_c, fs_c = gap_derivatives_at(t_c, p, at_tc)
    hs, fps, fss = [], [], []
    for k in (2, 3, 4, 5):
        t = t_c * (1.0 - 10.0**-k)
        node = solve_gap_at(t, p)
        fp, fs = gap_derivatives_at(t, p, node)
        hs.append(t_c - t)
        fps.append(fp)
        fss.append(fs)
    fp_lim = oracles.neville_to_zero(hs, fps)
    fs_lim = oracles.neville_to_zero(hs, fss)
    err_p = abs(fp_lim - fp_c) / abs(fp_c)
    err_s = abs(fs_lim - fs_c) / abs(fs_c)
    ok = err_p < 1e-4 and err_s < 1e-4 and fp_c < 0.0
    detail = (
        f"interior slope extrapolates to the endpoint form within {err_p:.3e}, "
        f"curvature within {err_s:.3e} (tol 1e-4); slope at t_c = {fp_c:.6g} < 0"
    )
    assert _report("criterion 05", ok, detail), detail


def test_criterion_06_transition_is_second_order(accept_params):
    p = accept_params
    t_c = p.t_c
    point = solve_gap_at(t_c, p)
    omega_tc = normal_potential(t_c, p)[0]
    seam = abs(condensation_potential(t_c, p, point)[0])
    c_value = seam <= 1e-10 * abs(omega_tc)
    below = thermodynamic_potential(t_c * (1.0 - 1e-8), p).omega_t
    above = thermodynamic_potential(t_c * (1.0 + 1e-8), p).omega_t
    slope_gap = abs(below - above) / max(abs(below), abs(above))
    c_slope = slope_gap <= 1e-6
    closed = second_derivative_jump(p)
    measured = measured_second_derivative_jump(p)
    jump_err = abs(measured.jump - closed) / abs(closed)
    c_jump = jump_err <= 1e-3
    curv = condensation_potential(t_c, p, point)[2]
    ident_err = abs(closed - curv) / abs(closed)
    c_ident = ident_err <= 1e-10
    ok = c_value and c_slope and c_jump and c_ident
    detail = (
        f"branch mismatch {seam:.3e} of |Omega|={abs(omega_tc):.4g} (tol 1e-10 rel), "
        f"one-sided slopes differ {slope_gap:.3e} (tol 1e-6), extrapolated "
        f"curvature jump off closed form by {jump_err:.3e} (tol 1e-3), closed "
        f"form vs condensation curvature {ident_err:.3e} (tol 1e-10)"
    )
    assert _report("criterion 06", ok, detail), detail


def test_criterion_07_specific_heat_gap(accept_params):
    p = accept_params  # one closed form at every cutoff
    t_c = p.t_c
    dcv = specific_heat_jump(p)
    c_pos = dcv > 0.0
    ident_err = abs(dcv - (-t_c * second_derivative_jump(p))) / dcv
    c_ident = ident_err <= 1e-10
    hs, lows, highs = [], [], []
    for k in (3, 4, 5, 6):
        step = t_c * 10.0**-k
        hs.append(step)
        lows.append(thermodynamic_potential(t_c - step, p).c_v)
        highs.append(thermodynamic_potential(t_c + step, p).c_v)
    measured = oracles.neville_to_zero(hs, lows) - oracles.neville_to_zero(hs, highs)
    fd_err = abs(measured - dcv) / dcv
    c_fd = fd_err <= 1e-3
    ok = c_pos and c_ident and c_fd
    detail = (
        f"jump {dcv:.9g} > 0, matches -t_c * curvature jump within {ident_err:.3e} "
        f"(tol 1e-10), measured one-sided c_v gap within {fd_err:.3e} (tol 1e-3)"
    )
    assert _report("criterion 07", ok, detail), detail


def test_criterion_08_kernel_identities(accept_params):
    exact = slope_kernel(0.0) == -2.0 / 3.0 and curvature_kernel(0.0) == -16.0 / 15.0
    rng = np.random.default_rng(_SEED)
    etas = 10.0 ** rng.uniform(-3.0, math.log10(49.0), 100)
    worst_ident = 0.0
    negative = True
    for eta in etas:
        h = min(1e-3 * max(1.0, eta), 0.25 * eta)
        fd = (
            slope_kernel(eta - 2 * h)
            - 8.0 * slope_kernel(eta - h)
            + 8.0 * slope_kernel(eta + h)
            - slope_kernel(eta + 2 * h)
        ) / (12.0 * h)
        target = -eta * curvature_kernel(eta)
        worst_ident = max(worst_ident, abs(fd - target) / abs(target))
        negative = negative and slope_kernel(eta) < 0.0

    p = accept_params
    t, y = 0.7 * p.t_c, 0.3 * p.y_max
    ht, hy = 1e-5 * p.t_c, 1e-5 * p.y_max
    d_ty = (
        gap_residual_partials(t, y + hy, p).d_t
        - gap_residual_partials(t, y - hy, p).d_t
    ) / (2.0 * hy)
    d_yt = (
        gap_residual_partials(t + ht, y, p).d_y
        - gap_residual_partials(t - ht, y, p).d_y
    ) / (2.0 * ht)
    mixed = abs(d_ty - d_yt) / max(abs(d_ty), abs(d_yt))
    ok = exact and worst_ident < 1e-7 and negative and mixed < 1e-5
    detail = (
        f"limits at 0 exact: {exact}; slope-derivative identity within "
        f"{worst_ident:.3e} at 100 random arguments (tol 1e-7); slope kernel "
        f"negative everywhere sampled: {negative}; mixed partials agree within "
        f"{mixed:.3e} (tol 1e-5)"
    )
    assert _report("criterion 08", ok, detail), detail


def test_criterion_09_residual_partial_signs(accept_params):
    p = accept_params
    bad = 0
    worst = -math.inf
    for i in range(1, 51):
        t = p.t_c * (i / 50.0)
        for j in range(50):
            y = p.y_max * (j / 50.0)
            parts = gap_residual_partials(t, y, p)
            d_t, d_y = parts.d_t, parts.d_y
            worst = max(worst, d_t, d_y)
            if not (d_t < 0.0 and d_y < 0.0):
                bad += 1
    ok = bad == 0
    detail = f"{bad} sign violations on the 50x50 grid (largest partial {worst:.3e}, must stay < 0)"
    assert _report("criterion 09", ok, detail), detail


def test_criterion_10_weak_coupling_ratio():
    import mpmath as mp

    mp.mp.dps = 30
    limit = float(2.0 * mp.exp(mp.euler) / mp.pi)
    rows = []
    for u in (0.12, 0.10, 0.08):
        p = build_params(u0n0=u)
        ratio = p.k_b * p.t_c / (p.hbar_omega_d * math.exp(-1.0 / u))
        oracle = float(oracles.mp_tc(u, 1.0, 1.0) * mp.exp(mp.mpf(1) / mp.mpf(u)))
        rows.append((u, ratio, oracle, abs(ratio - oracle) / oracle))
    agree = max(r[3] for r in rows) <= 1e-8
    dists = [abs(r[1] - limit) for r in rows]
    # corrections shrink below one ulp of the ratio in this coupling range,
    # so adjacent distances may tie bitwise; monotone means non-increasing
    # within a one-ulp-scale floor
    floor = 1e-15 * limit
    monotone = all(b <= a + floor for a, b in zip(dists, dists[1:]))
    ok = agree and monotone
    detail = (
        f"ratio vs independent high-precision solve differs by at most "
        f"{max(r[3] for r in rows):.3e} (tol 1e-8); distance to the "
        f"weak-coupling limit {limit:.12g}: "
        + " -> ".join(f"{d:.3e}" for d in dists)
    )
    assert _report("criterion 10", ok, detail), detail

"""Parameter validation, closed-form gap values, config files."""

import math
import warnings

import pytest
from hypothesis import example, given, strategies as st

from bcsgap.errors import (
    BcsgapError,
    CutoffTooLarge,
    NonFiniteInput,
    NonPositiveParameter,
    OutsideDomain,
    ToleranceNotMet,
)
from bcsgap.gap import sample_gap_curve, solve_tc
from bcsgap.model import build_params, load_config
from bcsgap.thermo import thermodynamic_potential
from bcsgap.verify import run_suite

from . import oracles


def test_default_transition_temperature_satisfies_definition(default_params):
    defect = oracles.tc_defect(0.3, 1.0, 1.0, 0.0, default_params.t_c)
    assert abs(defect) < 1e-12


def test_default_transition_temperature_matches_bisection_oracle(default_params):
    tc_oracle = oracles.mp_tc(0.3, 1.0, 1.0)
    assert default_params.t_c == pytest.approx(tc_oracle, rel=1e-10)


def test_closed_form_gap_at_zero_cutoff(default_params):
    # sinh form of the zero-temperature gap
    assert default_params.delta0 == pytest.approx(
        1.0 / math.sinh(1.0 / 0.3), rel=1e-15
    )
    # without a cutoff the general radical collapses to the sinh form
    assert default_params.delta == default_params.delta0
    assert default_params.y_max == pytest.approx(2.0 * default_params.delta0**2)


def test_cutoff_shrinks_gap_and_transition_temperature(default_params, eps_params):
    assert eps_params.delta < eps_params.delta0
    assert eps_params.t_c < default_params.t_c
    assert 0.0 < eps_params.xi_min < eps_params.hbar_omega_d


def test_scaling_covariance():
    base = build_params()
    scaled = build_params(hbar_omega_d=2.0, k_b=2.0)
    # T_c carries energy/k_b units; doubling both leaves it unchanged
    assert scaled.t_c == pytest.approx(base.t_c, rel=1e-12)
    # the gap carries energy units and doubles with the bandwidth
    assert scaled.delta0 == pytest.approx(2.0 * base.delta0, rel=1e-12)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"u0n0": -1.0},
        {"u0n0": 0.0},
        {"hbar_omega_d": 0.0},
        {"k_b": -2.0},
        {"n0": 0.0},
        {"mu": -10.0},
    ],
)
def test_nonpositive_parameters_rejected(kwargs):
    with pytest.raises(NonPositiveParameter):
        build_params(**kwargs)


def test_negative_cutoff_rejected():
    with pytest.raises(NonPositiveParameter):
        build_params(eps=-0.1)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), "three", "0.3", pytest.param(10**400, id="10**400")])
def test_nonfinite_parameters_rejected(bad):
    with pytest.raises(NonFiniteInput):
        build_params(u0n0=bad)


def test_oversized_cutoff_rejected():
    # 2 k_b t_c eps beyond the bandwidth leaves no pairing window
    with pytest.raises(CutoffTooLarge):
        build_params(eps=20.0)


@pytest.mark.parametrize("u0n0, eps", [(1e4, 1.0), (3e4, 2.0)])
def test_strong_coupling_with_cutoff_out_of_float_reach_is_refused(u0n0, eps):
    # the t_c condition's relative defect cannot go below about
    # u0n0 ulp(U) tanh(U) / U, about 1.7e-16 u0n0 at eps = 1; here the
    # closest float U leaves -1.75e-12 and -4.9e-12 against 1e-12
    with pytest.raises(ToleranceNotMet, match="transition-temperature defect"):
        build_params(u0n0=u0n0, eps=eps)


def test_extreme_couplings():
    # at u0n0 = 1e9 the root is U = hbar_omega_d / (2 k_b t_c) ~ 1e-9, where
    # the integral of tanh(x)/x over [0, U] is U - U^3 / 9 + ...; at 1e-3 it
    # is U ~ e^1000, which no float holds
    assert solve_tc(1e9, 1.0, 1.0) == pytest.approx(0.5e9, rel=1e-12)
    with pytest.raises(OutsideDomain):
        solve_tc(1e-3, 1.0, 1.0)


@pytest.mark.parametrize("mu", [0.5, 1.0 + 1e-9, 1.5, 10.0, 1e3, 1e6])
def test_band_constant_matches_mpmath_integral(mu):
    # the closed form against a direct integral of xi * dos(xi) over the
    # lower band; at mu = 1 + 1e-9 the band is 1e-9 deep, below what an
    # adaptive float64 quadrature of its square-root bottom can resolve
    p = build_params(mu=mu)
    ref = oracles.mp_band_constant(p.n0, p.mu, p.hbar_omega_d)
    assert p.band_constant == pytest.approx(ref, rel=1e-14, abs=0.0)


def test_band_constant_overflow_is_refused():
    # the normal constant 2 band_constant - n0 (hbar_omega_d^2 - xi_min^2)
    # is of order mu^2: at mu = 1e200 it leaves float64, and the potential
    # would read -inf with no error
    with pytest.raises(OutsideDomain, match="normal constant"):
        build_params(mu=1e200)
    p = build_params(mu=1e150)
    for ratio in (0.5, 1.5):
        assert math.isfinite(thermodynamic_potential(ratio * p.t_c, p).omega)


def test_as_dict_snapshot(default_params):
    snap = default_params.as_dict()
    assert list(snap)[:6] == ["u0n0", "hbar_omega_d", "k_b", "eps", "n0", "mu"]
    assert snap["u0n0"] == 0.3
    assert snap["t_c"] == default_params.t_c
    assert list(snap)[6:] == ["t_c", "quad_rel_tol"]


def test_config_roundtrip(tmp_path):
    cfg = tmp_path / "params.cfg"
    cfg.write_text(
        "# pairing model inputs\n"
        "u0n0 = 0.25\n"
        "eps = 0.001   # cutoff\n"
        "mu = 12\n"
        "u0n0 = 0.28\n"  # last value wins
    )
    parsed = load_config(cfg)
    assert parsed == {"u0n0": 0.28, "eps": 0.001, "mu": 12.0}
    params = build_params(**parsed)
    assert params.u0n0 == 0.28
    assert params.mu == 12.0


@pytest.mark.parametrize(
    "line",
    [
        "coupling = 0.3",  # unknown key
        "u0n0 = strong",  # not a number
        "dos = lorentzian",  # the density of states is fixed: no key selects it
        "dos = default",
        "u0n0 0.3",  # missing separator
    ],
)
def test_config_errors(tmp_path, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    with pytest.raises(ValueError, match="bad.cfg:1"):
        load_config(cfg)


@given(
    u0n0=st.floats(0.15, 0.6),
    hbar_omega_d=st.floats(0.5, 3.0),
    k_b=st.floats(0.5, 2.0),
    eps=st.floats(0.0, 0.5),
)
@example(u0n0=0.5, hbar_omega_d=1.0, k_b=1.0, eps=5e-324)
def test_built_params_invariants(u0n0, hbar_omega_d, k_b, eps):
    params = build_params(u0n0=u0n0, hbar_omega_d=hbar_omega_d, k_b=k_b, eps=eps)
    assert params.t_c > 0.0
    assert 0.0 <= params.xi_min < params.hbar_omega_d
    assert 0.0 < params.delta <= params.delta0
    assert params.y_max == 2.0 * params.delta0**2
    assert 0.0 < params.y_max < math.inf


@pytest.mark.parametrize("eps", [5e-324, 1e-322, 1e-320, 2e-308])
def test_subnormal_cutoff_keeps_the_zero_cutoff_tc(eps):
    # the integral of tanh(x)/x over [0, eps] is about eps, below the smallest
    # normal float, so it cannot move t_c; nor may it sample x = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t_c = build_params(u0n0=0.5, eps=eps).t_c
    assert t_c == build_params(u0n0=0.5, eps=0.0).t_c


@pytest.mark.parametrize(
    "kwargs",
    [
        pytest.param({"u0n0": 1e-3}, id="U"),
        pytest.param({"u0n0": 1.5e-3, "hbar_omega_d": 1e150, "mu": 1e151}, id="U^2"),
        *(pytest.param({"hbar_omega_d": 2.0**k, "mu": 10.0 * 2.0**k}, id=f"energies*2^{k}") for k in (600, -600)),
        *(pytest.param({"k_b": 2.0**k}, id=f"k_b*2^{k}") for k in (600, -600)),
    ],
)
def test_units_outside_float64_are_refused(kwargs):
    # U = e^~1000, the squared core window edge (2U)^2 = e^~1330, or an
    # output scale such as (k_b t_c)^2 or k_b^2 beyond float64: a typed error, never an OverflowError, a ZeroDivisionError or
    # a model whose outputs would be inf, NaN or flushed to 0
    with pytest.raises(BcsgapError):
        build_params(**kwargs)


def test_band_bottom_down_to_the_smallest_normal_float():
    # the specific heat grows like mu^(-1/2) as the band bottom mu falls, so
    # c_v sqrt(mu) holds still down to where mu / (k_b t_c) is still a
    # normal float; below that build_params refuses mu, as its docstring says
    scaled = []
    for mu in (1e-300, 1e-308):
        p = build_params(mu=mu)
        points = [thermodynamic_potential(r * p.t_c, p) for r in (0.5, 1.5)]
        assert all(math.isfinite(q.c_v) for q in points)
        scaled.append([q.c_v * math.sqrt(mu) for q in points])
    assert scaled[1] == pytest.approx(scaled[0], rel=1e-12, abs=0.0)
    for mu in (1e-310, 5e-324):
        with pytest.raises(OutsideDomain):
            build_params(mu=mu)


def _scaled_outputs(p):
    """A 9-node curve and thermo at 0.5 and 1.5 t_c, each value over its unit."""
    kt = p.k_b * p.t_c
    f_units = (p.t_c, kt * kt, kt * kt / p.t_c, p.k_b**2)
    curve = [
        tuple(v / unit for v, unit in zip((q.t, q.f, q.f_prime, q.f_second), f_units))
        for q in sample_gap_curve(p, 9).points
    ]
    thermo_units = (p.t_c, p.n0 * kt * kt, p.n0 * kt * kt / p.t_c, p.n0 * p.k_b**2, p.n0 * p.k_b**2 * p.t_c)
    thermo = [
        tuple(v / unit for v, unit in zip((q.t, q.omega, q.omega_t, q.omega_tt, q.c_v), thermo_units))
        for q in (thermodynamic_potential(r * p.t_c, p) for r in (0.5, 1.5))
    ]
    return curve, thermo


@pytest.mark.parametrize("k", [0, 100, -100, 200, -200, 300, -300])
def test_outputs_scale_exactly_with_the_units(k):
    # the core runs in units of t_c and k_b t_c, so scaling the energies by
    # 2^k, or k_b by 2^-k, scales every output by its unit to the last bit
    reference = _scaled_outputs(build_params())
    for p in (build_params(hbar_omega_d=2.0**k, mu=10.0 * 2.0**k), build_params(k_b=2.0**-k)):
        assert _scaled_outputs(p) == reference
        assert run_suite(p, 51).passed

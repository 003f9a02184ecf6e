"""Parameter validation, closed-form gap values, config files."""

import math

import pytest
from hypothesis import given, strategies as st

from bcsgap.errors import (
    CutoffTooLarge,
    NoBracket,
    NonFiniteInput,
    NonPositiveParameter,
)
from bcsgap.gap import solve_tc
from bcsgap.model import build_params, load_config

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


def test_no_bracket_for_extreme_couplings():
    with pytest.raises(NoBracket):
        solve_tc(1e9, 1.0, 1.0)  # transition above the search window
    with pytest.raises(NoBracket):
        solve_tc(1e-3, 1.0, 1.0)  # transition far below it


@pytest.mark.parametrize("mu", [0.5, 1.0 + 1e-9, 1.5, 10.0, 1e3, 1e6])
def test_band_constant_matches_mpmath_integral(mu):
    # the closed form against a direct integral of xi * dos(xi) over the
    # lower band; at mu = 1 + 1e-9 the band is 1e-9 deep, below what an
    # adaptive float64 quadrature of its square-root bottom can resolve
    p = build_params(mu=mu)
    ref = oracles.mp_band_constant(p.n0, p.mu, p.hbar_omega_d)
    assert p.band_constant == pytest.approx(ref, rel=1e-14, abs=0.0)


def test_as_dict_snapshot(default_params):
    snap = default_params.as_dict()
    assert list(snap)[:6] == ["u0n0", "hbar_omega_d", "k_b", "eps", "n0", "mu"]
    assert snap["u0n0"] == 0.3
    assert snap["t_c"] == default_params.t_c
    assert snap["dos"] == "default"


def test_config_roundtrip(tmp_path):
    cfg = tmp_path / "params.cfg"
    cfg.write_text(
        "# pairing model inputs\n"
        "u0n0 = 0.25\n"
        "eps = 0.001   # cutoff\n"
        "mu = 12\n"
        "dos = default\n"
        "u0n0 = 0.28\n"  # last value wins
    )
    parsed = load_config(cfg)
    # dos = default is checked and left out: it is the only density of states
    assert parsed == {"u0n0": 0.28, "eps": 0.001, "mu": 12.0}
    params = build_params(**parsed)
    assert params.u0n0 == 0.28
    assert params.mu == 12.0


@pytest.mark.parametrize(
    "line",
    [
        "coupling = 0.3",  # unknown key
        "u0n0 = strong",  # not a number
        "dos = lorentzian",  # only the default shape is supported
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
def test_built_params_invariants(u0n0, hbar_omega_d, k_b, eps):
    params = build_params(u0n0=u0n0, hbar_omega_d=hbar_omega_d, k_b=k_b, eps=eps)
    assert params.t_c > 0.0
    assert 0.0 <= params.xi_min < params.hbar_omega_d
    assert 0.0 < params.delta <= params.delta0
    assert params.y_max == 2.0 * params.delta0**2
    assert 0.0 < params.y_max < math.inf

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    derandomize=True,
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def default_params():
    from bcsgap.model import build_params

    return build_params()


@pytest.fixture(scope="session")
def eps_params():
    from bcsgap.model import build_params

    return build_params(eps=0.5)


@pytest.fixture
def integrate_calls(monkeypatch):
    """A list that gains one entry per quadrature call, from whichever bcsgap module makes it."""
    from bcsgap import gap, kernels, quad, thermo

    calls = []
    real = quad.integrate

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for module in (quad, kernels, gap, thermo):
        monkeypatch.setattr(module, "integrate", counting)
    return calls


@pytest.fixture
def quadrature_rounds(monkeypatch):
    """A list that gains one entry per quadrature round: the integrand nodes of that round.

    A round is one evaluation of every panel of an integrate call, or a
    first round taken alone, uncertified, as the gap's Newton steps take it.
    """
    from bcsgap import quad

    rounds = []
    real = quad._kronrod

    def counting(f, lo, hi, scale):
        rounds.append(lo.size * quad._NODES.size)
        return real(f, lo, hi, scale)

    monkeypatch.setattr(quad, "_kronrod", counting)
    return rounds


@pytest.fixture
def window_passes(monkeypatch):
    """A list that gains (order, number of pairs) for each window pass the gap module makes at its roots."""
    from bcsgap import gap

    passes = []
    real = gap.window_pass

    def recording(ts, ys, params, order):
        passes.append((order, np.size(ts)))
        return real(ts, ys, params, order)

    monkeypatch.setattr(gap, "window_pass", recording)
    return passes

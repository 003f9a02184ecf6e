"""Physical parameters, their core units, and the free-electron density of states.

Everything downstream works with one frozen ModelParams value: the raw
coupling/cutoff/energy-scale numbers plus the derived transition temperature.
build_params is the only sanctioned constructor; it validates, solves for the
transition temperature, and checks the derived admissibility inequalities.
The density of states is fixed, n0 * sqrt(max(xi + mu, 0) / mu) at energy xi
from the Fermi level, so its band constant is a closed form.

This is the one module that decides units.  ModelParams.core is the same
model with temperatures in t_c, energies in k_b t_c and densities in n0;
every solver and quadrature runs on it, so no intermediate depends on the
physical scales, and values become physical once, times ModelParams.scales.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import CutoffTooLarge, NonFiniteInput, NonPositiveParameter, OutsideDomain
from .quad import REL_TOL

__all__ = ["ModelParams", "build_params", "load_config"]

# Headroom demanded of the radicand factor hbar_omega_d - xi_min * e^{1/u0n0}.
# In exact arithmetic the factor is always positive once the transition
# temperature solves its defining condition, but for large cutoffs it sits
# within float rounding of zero; requiring a relative margin turns that
# degeneracy into a deterministic CutoffTooLarge.
_CUTOFF_MARGIN = 1e-12
_TINY, _HUGE = sys.float_info.min, sys.float_info.max


def _as_finite_float(name: str, value) -> float:
    if not isinstance(value, numbers.Real):
        raise NonFiniteInput(f"{name} must be a real number, got {value!r}")
    try:
        v = float(value)
    except OverflowError:
        raise NonFiniteInput(f"{name} must be finite, got a value beyond float range") from None
    if not math.isfinite(v):
        raise NonFiniteInput(f"{name} must be finite, got {v}")
    return v


def _require_positive(name: str, value: float) -> None:
    if not value > 0.0:
        raise NonPositiveParameter(f"{name} must be > 0, got {value}")


def _dos(xi, n0: float, mu: float):
    """Free-electron density of states n0 * sqrt((xi + mu) / mu), 0 below the band."""
    band = np.maximum(np.asarray(xi, dtype=float) + mu, 0.0)
    return n0 * np.sqrt(band / mu)


def _gap_radical(u0n0: float, hbar_omega_d: float, xi_min: float) -> float:
    """Closed-form zero-temperature gap with the cutoff window applied.

    sqrt((L - a e^{1/u})(L - a e^{-1/u})) / sinh(1/u) with L the pairing
    energy scale and a the lower window edge; a = 0 collapses to the
    textbook L / sinh(1/u).  The growing factor is compared in log space so
    strong cutoffs fail cleanly instead of overflowing.
    """
    inv = 1.0 / u0n0
    if xi_min == 0.0:
        return hbar_omega_d / math.sinh(inv)
    log_plus = math.log(xi_min) + inv
    if log_plus >= math.log(hbar_omega_d) + math.log1p(-_CUTOFF_MARGIN):
        raise CutoffTooLarge(
            "cutoff window too wide: xi_min * e^{1/u0n0} reaches "
            f"{math.exp(log_plus - math.log(hbar_omega_d)):.6g} of hbar_omega_d "
            f"(margin {_CUTOFF_MARGIN:g} required)"
        )
    plus = hbar_omega_d - math.exp(log_plus)
    minus = hbar_omega_d - xi_min * math.exp(-inv)
    return math.sqrt(plus * minus) / math.sinh(inv)


@dataclass(frozen=True)
class ModelParams:
    """Validated parameters plus the derived transition temperature.

    Immutable; share freely across threads.  u0n0 is the dimensionless
    coupling, hbar_omega_d the pairing energy window, eps the dimensionless
    lower cutoff (0 selects the pure textbook forms), n0 and mu the Fermi
    density of states and chemical potential entering the tail integrals.
    """

    u0n0: float
    hbar_omega_d: float
    k_b: float
    eps: float
    n0: float
    mu: float
    t_c: float

    @property
    def xi_min(self) -> float:
        """Lower edge of the pairing-window integrals, 2 k_b t_c eps."""
        return 2.0 * self.k_b * self.t_c * self.eps

    @property
    def delta0(self) -> float:
        """Zero-temperature gap of the uncut window."""
        return self.hbar_omega_d / math.sinh(1.0 / self.u0n0)

    @property
    def delta(self) -> float:
        """Zero-temperature gap with the cutoff window applied."""
        return _gap_radical(self.u0n0, self.hbar_omega_d, self.xi_min)

    @property
    def y_max(self) -> float:
        """Upper edge of the squared-gap search range, 2 * delta0**2."""
        return 2.0 * self.delta0**2

    @cached_property
    def core(self) -> ModelParams:
        """The same model with t_c = k_b = n0 = 1; its window edge is 2U, U = hbar_omega_d / (2 k_b t_c)."""
        kt = self.k_b * self.t_c
        return replace(self, hbar_omega_d=self.hbar_omega_d / kt, k_b=1.0, n0=1.0, mu=self.mu / kt, t_c=1.0)

    @property
    def scales(self) -> tuple[float, float, float]:
        """(k_b t_c)^2, k_b * k_b t_c and k_b^2: the units of f, f' and f'', and over n0 of the potential's."""
        kt = self.k_b * self.t_c
        return kt * kt, self.k_b * kt, self.k_b * self.k_b

    @property
    def band_constant(self) -> float:
        """Temperature-independent integral of xi * dos(xi) over [-mu, -hbar_omega_d].

        In closed form n0 / sqrt(mu) * w^{3/2} * (2w/5 - 2mu/3) with
        w = mu - hbar_omega_d, the band depth below the window; 0 when mu
        lies inside the window.  The bracket is below -4mu/15, so nothing
        cancels, and w / mu is formed first so that the value scales exactly
        with the energy unit.
        """
        w = self.mu - self.hbar_omega_d
        if w <= 0.0:
            return 0.0
        return self.n0 * w * math.sqrt(w / self.mu) * (2.0 * w / 5.0 - 2.0 * self.mu / 3.0)

    def as_dict(self) -> dict:
        """Snapshot for reports; key order is fixed for byte-stable output."""
        return {
            "u0n0": self.u0n0,
            "hbar_omega_d": self.hbar_omega_d,
            "k_b": self.k_b,
            "eps": self.eps,
            "n0": self.n0,
            "mu": self.mu,
            "t_c": self.t_c,
            "quad_rel_tol": REL_TOL,
        }


def _normal_constant(params: ModelParams) -> float:
    """Twice the band constant plus the window's zero-point piece -n0 (hbar_omega_d^2 - xi_min^2).

    The temperature-independent part of the normal potential, in physical
    units; build_params refuses a model where it is not finite.
    """
    a, L = params.xi_min, params.hbar_omega_d
    return 2.0 * params.band_constant - params.n0 * (L * L - a * a)


def build_params(
    u0n0: float = 0.3,
    hbar_omega_d: float = 1.0,
    k_b: float = 1.0,
    eps: float = 0.0,
    n0: float = 1.0,
    mu: float = 10.0,
) -> ModelParams:
    """Validate raw parameters, derive the transition temperature, and freeze.

    Raises NonFiniteInput / NonPositiveParameter on malformed raw values,
    CutoffTooLarge when the cutoff leaves no room for a positive
    zero-temperature gap, and OutsideDomain when a unit leaves float64: the
    square of the core window edge 2U = hbar_omega_d / (k_b t_c) (u0n0
    below about 1/355), mu / (k_b t_c), or t_c or one of params.scales,
    alone or times n0, is not a normal float, or the normal constant
    2 band_constant - n0 (hbar_omega_d^2 - xi_min^2), of order mu^2, is not
    finite (mu above about 1e154 in energy units).
    """
    u0n0 = _as_finite_float("u0n0", u0n0)
    hbar_omega_d = _as_finite_float("hbar_omega_d", hbar_omega_d)
    k_b = _as_finite_float("k_b", k_b)
    eps = _as_finite_float("eps", eps)
    n0 = _as_finite_float("n0", n0)
    mu = _as_finite_float("mu", mu)
    for name, value in (
        ("u0n0", u0n0),
        ("hbar_omega_d", hbar_omega_d),
        ("k_b", k_b),
        ("n0", n0),
        ("mu", mu),
    ):
        _require_positive(name, value)
    if eps < 0.0:
        raise NonPositiveParameter(f"eps must be >= 0, got {eps}")

    from .gap import solve_tc  # deferred: gap imports this module's types

    t_c = solve_tc(u0n0, hbar_omega_d, k_b, eps)
    params = ModelParams(
        u0n0=u0n0,
        hbar_omega_d=hbar_omega_d,
        k_b=k_b,
        eps=eps,
        n0=n0,
        mu=mu,
        t_c=t_c,
    )
    units = (t_c, *params.scales, *(n0 * unit for unit in params.scales))
    if not all(_TINY <= unit <= _HUGE for unit in units):
        names = "t_c, (k_b t_c)^2, k_b * k_b t_c, k_b^2 and the last three times n0"
        raise OutsideDomain(f"{names} must be normal floats, got {units}")
    constant = _normal_constant(params)
    if not math.isfinite(constant):
        raise OutsideDomain(
            f"the normal constant 2 band_constant - n0 (hbar_omega_d^2 - xi_min^2) must be finite, got {constant!r}"
        )
    core = params.core  # the core kernels square window energies up to 2U
    if not max(core.hbar_omega_d * core.hbar_omega_d, core.mu) <= _HUGE:
        raise OutsideDomain(
            f"(2U)^2 or mu / (k_b t_c) overflows: 2U = {core.hbar_omega_d!r}, mu / (k_b t_c) = {core.mu!r}"
        )
    if eps > 0.0:
        if eps >= core.hbar_omega_d / 2.0:
            raise CutoffTooLarge(
                f"cutoff eps = {eps} reaches the upper window edge {core.hbar_omega_d / 2.0:.6g}"
            )
        params.delta, core.delta  # noqa: B018 - raise CutoffTooLarge if a radicand has no margin
    return params


_CONFIG_KEYS = ("u0n0", "hbar_omega_d", "k_b", "eps", "n0", "mu")


def load_config(path) -> dict:
    """Parse a flat `key = value` parameter file.

    Recognized keys: u0n0, hbar_omega_d, k_b, eps, n0, mu (floats).  '#'
    starts a comment; blank lines are ignored; a repeated key keeps its last
    value.  Returns a plain dict for build_params(**cfg).
    """
    out: dict = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not value:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        if key not in _CONFIG_KEYS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            out[key] = float(value)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: {value!r} is not a number") from None
    return out

"""Physical parameters and the density of states.

Everything downstream works with one frozen ModelParams value: the raw
coupling/cutoff/energy-scale numbers plus the derived transition temperature.
build_params is the only sanctioned constructor; it validates, solves for the
transition temperature, and checks the derived admissibility inequalities.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import (
    CutoffTooLarge,
    DosMismatch,
    NonFiniteInput,
    NonPositiveParameter,
)
from .quad import DEFAULT_SPEC, QuadSpec, integrate

__all__ = [
    "DensityOfStates",
    "ModelParams",
    "build_params",
    "default_dos",
    "load_config",
]

# Headroom demanded of the radicand factor hbar_omega_d - xi_min * e^{1/u0n0}.
# In exact arithmetic the factor is always positive once the transition
# temperature solves its defining condition, but for large cutoffs it sits
# within float rounding of zero; requiring a relative margin turns that
# degeneracy into a deterministic CutoffTooLarge.
_CUTOFF_MARGIN = 1e-12

_DOS_TOL = 1e-12  # |N(0) - n0| tolerance, relative to n0


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


@dataclass(frozen=True)
class DensityOfStates:
    """Single-particle density of states over energy from the Fermi level.

    evaluator must be pure and vectorized, nonnegative on [-mu, inf), and
    eventually bounded by growth_bound * sqrt(xi + mu); the truncation rule
    for the semi-infinite tail integrals leans on that bound.
    """

    evaluator: Callable
    growth_bound: float
    name: str = "custom"

    def __call__(self, xi):
        return self.evaluator(xi)


def default_dos(n0: float, mu: float) -> DensityOfStates:
    """Free-electron-like density of states n0 * sqrt((xi + mu) / mu)."""
    n0 = _as_finite_float("n0", n0)
    mu = _as_finite_float("mu", mu)
    _require_positive("n0", n0)
    _require_positive("mu", mu)

    def evaluator(xi):
        band = np.maximum(np.asarray(xi, dtype=float) + mu, 0.0)
        return n0 * np.sqrt(band / mu)

    return DensityOfStates(evaluator=evaluator, growth_bound=n0 / math.sqrt(mu), name="default")


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
    dos: DensityOfStates
    quad_spec: QuadSpec = DEFAULT_SPEC

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
    def band_constant(self) -> float:
        """Temperature-independent integral of xi * dos(xi) over [-mu, -hbar_omega_d]."""
        if self.mu <= self.hbar_omega_d:
            return 0.0
        return integrate(lambda xi: xi * self.dos(xi), -self.mu, -self.hbar_omega_d, self.quad_spec)[0]

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
            "dos": self.dos.name,
            "quad_rel_tol": self.quad_spec.rel_tol,
        }


def build_params(
    u0n0: float = 0.3,
    hbar_omega_d: float = 1.0,
    k_b: float = 1.0,
    eps: float = 0.0,
    n0: float = 1.0,
    mu: float = 10.0,
    dos: DensityOfStates | None = None,
    quad_spec: QuadSpec | None = None,
) -> ModelParams:
    """Validate raw parameters, derive the transition temperature, and freeze.

    Raises NonFiniteInput / NonPositiveParameter on malformed raw values,
    DosMismatch when the supplied density of states disagrees with n0 at the
    Fermi level, NoBracket when no transition temperature exists in the
    search window, and CutoffTooLarge when the cutoff leaves no room for a
    positive zero-temperature gap.
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

    quad_spec = quad_spec or DEFAULT_SPEC
    if dos is None:
        dos = default_dos(n0, mu)
    n_fermi = float(dos(0.0))
    if not math.isfinite(n_fermi) or abs(n_fermi - n0) > _DOS_TOL * n0:
        raise DosMismatch(
            f"density of states gives N(0) = {n_fermi!r}, expected n0 = {n0!r}"
        )

    from .gap import solve_tc  # deferred: gap imports this module's types

    t_c = solve_tc(u0n0, hbar_omega_d, k_b, eps, quad_spec=quad_spec)
    params = ModelParams(
        u0n0=u0n0,
        hbar_omega_d=hbar_omega_d,
        k_b=k_b,
        eps=eps,
        n0=n0,
        mu=mu,
        t_c=t_c,
        dos=dos,
        quad_spec=quad_spec,
    )
    if eps > 0.0:
        if eps >= hbar_omega_d / (2.0 * k_b * t_c):
            raise CutoffTooLarge(
                f"cutoff eps = {eps} reaches the upper window edge "
                f"{hbar_omega_d / (2.0 * k_b * t_c):.6g}"
            )
        params.delta  # noqa: B018 - raises CutoffTooLarge if the radicand has no margin
    return params


_CONFIG_KEYS = ("u0n0", "hbar_omega_d", "k_b", "eps", "n0", "mu", "dos")


def load_config(path) -> dict:
    """Parse a flat `key = value` parameter file.

    Recognized keys: u0n0, hbar_omega_d, k_b, eps, n0, mu (floats) and
    dos = default.  '#' starts a comment; blank lines are ignored; a
    repeated key keeps its last value.  Returns a plain dict suitable for
    build_params(**cfg) after replacing dos = "default" with None.
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
        if key == "dos":
            if value != "default":
                raise ValueError(
                    f"{path}:{lineno}: only 'default' is accepted for dos, got {value!r}"
                )
            out[key] = value
        else:
            try:
                out[key] = float(value)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: {value!r} is not a number") from None
    return out

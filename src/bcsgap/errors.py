"""Exception types shared across the package."""


class BcsgapError(Exception):
    """Base class for all errors raised by this package."""


class NonPositiveParameter(BcsgapError):
    """A model parameter that must be positive (or non-negative) is not."""


class CutoffTooLarge(BcsgapError):
    """The pairing-window cutoff leaves no room for a positive gap."""


class NonFiniteInput(BcsgapError):
    """An argument is NaN or infinite."""


class NonFiniteIntegrand(BcsgapError):
    """An integrand returned NaN or infinity inside the integration range."""


class ToleranceNotMet(BcsgapError):
    """An iterative routine hit its work limit before reaching tolerance."""


class OutsideDomain(BcsgapError):
    """A (T, Y) point lies outside the region where the request is defined."""


class ZeroGapAtZeroT(BcsgapError):
    """The point T = 0, Y = 0 is excluded from every evaluation domain."""


class NoBracket(BcsgapError):
    """No sign change for the transition temperature inside the search window."""


class BracketFailure(BcsgapError):
    """The gap equation has no root in [0, y_max] at the requested temperature."""


class NotSolved(BcsgapError):
    """Derivatives were requested at a point whose gap residual is too large."""


class CutoffNotZero(BcsgapError):
    """A closed form only valid at zero cutoff was requested with eps != 0."""

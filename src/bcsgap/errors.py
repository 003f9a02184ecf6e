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


class NotSolved(BcsgapError):
    """No gap point solved to the residual tolerance at the requested temperature."""


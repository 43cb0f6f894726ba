"""Exception hierarchy.

Everything user-facing derives from RoskitError.  Errors caused by bad
inputs (out-of-domain arguments, infeasible moment budgets, degenerate
laws) derive from InputError so that the CLI can map them to exit code 2;
anything else is treated as an internal failure (exit code 1).
"""


class RoskitError(Exception):
    pass


class InputError(RoskitError, ValueError):
    """Bad user input: wrong domain, infeasible budgets, unparseable spec."""


class DomainError(InputError):
    """Argument outside the mathematical domain of an operation."""


class DegenerateLawError(InputError):
    """A distribution that is identically zero (or otherwise degenerate)."""


class UnsupportedMethodError(InputError):
    """Requested evaluation method does not apply to this distribution kind."""


class SupportOverflowError(InputError, OverflowError):
    """An exact atomic law whose support outgrew its cap; the CLI reports it
    as bad input."""


class FeasibilityError(InputError):
    """Moment target outside the feasible interval of a distribution class."""


class BranchMismatchError(RoskitError):
    """The two closed-form branches disagree at p = 4 beyond tolerance."""


class GridTooSmallError(RoskitError):
    """Probability mass leaked beyond the convolution grid."""


class InvalidComparisonError(InputError):
    """Comparison requested between laws whose moments are not matched."""

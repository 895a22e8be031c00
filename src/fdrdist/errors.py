"""Exception hierarchy shared by all fdrdist modules.

Three failure families, each carrying its CLI exit code: bad input (2),
numerical failure (3), and infeasible parameters (4).
"""

__all__ = ["FdrDistError", "InputError", "ConstraintError", "NumericError"]


class FdrDistError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class InputError(FdrDistError, ValueError):
    """Malformed or out-of-domain input: p-values outside [0, 1],
    dimension mismatches, weights that do not sum to one, bad files."""

    exit_code = 2


class ConstraintError(FdrDistError, ValueError):
    """A parameter vector lies outside the valid region of the density
    family (or a derived vector left it, e.g. after scaling)."""

    exit_code = 4


class NumericError(FdrDistError, ArithmeticError):
    """A computation failed: a quadrature that did not converge within
    its node cap, a quantile that missed its tolerance, or a probability
    that left [0, 1] by more than tolerance."""

    exit_code = 3

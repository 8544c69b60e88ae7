"""Exception types shared across the package. An argument or
configuration the package refuses raises a plain ``ValueError``."""


class NumericalError(Exception):
    """A computation broke down: positive curvature (s'y, d'Gd or
    rho = g'Hg) was required but not observed, a value came out
    non-finite, a factorization failed, or no Armijo step was found.
    With a strictly convex objective these can only happen through
    numerical breakdown, so callers treat this as a hard diagnostic
    rather than clamping."""


class ParseError(ValueError):
    """Malformed input file; carries the 1-based line number."""

    def __init__(self, message, line_number=None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number

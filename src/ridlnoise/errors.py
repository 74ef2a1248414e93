"""Exception types shared across the library."""


class NumericalError(RuntimeError):
    """A computation failed numerically: an eigensolve that does not
    converge or fails its certificate, a singular Stein equation, a
    conjugate-gradient solve that does not certify the index within its
    iteration budget, or an exact index that is not sandwiched by the
    bounds."""

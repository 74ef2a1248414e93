"""Exception types shared across the library."""


class NumericalError(RuntimeError):
    """A computation failed numerically (near-singular system, bad spectrum)."""

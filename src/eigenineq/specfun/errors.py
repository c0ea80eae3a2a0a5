"""Error types raised by the special-function layer."""


class ConvergenceError(RuntimeError):
    """An iterative refinement or scan failed to converge; never silent."""

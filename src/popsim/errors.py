"""Exception hierarchy shared across the package."""


class SimulationError(Exception):
    """Base class for all popsim errors."""


class InputError(SimulationError):
    """Invalid or inconsistent user-supplied input (files, config, arguments)."""


class CoverageError(InputError):
    """Input lacks what is asked of it: a parameter lookup, or a year to compare."""


class FeasibilityError(InputError):
    """Marginal targets cannot be satisfied (e.g. mismatched grand totals)."""


class ConvergenceError(SimulationError):
    """An iterative numerical procedure failed to reach its tolerance.

    Carries the last observed residual in ``residual``.
    """

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual

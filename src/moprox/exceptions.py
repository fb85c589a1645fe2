"""Error types shared across the package."""


class EvaluationError(RuntimeError):
    """An objective returned a nonfinite value.

    ``objective`` holds the index of the offending component.
    """

    def __init__(self, message, objective=None):
        super().__init__(message)
        self.objective = objective


class DualSolveError(RuntimeError):
    """``merit_gap``'s dual solve ended capped, its gap above 100x target."""


class LineSearchError(RuntimeError):
    """Backtracking exhausted its budget without an acceptable step, or the
    model decrease it was given is not negative in every component."""


class UnknownProblemError(KeyError):
    """Requested registry key does not exist."""

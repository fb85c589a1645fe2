"""Error types shared across the package."""


class EvaluationError(RuntimeError):
    """An objective returned a nonfinite value.

    ``objective`` holds the index of the offending component.
    """

    def __init__(self, message, objective=None):
        super().__init__(message)
        self.objective = objective


class DualSolveError(RuntimeError):
    """Dual subproblem solve hit its iteration cap with a large gap.

    ``result`` carries the best feasible solution found; callers may still
    use its direction when the per-objective descent certificate holds.
    """

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


class LineSearchError(RuntimeError):
    """Backtracking exhausted its budget without an acceptable step, or the
    model decrease it was given is not negative in every component."""


class UnknownProblemError(KeyError):
    """Requested registry key does not exist."""

"""Error types shared across the package."""


class EvaluationError(RuntimeError):
    """An objective returned a nonfinite value.

    ``objective`` holds the index of the offending component.
    """

    def __init__(self, message, objective=None):
        super().__init__(message)
        self.objective = objective


class DualSolveError(RuntimeError):
    """A dual solve failed: ``merit_gap``'s ended capped, its gap above 100x
    target; or, inside ``solve()``, which maps it to ``dual_failure``, the
    scaled gradients are not finite or a capped dual is not certified."""


class LineSearchError(RuntimeError):
    """Backtracking exhausted its budget without an acceptable step, or the
    model decrease it was given is not negative in every component; inside
    ``solve()`` also an accepted step that left the iterate unchanged."""


class UnknownProblemError(KeyError):
    """Requested registry key does not exist."""

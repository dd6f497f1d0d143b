"""Exceptions shared across the package."""


class CapExceeded(ValueError):
    """A hard size cap (path length, tuple length, recursion depth) was exceeded."""


class WorkBudgetExceeded(ValueError):
    """An enumeration would visit more states than the configured budget allows.

    The estimate that tripped the guard is kept on the exception so callers
    can report it.  A caller that takes no budget passes its own message.
    """

    def __init__(self, estimate: int, budget: int, message: str = ""):
        super().__init__(
            message
            or f"estimated work {estimate} exceeds budget {budget}; "
            "raise the budget explicitly to proceed"
        )
        self.estimate = estimate
        self.budget = budget


class NotRational(ValueError):
    """The value has nonzero coefficients beyond the constant basis term."""

"""Exception types shared across the library.

The CLI maps these onto its exit codes: format and parameter problems are
"invalid input" (exit 2), materialization and search budgets are "budget
exceeded" (exit 3).  A library verifier returns a falsy result carrying a
witness; a cover check's ``require()`` turns it into a
``VerificationError``, which the CLI prints as its witness (exit 1).
"""


class DimensionError(ValueError):
    """Operands have incompatible or out-of-range dimensions."""


class FormatError(ValueError):
    """A text-format file violates its grammar."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class MaterializationLimitError(RuntimeError):
    """A dense result would exceed the configured entry limit."""


class BudgetExceededError(RuntimeError):
    """An exhaustive search ran out of its node/subset budget."""


class VerificationError(RuntimeError):
    """A construction's precondition failed verification.

    Raised by operations that *build* certificates when a hypothesis they
    rely on does not hold; carries the first witnessing entry or subset.
    """

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness

"""Shared exception types."""


class NotBipartiteError(ValueError):
    """Raised when a bipartition is requested for a graph with an odd cycle."""


class ResourceLimitError(RuntimeError):
    """Raised when an exact computation exceeds a size limit or its work budget.

    `limit` says which limit was exceeded; `hint`, when there is one, names
    the library keyword or call that gets past it.  The message joins the two.
    """

    def __init__(self, limit: str, hint: str = ""):
        super().__init__(f"{limit}; {hint}" if hint else limit)
        self.limit = limit
        self.hint = hint


class TuranUnavailableError(ValueError):
    """Raised when no Turan value (formula or oracle) is available for a pattern."""

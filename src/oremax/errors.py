"""Exception types shared across the package."""


class CapacityError(Exception):
    """An input exceeds a hard size guard (vertex cap, search guard)."""


class BudgetError(CapacityError):
    """An exhaustive search would pass its budget of edge moves tried:
    deletions on a climb down from K_n, additions on a climb up from the
    trees."""


class ParameterError(ValueError):
    """An argument lies outside an operation's domain."""


class Graph6ParseError(ValueError):
    """Malformed graph6 input; ``offset`` is the byte position of the defect."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset

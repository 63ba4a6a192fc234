"""Exception types shared across the package."""


class CapacityError(Exception):
    """An input exceeds a hard size guard: the vertex cap (62), the
    canonical-form guard (10) or the search's order guard (8)."""


class ParameterError(ValueError):
    """An argument lies outside an operation's domain."""


class Graph6ParseError(ValueError):
    """Malformed graph6 input; ``offset`` is the byte position of the defect."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset

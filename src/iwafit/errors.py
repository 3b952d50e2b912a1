"""Exception types shared across the library."""


class IwafitError(Exception):
    """Base class for all library errors."""


class SpecMismatchError(IwafitError):
    """Operands were built on different ring specs."""


class ParseError(IwafitError):
    """Syntax error in the expression language."""

    def __init__(self, message, line=1, column=0):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class PrecisionError(IwafitError):
    """The working precision is too low for the requested value.

    ``needed_N`` is the smallest T-precision N at which it is defined.
    """

    def __init__(self, message, needed_N: int):
        super().__init__(message)
        self.needed_N = needed_N

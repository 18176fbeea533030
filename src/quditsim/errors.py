"""Exception types raised across the package, and one integer check."""


class QuditSimError(Exception):
    """Base class for structured errors raised by quditsim."""


class DimensionError(QuditSimError):
    """Raised when an operation does not support the requested dimension."""


class ShapeError(QuditSimError):
    """Raised when operands have mismatched qudit counts or dimensions."""


class BlockFormatError(QuditSimError):
    """Raised when a block-form row fails validation."""


class PauliMatchError(QuditSimError):
    """Raised when a dense matrix is not a Pauli operator times a phase."""


class MemoryCapError(QuditSimError):
    """Raised before a run allocates past a size cap: a dense statevector
    over the amplitude cap, an outcome matrix of more shots x measurements
    than frames.MAX_OUTCOME_ENTRIES, or an exact law (frames.outcome_law)
    of more outcomes, or a d x d character table of more entries, than
    frames.MAX_LAW_ENTRIES."""


class SupportMismatchError(QuditSimError):
    """Raised when two outcome distributions are over different label sets."""


class ParseError(QuditSimError):
    """Syntax or validation error in SDIM circuit text.

    Attributes:
        line: 1-based line number of the offending token.
        column: 1-based column of the offending token.
        message: human-readable description.
    """

    def __init__(self, line: int, column: int, message: str):
        self.line = line
        self.column = column
        self.message = message
        super().__init__(f"line {line}, column {column}: {message}")


def integral(value, what: str = "value", error=ValueError,
             minimum: int = None) -> int:
    """int(value) for ints, numpy integers, integral floats and integer
    strings; error(...) for anything that int() would truncate or refuse,
    and for a value below minimum when one is given."""
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is None or not isinstance(value, str) and number != value:
        raise error(f"{what} must be an integer, got {value!r}")
    if minimum is not None and number < minimum:
        raise error(f"{what} must be >= {minimum}, got {number}")
    return number

"""Exception types shared across the package."""

EXCERPT_CHARS = 40  # input quoted in an error message


def excerpt(text: str) -> str:
    """text cut to its first EXCERPT_CHARS characters, for error messages."""
    return text if len(text) <= EXCERPT_CHARS else text[:EXCERPT_CHARS] + "..."


class LeibnizLabError(Exception):
    pass


class DivisionByZero(LeibnizLabError, ZeroDivisionError):
    pass


class ConstraintViolation(LeibnizLabError):
    pass


class DenominatorVanishes(LeibnizLabError):
    pass


class ScalarSyntaxError(LeibnizLabError):
    """Raised on malformed scalar text; carries a 0-based column offset."""

    def __init__(self, message, column):
        super().__init__(f"{message} (column {column})")
        self.column = column


class DimensionMismatch(LeibnizLabError):
    pass


class SingularMatrix(LeibnizLabError):
    pass


class InvalidBlock(LeibnizLabError):
    pass


class PreconditionFailed(LeibnizLabError):
    pass


class ParameterNotSupported(LeibnizLabError):
    pass


class DictionaryMiss(LeibnizLabError):
    pass


class MalformedFile(LeibnizLabError):
    """Malformed algebra/matrix file; line/column are 1-based when known."""

    def __init__(self, message, line=None, column=None):
        loc = ""
        if line is not None:
            loc = f" (line {line}, column {column if column is not None else '?'})"
        super().__init__(message + loc)
        self.line = line
        self.column = column

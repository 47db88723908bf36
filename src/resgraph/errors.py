"""Error hierarchy shared by the whole package.

Three classes of failure are distinguished because the CLI maps them to
distinct exit codes: user errors (bad input, violated preconditions),
invariant violations (a theorem-backed cross-check failed, i.e. a bug),
and resource-cap refusals (an enumeration would exceed its budget).
"""


class ResGraphError(Exception):
    """Base class for all package errors."""


class UserError(ResGraphError):
    """Invalid input or violated operation precondition. CLI exit code 1."""


class GraphValidationError(UserError):
    """A graph description was rejected; `diagnostic` names the reason."""

    def __init__(self, diagnostic: str, message: str):
        super().__init__(f"{diagnostic}: {message}")
        self.diagnostic = diagnostic


class InvariantViolation(ResGraphError):
    """A cross-check that must hold by a proved statement failed. Exit code 2.

    Carries an optional `payload` with debugging data (e.g. the set of
    minimal elements when a unique minimum was expected).
    """

    def __init__(self, message: str, payload=None):
        super().__init__(message)
        self.payload = payload


class ResourceCapExceeded(ResGraphError):
    """An enumeration refused to run past its configured cap. Exit code 3."""


def quote(value) -> str:
    """repr(value) for a refusal message, cut to 60 characters so that a
    huge or deeply nested input does not flood the error line."""
    text = repr(value)
    return text if len(text) <= 60 else (
        f"{text[:60]}... ({len(text)} characters)")

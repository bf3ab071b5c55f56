"""Shared exception types, and the file reader that raises InputError."""

from pathlib import Path

# Most elements listed, subgroup search leaves tested, involution walk nodes.
ELEMENT_CAP = 10_000


class InputError(ValueError):
    """Raised for malformed user input: lattice expressions, configuration
    files, or inconsistent numeric data."""


class CapExceeded(RuntimeError):
    """Raised when an exact enumeration would exceed its safety cap.

    The caps guard against silently running forever on oversized groups or
    graphs; callers that can degrade gracefully should catch this and report
    the failure, everything else lets it propagate.
    """


def read_utf8(path) -> tuple[bytes, str]:
    """The bytes of a file, read once, and their text as UTF-8; InputError
    when the file cannot be read or is not UTF-8."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    try:
        return data, data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(
            f"{path} is not UTF-8 text (byte {exc.start})"
        ) from None

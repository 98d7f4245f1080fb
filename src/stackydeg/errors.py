"""Shared error types for input handling."""

from __future__ import annotations


class SchemaError(ValueError):
    """A JSON document violates an input schema.

    Carries a JSON-pointer path to the offending field so batch callers
    can report exactly where an input went wrong.
    """

    def __init__(self, pointer: str, message: str):
        self.pointer = pointer or "/"
        super().__init__(f"{self.pointer}: {message}")


def is_int(value) -> bool:
    """True for a JSON integer; a bool is an int to Python but not here."""
    return isinstance(value, int) and not isinstance(value, bool)

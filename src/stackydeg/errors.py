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


#: Bits of an order read from a document, sign aside (stab, gerbe, extra_mu,
#: grading d and weights, sing a and mu): products of a few stay printable.
MAX_ORDER_BITS = 64


def check_order(value: int, pointer: str) -> None:
    if value.bit_length() > MAX_ORDER_BITS:
        raise SchemaError(pointer, f"exceeds the order cap of {MAX_ORDER_BITS} bits")


def is_int(value) -> bool:
    """True for a JSON integer; a bool is an int to Python but not here."""
    return isinstance(value, int) and not isinstance(value, bool)

"""Fixture: R5 hygiene violations (F401, F541, B006) and their look-alikes."""

import json
import math
import os

# Named in __all__: a re-export, not an unused import.
__all__ = ["os", "formatted", "mutable_default", "no_placeholders"]


def no_placeholders() -> str:
    return f"nothing to format"


def mutable_default(items=[]) -> list:
    return items


def formatted(x: float) -> str:
    # The format spec ".3f" is a nested f-string node without
    # placeholders of its own; it is not an f-string.
    return f"{math.pi * x:.3f}"

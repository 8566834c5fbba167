"""Specification models: each concept's behaviour written the naive way.

A fast body in ``repro`` is proven by feeding the same input to it and
to its model here and requiring the same values and the same errors.
"""

import struct


def outcome(fn, *args):
    """The value ``fn`` returns, or the exception (type, message) it raises."""
    try:
        return ("ok", fn(*args))
    except (ValueError, KeyError, struct.error) as error:
        return ("raised", type(error), str(error))

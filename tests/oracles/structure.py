"""Comparison stricter than ``==`` for decoded values.

``==`` calls ``[1] == [1]`` and ``b"x" == bytearray(b"x")`` and
``{"a": 1, "b": 2} == {"b": 2, "a": 1}`` equal, and an ``IntEnum`` equal to
its ``int``. Code that promises "exactly what the decoder returns" is held
to the exact types and the dict order as well.
"""

from typing import Any


def exact(value: Any) -> Any:
    """``value`` annotated with its exact types, dicts as ordered pairs."""
    if isinstance(value, dict):
        return (type(value), [(exact(k), exact(v)) for k, v in value.items()])
    if isinstance(value, (list, tuple)):
        return (type(value), [exact(item) for item in value])
    return (type(value), value)

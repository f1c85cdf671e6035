"""Reference wire-size walker: the plain isinstance ladder that
``repro.obs.collector.estimate_wire_size`` must agree with, value for
value. The collector's walker dispatches on exact type with a per-class
cache; this one re-derives every size from first principles."""

from __future__ import annotations


def estimate_wire_size(payload: object) -> int:
    box = getattr(payload, "box", None)
    if isinstance(box, bytes):
        return len(box) + 16  # header: sender + counter
    return walk_size(payload, depth=0)


def walk_size(value: object, depth: int) -> int:
    if depth > 6:
        return 8
    if value is None or isinstance(value, bool):
        return 1
    if isinstance(value, (int, float)):
        return 8
    if isinstance(value, bytes):
        return len(value)
    if isinstance(value, str):
        return len(value)
    if isinstance(value, dict):
        return 2 + sum(
            walk_size(k, depth + 1) + walk_size(v, depth + 1)
            for k, v in value.items()
        )
    if isinstance(value, (list, tuple)):
        return 2 + sum(walk_size(item, depth + 1) for item in value)
    fields = getattr(value, "__dataclass_fields__", None)
    if fields is not None:
        return 2 + sum(
            walk_size(getattr(value, name), depth + 1) for name in fields
        )
    return 16

"""``BENCHMARK.json`` at the root of the repository is the one place that
names the workloads and metrics, with units, directions and regression
bounds; the code reads them from there."""

from __future__ import annotations

import functools
import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@functools.lru_cache(maxsize=1)
def load() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def workloads() -> list[str]:
    return [workload["name"] for workload in load()["workloads"]]


def end_to_end() -> dict[str, dict]:
    """name -> {unit, better, bound}, in report order."""
    return {metric["name"]: metric for metric in load()["end_to_end"]}


def per_layer() -> dict[str, dict]:
    return {metric["name"]: metric for metric in load()["per_layer"]}

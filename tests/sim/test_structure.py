"""Each operator and member move has one home in ``repro.service``; the
schedule engines drive the cluster through it (DESIGN.md, "Driving a
cluster")."""

import ast
import pathlib

import repro

SRC = pathlib.Path(repro.__file__).parent
ENGINES = sorted((SRC / "sim").glob("*.py")) + [SRC / "analysis" / "sanitizer.py"]
DRIVEN = {"network", "service", "node", "primary", "successor", "recovery_node", "cluster"}


def test_one_function_outside_the_node_package_asks_a_node_to_join():
    callers = [
        f"{path.relative_to(SRC)}:{function.name}"
        for path in sorted(SRC.rglob("*.py"))
        if path.relative_to(SRC).parts[0] != "node"
        for function in ast.walk(ast.parse(path.read_text()))
        if isinstance(function, ast.FunctionDef)
        for call in ast.walk(function)
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Attribute)
        and call.func.attr == "request_join"
    ]
    assert callers == ["service/service.py:join_node"]


def test_the_engines_reach_into_nothing_they_drive():
    reach_ins = [
        f"{path.name}:{found.lineno} .{found.attr}"
        for path in ENGINES
        for found in ast.walk(ast.parse(path.read_text()))
        if isinstance(found, ast.Attribute)
        and found.attr.startswith("_")
        and (
            (isinstance(found.value, ast.Name) and found.value.id in DRIVEN)
            or (isinstance(found.value, ast.Attribute) and found.value.attr in DRIVEN)
        )
    ]
    assert reach_ins == []


def test_the_engines_spell_no_governance_path():
    assert [path.name for path in ENGINES if '"/gov/' in path.read_text()] == []

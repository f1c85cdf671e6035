"""The node stays taken apart: small files, and components that reach the
node through its public names only (DESIGN.md, "Node components")."""

import ast
import pathlib

import repro.node

NODE_DIR = pathlib.Path(repro.node.__file__).parent
MAX_LINES = 500


def test_no_file_in_the_node_package_exceeds_the_line_limit():
    sizes = {path.name: len(path.read_text().splitlines()) for path in NODE_DIR.glob("*.py")}
    assert {name: n for name, n in sizes.items() if n > MAX_LINES} == {}


def _is_the_node(expr: ast.expr) -> bool:
    """``node``, ``self.node``, ``ctx.node`` — any name or attribute chain
    ending in ``node``."""
    return (isinstance(expr, ast.Name) and expr.id == "node") or (
        isinstance(expr, ast.Attribute) and expr.attr == "node"
    )


def test_only_node_py_touches_the_nodes_private_attributes():
    reach_ins = [
        f"{path.name}:{found.lineno} .{found.attr}"
        for path in sorted(NODE_DIR.glob("*.py"))
        if path.name != "node.py"
        for found in ast.walk(ast.parse(path.read_text()))
        if isinstance(found, ast.Attribute)
        and found.attr.startswith("_")
        and _is_the_node(found.value)
    ]
    assert reach_ins == []

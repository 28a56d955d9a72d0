"""Static checks on the package source."""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "qortho")


def _trees():
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            path = os.path.join(SRC, name)
            with open(path) as fh:
                yield name, ast.parse(fh.read(), filename=path)


def test_no_assert_statements_in_package():
    # `python -O` strips assert statements, so no check may rely on one
    found = []
    for name, tree in _trees():
        found += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_gc_freeze_only_in_console():
    # freezing the heap is for the exiting process alone: main() is also
    # called in-process, where a freeze would pin the caller's objects
    found = []
    for name, tree in _trees():
        scopes = {}  # node -> name of the innermost enclosing function
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(func):
                    scopes[node] = func.name  # inner functions come later
        found += [(name, scopes.get(node, "<module>"))
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "freeze"
                  and isinstance(node.value, ast.Name) and node.value.id == "gc"]
    assert found == [("cli.py", "console")]

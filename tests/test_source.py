"""Static checks on the package source."""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "qortho")


def test_no_assert_statements_in_package():
    # `python -O` strips assert statements, so no check may rely on one
    found = []
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(SRC, name)
        with open(path) as fh:
            tree = ast.parse(fh.read(), filename=path)
        found += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []

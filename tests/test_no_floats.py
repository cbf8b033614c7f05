"""The library is exact: no floating point anywhere in its source.

Walks the syntax tree of every module of the package and rejects float
literals, true division, calls to float() and any use of the math module
other than math.gcd.
"""

import ast
import pathlib

import linsetlab

SRC = pathlib.Path(linsetlab.__file__).parent


def float_uses(tree: ast.AST):
    for node in ast.walk(tree):
        where = getattr(node, "lineno", "?")
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield where, f"float literal {node.value!r}"
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            yield where, "true division /"
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            yield where, "call to float()"
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "math" and node.attr != "gcd"):
            yield where, f"math.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            for alias in node.names:
                if alias.name != "gcd":
                    yield where, f"from math import {alias.name}"


def test_source_has_no_floating_point():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = [f"{path.name}:{line}: {what}"
             for path in modules
             for line, what in float_uses(ast.parse(path.read_text(encoding="utf-8")))]
    assert not found, "\n".join(found)


def test_float_guard_catches_each_kind():
    bad = ["x = 0.5", "y = a / b", "a /= 2", "z = float(3)",
           "import math\nw = math.log(8, 2)", "from math import sqrt"]
    for text in bad:
        assert list(float_uses(ast.parse(text))), text
    assert not list(float_uses(ast.parse("import math\nv = math.gcd(4, 6) // 2")))

"""The package computes with integers only.

Every source file of `kiselman` is parsed, and any float literal, true
division `/`, the name `float`, a `math` logarithm, square root or
exponential, an import of `fractions` or the name `Fraction` is reported
by file and line.
"""

import ast
from pathlib import Path

import kiselman

FLOAT_MATH = ("log", "sqrt", "exp")


def _float_uses(source: str) -> list[tuple[int, str]]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((node.lineno, f"float literal {node.value!r}"))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append((node.lineno, "true division /"))
        elif isinstance(node, ast.Name) and node.id in ("float", "Fraction"):
            found.append((node.lineno, f"the name {node.id}"))
        elif isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names):
            found.append((node.lineno, "import fractions"))
        elif isinstance(node, ast.ImportFrom) and node.module == "fractions":
            found.append((node.lineno, "from fractions import"))
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
            and node.attr.startswith(FLOAT_MATH)
        ):
            found.append((node.lineno, f"math.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found.extend((node.lineno, f"math.{a.name}") for a in node.names if a.name.startswith(FLOAT_MATH))
    return sorted(found)


def test_float_uses_are_found():
    sample = "\n".join(
        [
            "import math",
            "from math import log2, comb",
            "a = 1.5",
            "b = a / 2",
            "b /= 2",
            "c = float(a)",
            "d = math.log2(a) + math.sqrt(a) + math.exp(a)",
            "e = a // 2 + math.isqrt(4) + math.comb(4, 2)",
            "import os, fractions",
            "from fractions import Fraction as F",
            "f = Fraction(1, 3)",
        ]
    )
    assert [line for line, _ in _float_uses(sample)] == [2, 3, 4, 5, 6, 7, 7, 7, 9, 10, 11]


def test_package_has_no_float():
    package = Path(kiselman.__file__).parent
    found = [
        f"kiselman/{path.name}:{line}: {what}"
        for path in sorted(package.glob("*.py"))
        for line, what in _float_uses(path.read_text(encoding="utf-8"))
    ]
    assert not found, "\n".join(found)

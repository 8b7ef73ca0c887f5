"""The README's Python usage block runs and prints what it documents, and
the package exports every name it lists and the block imports."""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import nabla_radius

README = Path(__file__).resolve().parents[1] / "README.md"

# (expression in the block, value documented next to it, expected value)
DOCUMENTED = [
    ("report.ir_estimate", "Fraction(1, 2)", Fraction(1, 2)),
    ("[d.point_estimate for d in report.directions]", "[1/2, 1/2]",
     [Fraction(1, 2), Fraction(1, 2)]),
    ("verdict.verdict.value, verdict.witness_direction",
     "('NOT_OVERCONVERGENT_EVIDENCE', 0)", ("NOT_OVERCONVERGENT_EVIDENCE", 0)),
]


def python_blocks() -> list[str]:
    return re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def test_usage_block_runs_and_matches_its_comments():
    blocks = python_blocks()
    assert len(blocks) == 1
    block = blocks[0]
    namespace: dict = {}
    exec(compile(block, str(README), "exec"), namespace)
    lines = block.splitlines()
    for expression, documented, expected in DOCUMENTED:
        i = next(k for k, line in enumerate(lines) if line.split("#")[0].strip() == expression)
        # the value is documented on the expression's line or the next one
        assert documented in lines[i] + lines[i + 1], expression
        value = eval(expression, namespace)
        assert value == expected, expression
    assert type(namespace["report"].ir_estimate) is Fraction


def test_every_exported_name_resolves():
    names = nabla_radius.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(nabla_radius, name)] == []
    namespace: dict = {}
    exec("from nabla_radius import *", namespace)
    assert [name for name in names if name not in namespace] == []
    assert set(names) <= set(dir(nabla_radius))
    with pytest.raises(AttributeError, match="no_such_name"):
        nabla_radius.no_such_name
    # names resolve on first use: a bare import loads no submodule
    probe = ("import sys, nabla_radius\n"
             "print(sorted(m for m in sys.modules if m.startswith('nabla_radius.')))")
    src = str(Path(nabla_radius.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=pythonpath), timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


def test_usage_block_imports_only_exported_names():
    imported = [
        alias.name
        for node in ast.walk(ast.parse(python_blocks()[0]))
        if isinstance(node, ast.ImportFrom) and node.module == "nabla_radius"
        for alias in node.names
    ]
    assert imported
    assert [name for name in imported if name not in nabla_radius.__all__] == []

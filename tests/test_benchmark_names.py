"""The package names the benchmark reaches resolve, so a rename fails here first.

``perfbench/spans.py`` wraps each ``_TRACED`` function by a bare ``getattr``,
and ``perfbench/run.py`` calls ``cli.main`` and ``cli._threads_default`` and
catches ``cli.SpikedLabError``: a deleted or renamed name would crash a traced
benchmark run. ``_TRACED`` is read from the file's source, not imported.
"""

import ast
import importlib
from pathlib import Path

import pytest

import spiked_lab

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _traced() -> list[tuple[str, str]]:
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "_TRACED" for t in node.targets):
            return list(ast.literal_eval(node.value))
    raise AssertionError(f"{SPANS} defines no _TRACED")


RUN_NAMES = [("cli", "main"), ("cli", "_threads_default"), ("cli", "SpikedLabError")]


@pytest.mark.parametrize("module,name", list(dict.fromkeys(_traced() + RUN_NAMES)))
def test_benchmark_names_resolve(module, name):
    assert callable(getattr(importlib.import_module(f"spiked_lab.{module}"), name))


def test_every_exported_name_resolves():
    assert [name for name in spiked_lab.__all__ if not hasattr(spiked_lab, name)] == []

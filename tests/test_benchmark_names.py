"""The package names the benchmark reaches resolve, so a rename fails here first.

``perfbench/spans.py`` wraps each ``_TRACED`` function by a bare ``getattr``,
and ``perfbench/run.py`` calls ``cli.main`` and ``cli._threads_default`` and
catches ``cli.SpikedLabError``: a deleted or renamed name would crash a traced
benchmark run. ``_TRACED`` is read from the file's source, not imported,
except by the last two tests, which run the tracer itself.
"""

import ast
import importlib
import sys
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


def test_a_traced_opnorm_experiment_records_its_layers(monkeypatch):
    """A layer whose calls stop entering through the traced name would read 0
    without complaint: the sampler and the opnorm power iteration must show."""
    monkeypatch.syspath_prepend(str(SPANS.parent))
    monkeypatch.delitem(sys.modules, "spans", raising=False)
    from spans import Tracer

    spec = spiked_lab.ExperimentSpec.from_json_dict({
        "h0": {"model": "sym_noise", "n": 5, "k": 3, "seed": 1},
        "h1": {"model": "sym_spiked", "n": 5, "k": 3, "strength": 2.0, "seed": 2},
        "test": {"statistic": "opnorm", "threshold": 2.5, "params": {"iters": 10}},
        "trials": 3,
    })
    with Tracer().installed() as tracer:
        spiked_lab.inference.run_experiment(spec, workers=1)
    names = [span["name"] for span in tracer.spans]
    assert names.count("ensembles.sample_trial") == 6
    assert names.count("tensors.operator_norm_lb") == 2  # one block of three trials per hypothesis


@pytest.mark.parametrize("workers", [1, 2])
def test_a_traced_batch_records_its_layers(monkeypatch, workers):
    """``batch_statistics`` and every trial's ``sample_trial`` call must enter
    through their traced names, wherever the guard around the statistic lives."""
    monkeypatch.syspath_prepend(str(SPANS.parent))
    monkeypatch.delitem(sys.modules, "spans", raising=False)
    from spans import Tracer

    spec = spiked_lab.EnsembleSpec(model="goe", n=5, seed=1)
    with Tracer().installed() as tracer:
        spiked_lab.ensembles.batch_statistics(spec, 4, lambda x, **kw: 1.0, workers=workers)
    names = [span["name"] for span in tracer.spans]
    assert names.count("ensembles.batch_statistics") == 1
    assert names.count("ensembles.sample_trial") == 4
    assert sorted(trial for _, trial, _ in tracer.samples) == [0, 1, 2, 3]

"""Any JSON-ish spec ends in a result or in a documented error, never a traceback.

Each generated spec starts well formed and then, field by field, now and
then takes a wild value instead (out of range, wrong type, NaN or infinite,
junk), loses a field or gains an unknown one. Shapes stay small enough to
run: n <= 6, k <= 4, at most 2 trials, and few samples, restarts and
iterations.
"""

import contextlib
import io
import json
import math

from hypothesis import given
from hypothesis import strategies as st

from spiked_lab.cli import main
from spiked_lab.ensembles import MODELS, EnsembleSpec, sample_trial
from spiked_lab.errors import ConfigError, ContractError, SizingError
from spiked_lab.inference import STATISTICS, ExperimentSpec, run_experiment

DOCUMENTED = (ConfigError, ContractError, SizingError)

# Finite numbers stay within 1e6: far larger strengths overflow inside the
# statistics, a NumericalFailure, which is not what these tests are about.
floats = st.one_of(st.floats(-1e6, 1e6), st.sampled_from([math.nan, math.inf, -math.inf]))
junk = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    floats,
    st.text(max_size=3),
    st.lists(st.integers(-1, 6), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)
numbers = st.one_of(floats, st.integers(-2, 6))


def rarely(usual, other):
    """``other`` about one time in twenty, else ``usual``, which is also what
    a failing example shrinks towards."""
    return st.integers(0, 19).flatmap(lambda i: other if i == 7 else usual)


@st.composite
def spoiled(draw, fields: dict, wild: dict, key: str):
    """``fields`` with, now and then, a value from ``wild`` (or junk), one
    field dropped, or the unknown field ``key`` added."""
    out = {
        name: draw(rarely(st.just(value), st.one_of(wild.get(name, junk), junk)))
        for name, value in fields.items()
    }
    dropped = draw(rarely(st.none(), st.sampled_from(sorted(out))))
    out.pop(dropped, None)
    return draw(rarely(st.just(out), st.just({**out, key: 0})))


def unit(n: int, i: int) -> list:
    return [1.0 / math.sqrt(n)] * n if i < 0 else [float(j == i % n) for j in range(n)]


@st.composite
def ensembles(draw):
    model = draw(st.sampled_from(MODELS))
    n = draw(st.integers(1, 6))
    k = 2 if model in ("goe", "hidden_clique") else draw(st.integers(2, 4))
    spec = {"model": model, "n": n, "k": k, "seed": draw(st.integers(0, 2**64 - 1))}
    if model == "hidden_clique":
        members = draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True))
        spec["strength"] = len(members)
        if draw(st.booleans()):
            spec["spike"] = members
    elif model != "goe":
        spec["strength"] = draw(st.floats(0.0, 4.0))
        if model == "sym_spiked" and draw(st.booleans()):
            spec["spike"] = unit(n, draw(st.integers(-1, n)))
        if model == "asym_spiked" and draw(st.booleans()):
            picks = draw(st.lists(st.integers(-1, n), min_size=k, max_size=k))
            spec["spike"] = [unit(n, i) for i in picks]
    wild = {
        "model": st.text(max_size=4),
        "n": st.integers(-1, 6),
        "k": st.integers(-1, 4),
        "strength": numbers,
        "seed": st.integers(-1, 2**64),
        "spike": st.one_of(
            st.lists(st.integers(-1, 6), max_size=6),
            st.lists(floats, max_size=6),
            st.lists(st.lists(st.floats(-1.0, 1.0), max_size=6), max_size=5),
        ),
    }
    return draw(spoiled(spec, wild, "shape"))


@st.composite
def experiments(draw):
    name = draw(st.sampled_from(STATISTICS))
    test = {"statistic": name}
    cuts = {"eig": ["threshold", "delta"], "trace": ["threshold", None], "lr": ["threshold", None]}
    cut = draw(st.sampled_from(cuts.get(name, ["threshold"])))
    if cut:
        test[cut] = draw(st.floats(0.01, 4.0))
    if name == "lr":
        test["params"] = {"beta": draw(st.floats(0.0, 4.0)), "samples": draw(st.integers(2, 16))}
    if name == "opnorm":
        test["params"] = {"restarts": draw(st.integers(1, 3)), "iters": draw(st.integers(1, 5))}
    if "params" in test:
        wild = {
            "beta": numbers,
            "samples": st.integers(-1, 17),
            "restarts": st.integers(-1, 4),
            "iters": st.integers(-1, 6),
        }
        test["params"] = draw(spoiled(test["params"], wild, "iterz"))
    test = draw(spoiled(test, {"statistic": st.text(max_size=4), "threshold": numbers}, "level"))
    spec = {
        "h0": draw(ensembles()),
        "h1": draw(ensembles()),
        "test": test,
        "trials": draw(st.integers(1, 2)),
        "seed": draw(st.integers(0, 2**63 - 1)),
    }
    wild = {"trials": st.integers(-1, 3), "seed": st.integers(-1, 2**63)}
    return draw(spoiled(spec, wild, "repeats"))


def run_main(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def assert_clean_outcome(code, out, err):
    if code == 0:
        assert err == ""
        assert json.loads(out)["schema_version"] == "v1"
    else:
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


@given(ensembles())
def test_ensemble_spec_ends_in_a_draw_or_a_documented_error(data):
    try:
        spec = EnsembleSpec.from_json_dict(data)
        tensor = sample_trial(spec, 0)
    except DOCUMENTED:
        return
    assert (tensor.dim, tensor.order) == (spec.n, spec.k)


@given(experiments())
def test_experiment_spec_ends_in_a_result_or_a_documented_error(data):
    try:
        spec = ExperimentSpec.from_json_dict(data)
        result = run_experiment(spec, workers=1)
    except DOCUMENTED:
        return
    assert 0.0 <= result.fpr <= 1.0 and 0.0 <= result.power <= 1.0


@given(ensembles(), st.integers(-1, 2))
def test_cli_sample_ends_in_json_or_one_error_line(data, trial):
    assert_clean_outcome(*run_main("sample", "--spec", json.dumps(data), "--trial", str(trial)))


@given(experiments())
def test_cli_experiment_ends_in_json_or_one_error_line(data):
    assert_clean_outcome(*run_main("experiment", "--spec", json.dumps(data), "--threads", "1"))

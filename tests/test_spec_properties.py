"""Any JSON-ish spec ends in a result or in a documented error, never a traceback.

Each generated spec starts well formed and then, field by field, now and
then takes a wild value instead (out of range, wrong type, NaN or infinite,
junk), loses a field or gains an unknown one. Shapes stay small enough to
run: n <= 6, k <= 4 apart from the wild orders 11, 27 and 100 (refused by
the symmetric models, the entry budget or the 32-axis limit except at small
n), at most 2 trials, and few samples, restarts and iterations. Strengths,
``params.beta`` and thresholds range over every finite double: far past
the critical strengths a statistic overflows, and an experiment may end in
a NumericalFailure (exit 2 with one ``numerical failure: `` line), never in
a NaN counted as a decision.
"""

import contextlib
import io
import json
import math

from hypothesis import example, given
from hypothesis import strategies as st

from spiked_lab.cli import main
from spiked_lab.ensembles import MODELS, EnsembleSpec, sample_trial
from spiked_lab.errors import ConfigError, ContractError, NumericalFailure, SizingError
from spiked_lab.inference import STATISTICS, ExperimentSpec, run_experiment

DOCUMENTED = (ConfigError, ContractError, SizingError)

# every finite double, up to +-1.8e308, as well as the moderate range
finite = st.floats(allow_nan=False, allow_infinity=False)
floats = st.one_of(st.floats(-1e6, 1e6), finite, st.sampled_from([math.nan, math.inf, -math.inf]))
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
        spec["strength"] = draw(st.one_of(st.floats(0.0, 4.0), st.floats(0.0, allow_infinity=False)))
        if model == "sym_spiked" and draw(st.booleans()):
            spec["spike"] = unit(n, draw(st.integers(-1, n)))
        if model == "asym_spiked" and draw(st.booleans()):
            picks = draw(st.lists(st.integers(-1, n), min_size=k, max_size=k))
            spec["spike"] = [unit(n, i) for i in picks]
    wild = {
        "model": st.text(max_size=4),
        "n": st.integers(-1, 6),
        "k": st.one_of(st.integers(-1, 4), st.sampled_from([11, 27, 100])),
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
        test[cut] = draw(st.one_of(st.floats(0.01, 4.0), finite if cut == "threshold" else st.floats(0.01, 1e308)))
    if name == "lr":
        beta = draw(st.one_of(st.floats(0.0, 4.0), st.floats(0.0, allow_infinity=False)))
        test["params"] = {"beta": beta, "samples": draw(st.integers(2, 16))}
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


def assert_clean_outcome(code, out, err, numerical=False):
    """Exit 0 with JSON, or 1 with one ``error: `` line; with ``numerical``, also
    2 with one ``numerical failure: `` line."""
    if code == 0:
        assert err == ""
        assert json.loads(out)["schema_version"] == "v1"
    elif numerical and code == 2:
        assert out == ""
        assert err.startswith("numerical failure: ") and err.count("\n") == 1 and err.endswith("\n")
    else:
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


# an order past numpy's axis limit at n = 1 ended in numpy's ValueError
DEEP = {"model": "asym_noise", "n": 1, "k": 100}


@given(ensembles())
@example(DEEP)
def test_ensemble_spec_ends_in_a_draw_or_a_documented_error(data):
    try:
        spec = EnsembleSpec.from_json_dict(data)
        tensor = sample_trial(spec, 0)
    except DOCUMENTED:
        return
    assert (tensor.dim, tensor.order) == (spec.n, spec.k)


# every Lanczos product is finite, the top eigenvalue unscaled is not: an
# OverflowError escaped main here
MAX_EIG = {
    "h0": {"model": "goe", "n": 4},
    "h1": {"model": "sym_spiked", "n": 4, "strength": 1.7976931348623157e308},
    "test": {"statistic": "eig", "threshold": 2.1},
    "trials": 3,
    "seed": 1,
}


@given(experiments())
@example(MAX_EIG)
def test_experiment_spec_ends_in_a_result_or_a_documented_error(data):
    try:
        spec = ExperimentSpec.from_json_dict(data)
        result = run_experiment(spec, workers=1)
    except (*DOCUMENTED, NumericalFailure):
        return
    assert 0.0 <= result.fpr <= 1.0 and 0.0 <= result.power <= 1.0


@given(ensembles(), st.integers(-1, 2))
@example(DEEP, 0)
def test_cli_sample_ends_in_json_or_one_error_line(data, trial):
    assert_clean_outcome(*run_main("sample", "--spec", json.dumps(data), "--trial", str(trial)))


@given(experiments())
@example(MAX_EIG)
def test_cli_experiment_ends_in_json_or_one_error_line(data):
    assert_clean_outcome(*run_main("experiment", "--spec", json.dumps(data), "--threads", "1"), numerical=True)


@given(st.sampled_from(["sym", "asym"]), st.integers(1, 5), st.integers(-1, 10**6), finite)
def test_cli_second_moment_ends_in_json_or_one_error_line(model, k, n, strength):
    argv = ["second-moment", "--model", model, "--k", str(k), "--n", str(n), f"--strength={strength!r}"]
    assert_clean_outcome(*run_main(*argv), numerical=True)


@given(finite, st.one_of(st.none(), st.integers(-1, 10**300)))
def test_cli_rate_ends_in_json_or_one_error_line(a, n):
    argv = ["rate", f"--a={a!r}"] + ([] if n is None else ["--n", str(n)])
    assert_clean_outcome(*run_main(*argv), numerical=True)


@given(st.one_of(st.integers(-2, 10**6), st.integers(-2, 10**400)))
@example(10**14)  # an OverflowError escaped main here
def test_cli_threshold_ends_in_json_or_one_error_line(k):
    assert_clean_outcome(*run_main("threshold", "--k", str(k)))

import inspect
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from spiked_lab import _blas, spectra
from spiked_lab.cli import main
from spiked_lab.ensembles import EnsembleSpec, _openblas_threads, sample_trial, sub_seed_hex
from spiked_lab.inference import (
    STATISTICS,
    ExperimentSpec,
    first_coord_tail_logprob,
    run_experiment,
    second_moment_asym,
    second_moment_sym,
)
from spiked_lab.tensors import load_tensor, tensor_from_json
from spiked_lab.thresholds import beta_star, lambda_star, sphere_rate


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


EXPERIMENT = {
    "h0": {"model": "goe", "n": 40, "seed": 11},
    "h1": {"model": "sym_spiked", "n": 40, "k": 2, "strength": 1.8, "seed": 12},
    "test": {"statistic": "eig", "delta": 0.15},
    "trials": 10,
    "seed": 3,
}


def test_threshold_payload(capsys):
    payload = run_json(capsys, "threshold", "--k", "3")
    assert payload["schema_version"] == "v1"
    assert payload["command"] == "threshold"
    assert payload["beta_star"] == beta_star(3).value
    assert payload["lambda_star"] == lambda_star(3).value
    assert payload["q_star"] == beta_star(3).q_star
    assert payload["unimodal"] is True
    assert payload["meta"]["wall_clock_s"] >= 0.0
    assert isinstance(payload["meta"]["package_version"], str)


def test_threshold_k2_has_no_asymptotic_value(capsys):
    payload = run_json(capsys, "threshold", "--k", "2")
    assert payload["beta_star"] == 1.0
    assert payload["beta_star_asymptotic"] is None


def test_threshold_rejects_bad_order(capsys):
    code, out, err = run_cli(capsys, "threshold", "--k", "1")
    assert code == 1
    assert out == ""
    assert "error:" in err


@pytest.mark.parametrize("k", [10**5 + 1, 10**14, 10**400], ids=["1e5+1", "1e14", "1e400"])
def test_threshold_past_its_order_bound_exits_one(capsys, k):
    code, out, err = run_cli(capsys, "threshold", "--k", str(k))
    assert code == 1 and out == ""
    assert err.startswith("error: order k must be an integer in [2, 100000]") and err.count("\n") == 1


def test_usage_errors_exit_one_not_two(capsys):
    assert run_cli(capsys, "threshold")[0] == 1  # missing --k
    assert run_cli(capsys, "no-such-command")[0] == 1
    assert run_cli(capsys)[0] == 1


def test_second_moment_sym_payload(capsys):
    payload = run_json(
        capsys, "second-moment", "--model", "sym", "--k", "2", "--n", "500",
        "--strength", "0.6",
    )
    want = second_moment_sym(0.6, 500, 2)
    assert payload["log_second_moment"] == want.log_second_moment
    assert payload["method"] == "series"
    assert payload["implied_tv_upper"] == want.implied_tv_upper
    assert "seed" not in payload


def test_second_moment_asym_mc_payload(capsys):
    # --mc-samples and --seed are accepted and have no effect; the seed is echoed
    payload = run_json(
        capsys, "second-moment", "--model", "asym", "--k", "4", "--n", "30",
        "--strength", "1.1", "--mc-samples", "4096", "--seed", "7",
    )
    want = second_moment_asym(1.1, 30, 4)
    assert payload["log_second_moment"] == want.log_second_moment
    assert payload["method"] == "series"
    assert payload["nodes"] == want.nodes
    assert payload["seed"] == 7
    payload = run_json(
        capsys, "second-moment", "--model", "asym", "--k", "2", "--n", "30", "--strength", "1.1"
    )
    assert payload["seed"] == 0


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_second_moment_asym_ignores_its_no_effect_flags(capsys, seed):
    """--mc-samples and --seed change nothing, so no value of theirs is refused."""
    base = ["second-moment", "--model", "asym", "--k", "4", "--n", "30", "--strength", "1.1"]
    want = run_json(capsys, *base)
    payload = run_json(capsys, *base, "--mc-samples", "100000000000", "--seed", seed)
    assert payload["log_second_moment"] == want["log_second_moment"]
    assert payload["seed"] == int(seed)


def test_sample_inline_tensor_matches_library(capsys):
    spec_json = json.dumps({"model": "goe", "n": 20, "seed": 5})
    payload = run_json(capsys, "sample", "--spec", spec_json, "--trial", "2")
    spec = EnsembleSpec.from_json_dict({"model": "goe", "n": 20, "seed": 5})
    want = sample_trial(spec, 2)
    got = tensor_from_json(json.dumps(payload["tensor"]))
    assert np.array_equal(got.array, want.array)
    assert payload["sub_seed"] == sub_seed_hex(5, 2)
    assert payload["n"] == 20 and payload["k"] == 2


def test_sample_seed_override(capsys):
    spec_json = json.dumps({"model": "goe", "n": 8, "seed": 5})
    base = run_json(capsys, "sample", "--spec", spec_json)
    moved = run_json(capsys, "sample", "--spec", spec_json, "--seed", "9")
    assert moved["seed"] == 9
    assert moved["spec"]["seed"] == 9
    assert moved["sub_seed"] != base["sub_seed"]
    assert moved["tensor"]["entries"] != base["tensor"]["entries"]


def test_sample_tensor_out_binary_roundtrip(capsys, tmp_path):
    out = tmp_path / "draw.spkt"
    spec_json = json.dumps({"model": "sym_noise", "n": 6, "k": 3, "seed": 1})
    payload = run_json(capsys, "sample", "--spec", spec_json, "--tensor-out", str(out))
    assert payload["tensor_path"] == str(out)
    assert "tensor" not in payload
    spec = EnsembleSpec.from_json_dict({"model": "sym_noise", "n": 6, "k": 3, "seed": 1})
    assert np.array_equal(load_tensor(str(out)).array, sample_trial(spec, 0).array)


def test_sample_tensor_out_json_roundtrip(capsys, tmp_path):
    out = tmp_path / "draw.json"
    spec_json = json.dumps({"model": "goe", "n": 7, "seed": 2})
    run_json(capsys, "sample", "--spec", spec_json, "--tensor-out", str(out))
    spec = EnsembleSpec.from_json_dict({"model": "goe", "n": 7, "seed": 2})
    got = tensor_from_json(out.read_text())
    assert np.array_equal(got.array, sample_trial(spec, 0).array)


def test_sample_rejects_unknown_suffix(capsys, tmp_path):
    spec_json = json.dumps({"model": "goe", "n": 6})
    code, _, err = run_cli(
        capsys, "sample", "--spec", spec_json, "--tensor-out", str(tmp_path / "x.npy")
    )
    assert code == 1 and ".spkt or .json" in err


def test_sample_refuses_oversize_inline(capsys):
    spec_json = json.dumps({"model": "goe", "n": 101})
    code, _, err = run_cli(capsys, "sample", "--spec", spec_json)
    assert code == 1 and "--tensor-out" in err


@pytest.mark.parametrize("model", ["sym_noise", "asym_noise"])
@pytest.mark.parametrize("command", ["sample", "experiment"])
def test_oversize_spec_exits_one_before_any_draw(capsys, command, model):
    big = {"model": model, "n": 100000, "k": 3}
    spec = big if command == "sample" else {**EXPERIMENT, "h0": big}
    code, out, err = run_cli(capsys, command, "--spec", json.dumps(spec))
    assert code == 1 and out == ""
    assert err.startswith("error: n: ") and err.count("\n") == 1


def test_sample_past_the_array_axes_exits_one_naming_the_order(capsys):
    code, out, err = run_cli(capsys, "sample", "--spec", json.dumps({"model": "asym_noise", "n": 1, "k": 100}))
    assert code == 1 and out == ""
    assert err.startswith("error: k: ") and err.count("\n") == 1


def test_an_integer_too_long_for_json_exits_one(capsys):
    # json.loads raises a plain ValueError past Python's 4,300-digit limit
    spec = '{"model": "goe", "n": 1' + "0" * 5000 + "}"
    code, out, err = run_cli(capsys, "sample", "--spec", spec)
    assert code == 1 and out == ""
    assert err.startswith("error: spec: inline JSON is invalid") and err.count("\n") == 1


def test_sample_spec_from_file(capsys, tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"model": "goe", "n": 9, "seed": 3}))
    payload = run_json(capsys, "sample", "--spec", str(path))
    assert payload["spec"]["n"] == 9


def test_sample_bad_spec_arguments(capsys):
    assert run_cli(capsys, "sample", "--spec", "{not json")[0] == 1
    assert run_cli(capsys, "sample", "--spec", "/no/such/file.json")[0] == 1
    good = json.dumps({"model": "goe", "n": 6})
    assert run_cli(capsys, "sample", "--spec", good, "--trial", "-1")[0] == 1


def test_experiment_json_matches_library(capsys):
    payload = run_json(
        capsys, "experiment", "--spec", json.dumps(EXPERIMENT), "--threads", "1"
    )
    want = run_experiment(ExperimentSpec.from_json_dict(EXPERIMENT))
    assert payload["fpr"] == want.fpr
    assert payload["power"] == want.power
    assert payload["ks_distance"] == want.ks
    assert payload["experiment"]["test"]["threshold"] == pytest.approx(2.15)


def test_experiment_csv_output(capsys):
    code, out, _ = run_cli(
        capsys, "experiment", "--spec", json.dumps(EXPERIMENT), "--format", "csv",
        "--threads", "1",
    )
    assert code == 0
    want = run_experiment(ExperimentSpec.from_json_dict(EXPERIMENT))
    assert out == want.rows_csv()


def test_experiment_thread_count_does_not_change_results(capsys, tmp_path):
    outputs = []
    for threads, name in ((1, "a.json"), (3, "b.json")):
        path = tmp_path / name
        code, out, _ = run_cli(
            capsys, "experiment", "--spec", json.dumps(EXPERIMENT),
            "--threads", str(threads), "--output", str(path),
        )
        assert code == 0 and out == ""
        payload = json.loads(path.read_text())
        del payload["meta"]
        outputs.append(payload)
    assert outputs[0] == outputs[1]


def test_experiment_overrides(capsys):
    fewer = run_json(
        capsys, "experiment", "--spec", json.dumps(EXPERIMENT), "--trials", "4",
        "--threads", "1",
    )
    assert fewer["trials"] == 4
    moved = run_json(
        capsys, "experiment", "--spec", json.dumps(EXPERIMENT), "--seed", "8",
        "--threads", "1",
    )
    assert moved["seed"] == 8


@pytest.mark.parametrize(
    "override,env,field",
    [
        ((), "100000", "SPIKED_LAB_THREADS"),
        (("--threads", "1025"), None, "threads"),
        (("--threads", "100000"), None, "threads"),
    ],
)
def test_experiment_refuses_more_workers_than_the_ceiling(capsys, monkeypatch, no_pool, override, env, field):
    if env is not None:
        monkeypatch.setenv("SPIKED_LAB_THREADS", env)
    code, out, err = run_cli(capsys, "experiment", "--spec", json.dumps(EXPERIMENT), *override)
    assert code == 1 and out == ""
    assert err.startswith(f"error: {field}: must be in [1, 1024]") and err.count("\n") == 1


@pytest.mark.parametrize("trials", [10**20, 3 * 10**14])
def test_experiment_refuses_trials_over_the_entry_budget(capsys, no_pool, trials):
    for argv in (
        ("--spec", json.dumps({**EXPERIMENT, "trials": trials})),
        ("--spec", json.dumps(EXPERIMENT), "--trials", str(trials)),
    ):
        code, out, err = run_cli(capsys, "experiment", *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: trials: must be an integer in [1, 100000000]") and err.count("\n") == 1


def test_experiment_meta_names_the_lanczos_step_path(capsys, monkeypatch):
    """``"openblas"`` exactly where the loaded OpenBLAS has dsymv and the
    GIL-held ddot, daxpy and dgemv, ``"numpy"`` where they are hidden."""
    lib = _blas.openblas()
    full = lib is not None and None not in (lib.dsymv, lib.ddot, lib.daxpy, lib.dgemv)
    payload = run_json(capsys, "experiment", "--spec", json.dumps(EXPERIMENT))
    assert payload["meta"]["lanczos_step"] == ("openblas" if full else "numpy")
    monkeypatch.setattr(spectra, "_lanczos_blas", lambda: None)
    assert run_json(capsys, "experiment", "--spec", json.dumps(EXPERIMENT))["meta"]["lanczos_step"] == "numpy"


def test_experiment_threads_env(capsys, monkeypatch):
    monkeypatch.setenv("SPIKED_LAB_THREADS", "2")
    payload = run_json(capsys, "experiment", "--spec", json.dumps(EXPERIMENT))
    assert payload["command"] == "experiment"
    assert payload["meta"]["workers"] == 2
    assert payload["meta"]["blas_threads"] == (None if _openblas_threads() is None else 1)
    assert run_json(capsys, "experiment", "--spec", json.dumps(EXPERIMENT), "--threads", "3")["meta"]["workers"] == 3
    monkeypatch.setenv("SPIKED_LAB_THREADS", "bogus")
    assert run_cli(capsys, "experiment", "--spec", json.dumps(EXPERIMENT))[0] == 1
    monkeypatch.setenv("SPIKED_LAB_THREADS", "0")
    assert run_cli(capsys, "experiment", "--spec", json.dumps(EXPERIMENT))[0] == 1


def test_rate_payload(capsys):
    payload = run_json(capsys, "rate", "--a", "0.3")
    assert payload["asymptotic_rate"] == sphere_rate(0.3).value
    assert "log_tail_prob" not in payload
    payload = run_json(capsys, "rate", "--a", "0.3", "--n", "2000")
    want = first_coord_tail_logprob(0.3, 2000)
    assert payload["log_tail_prob"] == want
    assert payload["rate_per_coordinate"] == want / 2000


def test_rate_handles_edge_overlap(capsys):
    # json.dumps writes the IEEE infinity as -Infinity; json.loads reads it back
    payload = run_json(capsys, "rate", "--a", "1")
    assert math.isinf(payload["asymptotic_rate"]) and payload["asymptotic_rate"] < 0


def test_numerical_failure_exits_two(capsys, monkeypatch):
    from spiked_lab.errors import NumericalFailure

    def explode(k):
        raise NumericalFailure("synthetic instability")

    monkeypatch.setattr("spiked_lab.cli.beta_star", explode)
    code, out, err = run_cli(capsys, "threshold", "--k", "3")
    assert code == 2
    assert "numerical failure" in err


def test_nan_statistic_exits_two(capsys, monkeypatch):
    monkeypatch.setattr(
        "spiked_lab.inference.make_statistic", lambda name, params=None: lambda x, **kw: math.nan
    )
    code, out, err = run_cli(capsys, "experiment", "--spec", json.dumps(EXPERIMENT))
    assert code == 2 and out == ""
    assert "numerical failure" in err and "nan at hypothesis H0, trial 0" in err


def test_rate_tail_converges_at_large_n(capsys):
    """An absolute 1e-10 stop rule is below the rounding of a log near -1e6; a relative one ends."""
    logs = [
        run_json(capsys, "rate", "--a", "0.999", "--n", str(n))["log_tail_prob"]
        for n in (100000, 300000, 1000000)
    ]
    assert all(math.isfinite(v) for v in logs)
    assert logs[0] > logs[1] > logs[2]


@pytest.mark.parametrize("a,n", [("0.3", 10**30), ("0.999999999", 10**15)])
def test_rate_far_out_ends_in_a_value_or_one_error_line(capsys, a, n):
    # the quadrature cut its interval to width 0 here, and ValueError: math domain error escaped main
    code, out, err = run_cli(capsys, "rate", "--a", a, "--n", str(n))
    assert code in (0, 2)
    if code:
        assert out == "" and err.count("\n") == 1
    else:
        assert -math.inf < json.loads(out)["log_tail_prob"] < 0.0


def test_rate_at_a_tiny_overlap_and_huge_n(capsys):
    # the quadrature printed -21.645 here
    payload = run_json(capsys, "rate", "--a", "1e-9", "--n", str(10**18))
    assert payload["log_tail_prob"] == pytest.approx(-1.84102164500926, abs=1e-9)


@pytest.mark.parametrize("e", [154, 300])
def test_second_moment_at_a_dimension_past_1e152_is_quiet(capsys, e):
    """The log-gamma excess overflowed here and printed a RuntimeWarning.

    For k = 3 and n this large only the j = 2 term of E exp(a T^3) counts:
    (a^2 / 2) (1/2)_3 / (n/2)_3 = 15 beta^4 / (8 n) up to a relative 1/n.
    Its log sums about eight pieces of size log n, so its rounding is a few
    u log n relative.
    """
    n, beta = 10**e, 0.5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(
            capsys, "second-moment", "--model", "sym", "--k", "3", "--n", str(n), "--strength", str(beta)
        )
    assert code == 0 and err == ""
    want = 15.0 * beta**4 / (8.0 * n)
    assert json.loads(out)["log_second_moment"] == pytest.approx(want, rel=8 * 2.0**-53 * math.log(n))


@pytest.mark.parametrize(
    "argv",
    [
        ("rate", "--a", "0.3", "--n", str(10**400)),
        ("second-moment", "--model", "sym", "--k", "3", "--n", str(10**400), "--strength", "0.5"),
    ],
)
def test_a_dimension_past_the_float_range_exits_one(capsys, argv):
    # int too large to convert to float escaped main as an OverflowError here
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: dimension n must be below 2^1024") and err.count("\n") == 1


def test_output_flag_writes_file(capsys, tmp_path):
    path = tmp_path / "out.json"
    code, out, _ = run_cli(capsys, "threshold", "--k", "4", "--output", str(path))
    assert code == 0
    assert out == ""
    assert json.loads(path.read_text())["k"] == 4


@pytest.mark.parametrize(
    "field,argv",
    [
        ("output", ["threshold", "--k", "2", "--output", "TMP/missing/out.json"]),
        ("tensor-out", ["sample", "--spec", '{"model": "goe", "n": 4}', "--tensor-out", "TMP/missing/x.spkt"]),
        ("spec", ["sample", "--spec", "TMP"]),  # a directory
    ],
)
def test_file_errors_exit_one_with_one_error_line(capsys, tmp_path, field, argv):
    code, out, err = run_cli(capsys, *(a.replace("TMP", str(tmp_path)) for a in argv))
    assert code == 1 and out == ""
    assert err.startswith(f"error: {field}: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "content", [b'{"model": "goe", "n": ', b'{"model": "g\xf6e", "n": 4}'], ids=["invalid-json", "not-utf8"]
)
def test_a_spec_file_that_is_not_json_exits_one_with_one_error_line(capsys, tmp_path, content):
    path = tmp_path / "spec.json"
    path.write_bytes(content)
    code, out, err = run_cli(capsys, "sample", "--spec", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: spec: ") and err.count("\n") == 1


@pytest.mark.parametrize("content", ["[1, 2]", "3", "null"])
@pytest.mark.parametrize(
    "argv", [("sample", "--seed", "3"), ("experiment", "--trials", "2"), ("sample",), ("experiment",)]
)
def test_a_spec_file_that_is_not_an_object_exits_one_with_one_error_line(capsys, tmp_path, argv, content):
    # with --seed or --trials the override merge ended in "TypeError: 'list' object is not a mapping"
    path = tmp_path / "spec.json"
    path.write_text(content)
    code, out, err = run_cli(capsys, argv[0], "--spec", str(path), *argv[1:])
    assert code == 1 and out == ""
    assert err.startswith("error: spec: expected a JSON object") and err.count("\n") == 1


def test_public_surface_resolves_and_cli_reports_package_version(capsys):
    import spiked_lab

    assert len(spiked_lab.__all__) == len(set(spiked_lab.__all__))
    for name in spiked_lab.__all__:
        assert hasattr(spiked_lab, name), name
    bound = {
        name
        for name, value in vars(spiked_lab).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert bound - set(spiked_lab.__all__) == set()
    payload = run_json(capsys, "threshold", "--k", "2")
    assert payload["meta"]["package_version"] == spiked_lab.__version__


def test_package_version_is_the_project_version():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    import spiked_lab

    project = tomllib.loads((Path(__file__).resolve().parents[1] / "pyproject.toml").read_text())["project"]
    assert spiked_lab.__version__ == project["version"]


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "spiked_lab", "threshold", "--k", "3"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["schema_version"] == "v1"


@pytest.mark.parametrize(
    "script,args,column,lines",
    [
        pytest.param("second_moment_curves.py", ["--model", "asym", "--k", "4", "--n", "50", "--steps", "3"],
                     "method", 4, id="second_moment_curves"),
        pytest.param("threshold_table.py", [], "beta*", 13, id="threshold_table"),
        pytest.param("bbp_sweep.py", ["--n", "20", "--trials", "2", "--steps", "2"], "mean_top", 3, id="bbp_sweep"),
        pytest.param("clique_power_curve.py", ["--n", "25", "--trials", "2", "--sizes", "2", "5"], "power", 3,
                     id="clique_power_curve"),
    ],
)
def test_script_runs(script, args, column, lines):
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / script), *args],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout.splitlines()
    assert column in out[0].replace(",", " ").split()
    assert len(out) == lines


# --- one parser per process --------------------------------------------------


def _without_meta(payload):
    return {key: value for key, value in payload.items() if key != "meta"}


def test_parser_is_built_once_and_build_parser_stays_fresh():
    from spiked_lab import cli

    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli.build_parser()


def test_overrides_do_not_carry_into_the_next_call(capsys):
    from spiked_lab import cli

    spec = json.dumps(EXPERIMENT)
    first = run_json(
        capsys, "experiment", "--spec", spec, "--seed", "5", "--trials", "3", "--threads", "1"
    )
    assert (first["seed"], first["trials"]) == (5, 3)
    second = run_json(capsys, "experiment", "--spec", spec, "--threads", "1")
    cli._parser.cache_clear()
    fresh = run_json(capsys, "experiment", "--spec", spec, "--threads", "1")
    assert _without_meta(second) == _without_meta(fresh)
    assert (second["seed"], second["trials"]) == (EXPERIMENT["seed"], EXPERIMENT["trials"])


def test_a_usage_error_leaves_the_next_call_working(capsys):
    code, out, err = run_cli(capsys, "threshold", "--k", "3", "--bogus")
    assert code == 1 and out == "" and err.startswith("error: usage: ")
    assert run_json(capsys, "threshold", "--k", "3")["k"] == 3


def test_output_flag_does_not_redirect_the_next_call(capsys, tmp_path):
    path = tmp_path / "first.json"
    code, out, _ = run_cli(capsys, "threshold", "--k", "3", "--output", str(path))
    assert code == 0 and out == ""
    assert json.loads(path.read_text())["k"] == 3
    assert run_json(capsys, "threshold", "--k", "4")["k"] == 4
    assert json.loads(path.read_text())["k"] == 3


def test_sample_after_experiment(capsys):
    run_json(capsys, "experiment", "--spec", json.dumps(EXPERIMENT), "--threads", "1")
    payload = run_json(capsys, "sample", "--spec", '{"model": "goe", "n": 3, "seed": 4}')
    want = sample_trial(EnsembleSpec.from_json_dict({"model": "goe", "n": 3, "seed": 4}), 0)
    assert np.array_equal(tensor_from_json(json.dumps(payload["tensor"])).array, want.array)


def test_cli_binds_the_default_worker_count(monkeypatch):
    from spiked_lab import cli

    monkeypatch.setenv("SPIKED_LAB_THREADS", "3")
    assert cli._threads_default() == 3
    monkeypatch.delenv("SPIKED_LAB_THREADS")
    assert cli._threads_default() == max(1, os.cpu_count() or 1)


# --- no command loads scipy ----------------------------------------------------

_SMALL_EXPERIMENTS = (
    {
        "h0": {"model": "goe", "n": 4},
        "h1": {"model": "sym_spiked", "n": 4, "k": 2, "strength": 1.5},
        "test": {"statistic": "trace"},
    },
    {
        "h0": {"model": "goe", "n": 4},
        "h1": {"model": "hidden_clique", "n": 4, "strength": 2},
        "test": {"statistic": "eig", "delta": 0.1},
    },
    {
        "h0": {"model": "asym_noise", "n": 3, "k": 3},
        "h1": {"model": "asym_spiked", "n": 3, "k": 3, "strength": 2.0},
        "test": {"statistic": "frob", "threshold": 5.0},
    },
    {
        "h0": {"model": "sym_noise", "n": 3, "k": 3},
        "h1": {"model": "sym_spiked", "n": 3, "k": 3, "strength": 2.0},
        "test": {"statistic": "lr", "params": {"samples": 16}},
    },
    {
        "h0": {"model": "sym_noise", "n": 3, "k": 3},
        "h1": {"model": "sym_spiked", "n": 3, "k": 3, "strength": 2.0},
        "test": {"statistic": "opnorm", "threshold": 2.0, "params": {"restarts": 2, "iters": 5}},
    },
)

# thresholds, second moments and tail rates: the payloads must not depend on what loaded first
_THEORY_CALLS = (
    ("threshold", "--k", "3"),
    ("second-moment", "--model", "sym", "--k", "3", "--n", "1000", "--strength", "0.5"),
    ("second-moment", "--model", "asym", "--k", "2", "--n", "50", "--strength", "0.8"),
    ("second-moment", "--model", "asym", "--k", "3", "--n", "1000", "--strength", "0.8"),
    ("second-moment", "--model", "asym", "--k", "4", "--n", "50", "--strength", "1.0"),
    ("rate", "--a", "0.3", "--n", "2000"),
)

_FRESH_INTERPRETER = """
import contextlib, io, json, sys

numpy_calls, theory_calls = json.loads(sys.argv[1])


def loaded():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert spiked_lab.cli.main(argv) == 0, argv
    return out.getvalue()


metadata_before = "importlib.metadata" in sys.modules
import spiked_lab, spiked_lab.cli

report = {"after_import": loaded()}
report["metadata_added"] = not metadata_before and "importlib.metadata" in sys.modules
for argv in numpy_calls:
    run(argv)
report["after_numpy_calls"] = loaded()
report["payloads"] = [json.loads(run(argv)) for argv in theory_calls]
report["after_theory_calls"] = loaded()
print(json.dumps(report))
"""


def test_sampling_and_experiments_never_load_scipy(capsys):
    """A fresh interpreter: the import and every command, theory ones included, leave scipy unloaded,
    and the import leaves ``importlib.metadata`` unloaded too."""
    numpy_calls = [
        ["threshold", "--k", "3"],
        ["sample", "--spec", '{"model": "sym_spiked", "n": 3, "k": 3, "strength": 1.0}'],
    ]
    assert sorted(spec["test"]["statistic"] for spec in _SMALL_EXPERIMENTS) == sorted(STATISTICS)
    numpy_calls += [
        ["experiment", "--threads", "1", "--spec", json.dumps({**spec, "trials": 2, "seed": 1})]
        for spec in _SMALL_EXPERIMENTS
    ]
    config = json.dumps([numpy_calls, _THEORY_CALLS])
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH_INTERPRETER, config],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["after_import"] == []
    assert report["metadata_added"] is False
    assert report["after_numpy_calls"] == []
    assert report["after_theory_calls"] == []
    for argv, payload in zip(_THEORY_CALLS, report["payloads"], strict=True):
        assert _without_meta(payload) == _without_meta(run_json(capsys, *argv)), argv


# --- overflow inside a statistic ---------------------------------------------

_OVERFLOWS = {
    "opnorm": {
        "h0": {"model": "sym_noise", "n": 3, "k": 3},
        "h1": {"model": "sym_spiked", "n": 3, "k": 3, "strength": 1e300},
        "test": {"statistic": "opnorm", "threshold": 1.0},
    },
    "frob": {
        "h0": {"model": "asym_noise", "n": 3, "k": 3},
        "h1": {"model": "asym_spiked", "n": 3, "k": 3, "strength": 1e308},
        "test": {"statistic": "frob", "threshold": 1.0},
    },
    "lr": {
        "h0": {"model": "sym_noise", "n": 3, "k": 3},
        "h1": {"model": "sym_spiked", "n": 3, "k": 3, "strength": 1.0},
        "test": {"statistic": "lr", "params": {"beta": 1e300}},
    },
    "eig": {  # every product is finite; the top eigenvalue, unscaled, is not
        "h0": {"model": "goe", "n": 4},
        "h1": {"model": "sym_spiked", "n": 4, "strength": 1.7976931348623157e308},
        "test": {"statistic": "eig", "threshold": 2.1},
        "seed": 1,  # the top eigenvalue is the largest double to rounding, which may round either way
    },
}


@pytest.mark.parametrize(
    "name,where",
    [
        ("opnorm", "H1, trial 0: overflow"),
        ("frob", "H1, trial 0: overflow"),
        ("lr", "H0, trial 0: "),
        ("eig", "H1, trial 0: the top eigenvalue overflows a double"),
    ],
)
def test_overflow_inside_a_statistic_exits_two(capsys, name, where):
    """Each trial runs on its own worker thread, where the error state must be set."""
    spec = json.dumps({**_OVERFLOWS[name], "trials": 2})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "experiment", "--spec", spec, "--threads", "2")
    assert code == 2 and out == ""
    assert err.startswith(f"numerical failure: statistic {name!r} failed at hypothesis {where}")
    assert err.count("\n") == 1 and "Warning" not in err


def test_strong_lr_signal_is_a_valid_statistic(capsys):
    """The linear-scale likelihood ratio overflows to inf here; the log statistic does not."""
    spec = {
        "h0": {"model": "goe", "n": 10},
        "h1": {"model": "sym_spiked", "n": 10, "k": 2, "strength": 30.0},
        "test": {"statistic": "lr"},
        "trials": 3,
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "experiment", "--spec", json.dumps(spec), "--threads", "2")
    assert code == 0 and err == ""
    assert json.loads(out)["power"] == 1.0

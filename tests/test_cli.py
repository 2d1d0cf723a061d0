import inspect
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from spiked_lab.cli import main
from spiked_lab.ensembles import EnsembleSpec, sample_trial, sub_seed_hex
from spiked_lab.inference import (
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
    assert payload["method"] == "quadrature"
    assert payload["implied_tv_upper"] == want.implied_tv_upper
    assert "seed" not in payload


def test_second_moment_asym_mc_payload(capsys):
    payload = run_json(
        capsys, "second-moment", "--model", "asym", "--k", "4", "--n", "30",
        "--strength", "1.1", "--mc-samples", "4096", "--seed", "7",
    )
    want = second_moment_asym(1.1, 30, 4, mc_samples=4096, seed=7)
    assert payload["log_second_moment"] == want.log_second_moment
    assert payload["method"] == "monte_carlo"
    assert payload["nodes"] == 4096
    assert payload["seed"] == 7


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_second_moment_out_of_range_seed_exits_one(capsys, seed):
    code, out, err = run_cli(
        capsys, "second-moment", "--model", "asym", "--k", "4", "--n", "30",
        "--strength", "1.1", "--mc-samples", "64", "--seed", seed,
    )
    assert code == 1 and out == ""
    assert err.startswith("error: seed must be") and err.count("\n") == 1


def test_second_moment_oversized_monte_carlo_exits_one(capsys):
    code, out, err = run_cli(
        capsys, "second-moment", "--model", "asym", "--k", "4", "--n", "30",
        "--strength", "1.1", "--mc-samples", "100000000000",
    )
    assert code == 1 and out == ""
    assert err.startswith("error: mc_samples=") and err.count("\n") == 1


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


def test_experiment_threads_env(capsys, monkeypatch):
    monkeypatch.setenv("SPIKED_LAB_THREADS", "2")
    payload = run_json(capsys, "experiment", "--spec", json.dumps(EXPERIMENT))
    assert payload["command"] == "experiment"
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
    assert bound - set(spiked_lab.__all__) == {"PackageNotFoundError", "version"}
    payload = run_json(capsys, "threshold", "--k", "2")
    assert payload["meta"]["package_version"] == spiked_lab.__version__


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "spiked_lab", "threshold", "--k", "3"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["schema_version"] == "v1"

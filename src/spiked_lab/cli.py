"""Command-line front end.

Subcommands: threshold, second-moment, sample, experiment, rate. Results
go to stdout as a single JSON object (schema_version "v1") or, where it
makes sense, CSV. Exit codes: 0 success, 1 configuration or usage error,
2 numerical failure. Everything human-readable goes to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
import time

from . import __version__
from .ensembles import STREAM_SAMPLE, EnsembleSpec, _worker_count, sample_trial, sub_seed_hex
from .ensembles import _threads_default  # noqa: F401  (perfbench/run.py records the worker count)
from .errors import ConfigError, NumericalFailure, SpikedLabError
from .inference import (
    ExperimentSpec,
    first_coord_tail_logprob,
    run_experiment,
    second_moment_asym,
    second_moment_sym,
)
from .tensors import _JSON_MAX_ENTRIES, save_tensor, tensor_to_json
from .thresholds import _lambda_from_beta, beta_star, beta_star_asymptotic, sphere_rate

SCHEMA_VERSION = "v1"


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the contract reserves 2
    # for numerical failures, so route usage problems through ConfigError.
    def error(self, message):
        raise ConfigError("usage", message)


@contextlib.contextmanager
def _file_errors(field: str, path: str):
    """Report a failed open, read or write of ``path`` as a ConfigError on ``field``."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(field, f"{path}: {exc.strerror or exc}") from exc


def _emit(text: str, output: str | None) -> None:
    if output:
        with _file_errors("output", output), open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_spec_arg(raw: str) -> dict:
    """Accept either inline JSON or a path to a JSON file; either must hold a JSON object."""
    candidate = raw.strip()
    if candidate.startswith("{"):
        try:
            return json.loads(candidate)  # a JSON text that starts with "{" is an object
        except ValueError as exc:  # JSONDecodeError, or an integer past the int-to-string digit limit
            raise ConfigError("spec", f"inline JSON is invalid: {exc}") from exc
    with _file_errors("spec", raw), open(raw, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
            raise ConfigError("spec", f"{raw} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("spec", f"expected a JSON object, got {type(data).__name__}")
    return data


def _cmd_threshold(args) -> dict:
    beta = beta_star(args.k)
    lam = _lambda_from_beta(beta)
    return {
        "k": args.k,
        "beta_star": beta.value,
        "lambda_star": lam.value,
        "q_star": beta.q_star,
        "tolerance": beta.tolerance,
        "unimodal": beta.unimodal,
        "objective_at_min": beta.objective_at_min,
        "beta_star_asymptotic": beta_star_asymptotic(args.k) if args.k > 2 else None,
    }


def _cmd_second_moment(args) -> dict:
    if args.model == "sym":
        return second_moment_sym(args.strength, args.n, args.k).to_json_dict()
    seed = args.seed or 0
    return {**second_moment_asym(args.strength, args.n, args.k).to_json_dict(), "seed": seed}


def _cmd_sample(args) -> dict:
    data = _load_spec_arg(args.spec)
    if args.seed is not None:
        data = {**data, "seed": args.seed}
    spec = EnsembleSpec.from_json_dict(data)
    if args.trial < 0:
        raise ConfigError("trial", f"must be >= 0, got {args.trial}")
    tensor = sample_trial(spec, args.trial)
    payload = {
        "spec": spec.to_json_dict(),
        "trial": args.trial,
        "seed": spec.seed,
        "sub_seed": sub_seed_hex(spec.seed, args.trial, STREAM_SAMPLE),
        "n": tensor.dim,
        "k": tensor.order,
    }
    if args.tensor_out:
        if not args.tensor_out.endswith((".spkt", ".json")):
            raise ConfigError("tensor-out", "expected a .spkt or .json path")
        with _file_errors("tensor-out", args.tensor_out):
            if args.tensor_out.endswith(".spkt"):
                save_tensor(tensor, args.tensor_out)
            else:
                with open(args.tensor_out, "w", encoding="utf-8") as fh:
                    fh.write(tensor_to_json(tensor) + "\n")
        payload["tensor_path"] = args.tensor_out
    elif tensor.n_entries <= _JSON_MAX_ENTRIES:
        payload["tensor"] = json.loads(tensor_to_json(tensor))
    else:
        raise ConfigError(
            "tensor-out",
            f"{tensor.n_entries} entries is too large to inline; pass --tensor-out FILE",
        )
    return payload


def _cmd_experiment(args) -> dict | str:
    data = _load_spec_arg(args.spec)
    if args.seed is not None:
        data = {**data, "seed": args.seed}
    if args.trials is not None:
        data = {**data, "trials": args.trials}
    spec = ExperimentSpec.from_json_dict(data)
    if args.threads is not None:
        _worker_count(args.threads, "threads")
    result = run_experiment(spec, workers=args.threads)
    if args.format == "csv":
        return result.rows_csv()
    return {**result.to_json_dict(), "meta": {"workers": result.workers, "blas_threads": result.blas_threads}}


def _cmd_rate(args) -> dict:
    point = sphere_rate(args.a)
    payload = {
        "a": point.a,
        "asymptotic_rate": point.value,
    }
    if args.n is not None:
        log_tail = first_coord_tail_logprob(args.a, args.n)
        payload["n"] = args.n
        payload["log_tail_prob"] = log_tail
        payload["rate_per_coordinate"] = log_tail / args.n
    return payload


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="spiked-lab", description="Spiked random matrix and tensor lab")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("threshold", help="critical signal strengths for order k")
    p.add_argument("--k", type=int, required=True, help="tensor order, k >= 2")
    p.set_defaults(func=_cmd_threshold)

    p = sub.add_parser("second-moment", help="likelihood ratio second moment")
    p.add_argument("--model", choices=("sym", "asym"), required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--strength", type=float, required=True)
    no_effect = "accepted for compatibility; no effect"
    p.add_argument("--mc-samples", type=int, default=1 << 17, help=no_effect)
    p.add_argument("--seed", type=int, default=None, help=no_effect)
    p.set_defaults(func=_cmd_second_moment)

    p = sub.add_parser("sample", help="draw one tensor from an ensemble spec")
    p.add_argument("--spec", required=True, help="JSON object or path to a JSON file")
    p.add_argument("--trial", type=int, default=0)
    p.add_argument("--seed", type=int, default=None, help="override the spec seed")
    p.add_argument("--tensor-out", default=None, help="write the tensor to .spkt or .json")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("experiment", help="two-hypothesis detection experiment")
    p.add_argument("--spec", required=True, help="JSON object or path to a JSON file")
    p.add_argument("--seed", type=int, default=None, help="override the experiment seed")
    p.add_argument("--trials", type=int, default=None, help="override the trial count")
    p.add_argument(
        "--threads",
        type=int,
        default=None,
        help="worker threads, the one level of parallelism: OpenBLAS runs one thread "
        "inside each (default: SPIKED_LAB_THREADS or the CPU count)",
    )
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("rate", help="sphere cap rate function and finite-n tails")
    p.add_argument("--a", type=float, required=True, help="overlap level in [-1, 1]")
    p.add_argument("--n", type=int, default=None, help="also report log P(T >= a) at this n")
    p.set_defaults(func=_cmd_rate)

    for p in sub.choices.values():
        p.add_argument("--output", default=None, help="write the result here instead of stdout")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parse_args keeps no state between calls and every func looks its
    # library names up at call time, so one parser serves the process
    return build_parser()


def main(argv=None) -> int:
    started = time.monotonic()
    try:
        args = _parser().parse_args(argv)
        result = args.func(args)
        if isinstance(result, dict):  # CSV text goes out as it is
            meta = {"package_version": __version__, "wall_clock_s": time.monotonic() - started,
                    **result.pop("meta", {})}
            envelope = {"schema_version": SCHEMA_VERSION, "command": args.command}
            result = json.dumps({**envelope, **result, "meta": meta}, indent=2) + "\n"
        _emit(result, args.output)
        return 0
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except SpikedLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())

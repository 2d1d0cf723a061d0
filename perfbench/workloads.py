"""The four workloads as fixed lists of CLI argument vectors.

A workload's ``calls`` make up one timed round. Its ``audits`` run once,
untimed, after the timed rounds: they put in view output that the timed
calls do not print, and are checked like every other call.

A workload seed is folded into every generated spec seed (and into the
Monte Carlo seed of the moments workload); the CLI only ever sees the
generated arguments. ``scale="tiny"`` shrinks every shape for the
self-test.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

DEFAULT_SEED = 0
WORKLOADS = ("clique-eig", "trace-goe", "tensor-k3", "moments")
SCALES = ("full", "tiny")


@dataclass(frozen=True)
class Call:
    """One CLI invocation and what its output should look like.

    ``kind`` is "experiment-json", "experiment-csv" or "json". For
    experiments ``trials`` is the per-hypothesis trial count and
    ``threshold`` the decision cut the spec resolves to.
    """

    argv: tuple
    kind: str
    trials: int = 0
    threshold: float | None = None

    @property
    def label(self) -> str:
        return " ".join(a if len(a) < 60 else a[:57] + "..." for a in self.argv)


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    scale: str
    calls: tuple
    warmup: Call
    audits: tuple = ()

    @property
    def checked(self) -> tuple:
        """Every counted call: the round's calls, then the audits."""
        return self.calls + self.audits

    @property
    def items_per_round(self) -> int:
        """Work items per round: experiment trials, both hypotheses counted.

        The moments workload runs no trials; there an item is one CLI
        evaluation.
        """
        if any(c.kind.startswith("experiment") for c in self.calls):
            return sum(2 * c.trials for c in self.calls)
        return len(self.calls)


def _spec_seeds(name: str, seed: int, count: int) -> list[int]:
    rng = random.Random(f"{name}/{seed}")
    return [rng.randrange(1 << 32) for _ in range(count)]


def _experiment(h0, h1, test, trials, seed, threshold, csv) -> Call:
    spec = {"h0": h0, "h1": h1, "test": test, "trials": trials, "seed": seed}
    argv = ("experiment", "--spec", json.dumps(spec, sort_keys=True))
    if csv:
        argv += ("--format", "csv")
    return Call(argv, "experiment-csv" if csv else "experiment-json", trials, threshold)


def _warmup(call: Call) -> Call:
    """The same experiment cut to one trial per hypothesis."""
    spec = json.loads(call.argv[2])
    spec["trials"] = 1
    argv = call.argv[:2] + (json.dumps(spec, sort_keys=True),) + call.argv[3:]
    return Call(argv, call.kind, 1, call.threshold)


def _as_csv(call: Call) -> Call:
    """The same experiment with its per-trial rows printed as CSV."""
    return Call(call.argv + ("--format", "csv"), "experiment-csv", call.trials, call.threshold)


def _clique_eig(seed: int, tiny: bool):
    n, trials = (64, 2) if tiny else (900, 8)
    clique = math.ceil(0.5 * math.sqrt(n))
    s0, s1, se = _spec_seeds("clique-eig", seed, 3)
    call = _experiment(
        {"model": "goe", "n": n, "seed": s0},
        {"model": "hidden_clique", "n": n, "strength": clique, "seed": s1},
        {"statistic": "eig", "delta": 0.15},
        trials, se, 2.15, csv=False,
    )
    # The JSON output holds only fpr, power, the KS distance and the ROC;
    # the audit prints every statistic and decision of the same spec.
    return (call,), _warmup(call), (_as_csv(call),)


def _trace_goe(seed: int, tiny: bool):
    n, trials = (40, 10) if tiny else (500, 200)
    s0, s1, se = _spec_seeds("trace-goe", seed, 3)
    call = _experiment(
        {"model": "goe", "n": n, "seed": s0},
        {"model": "sym_spiked", "n": n, "k": 2, "strength": 1.0, "seed": s1},
        {"statistic": "trace"},
        trials, se, 0.5, csv=True,
    )
    return (call,), _warmup(call), ()


def _tensor_k3(seed: int, tiny: bool):
    n, lr_trials, op_trials = (6, 2, 2) if tiny else (30, 2, 4)
    s0, s1, se_lr, se_op = _spec_seeds("tensor-k3", seed, 4)
    h0 = {"model": "sym_noise", "n": n, "k": 3, "seed": s0}
    h1 = {"model": "sym_spiked", "n": n, "k": 3, "strength": 2.0, "seed": s1}
    lr = {"statistic": "lr"}
    if tiny:
        lr["params"] = {"samples": 64}
    calls = (
        _experiment(h0, h1, lr, lr_trials, se_lr, 0.0, csv=True),
        _experiment(h0, h1, {"statistic": "opnorm", "threshold": 2.5}, op_trials, se_op, 2.5, csv=True),
    )
    return calls, _warmup(calls[0]), ()


def _moments(seed: int, tiny: bool):
    # seed 1 at the default seed is the README's Monte Carlo example
    (mc_seed,) = [1] if seed == DEFAULT_SEED else _spec_seeds("moments", seed, 1)

    def second_moment(model, k, n, strength, *extra):
        return ("second-moment", "--model", model, "--k", str(k), "--n", str(n), "--strength", str(strength)) + extra

    if tiny:
        argvs = [("threshold", "--k", "2"), ("threshold", "--k", "3")]
        argvs += [second_moment("sym", 3, 1000, 0.5)]
        argvs += [second_moment("asym", 2, 100, 0.5)]
        argvs += [second_moment("asym", 4, 50, 1.0, "--seed", str(mc_seed), "--mc-samples", "2000")]
    else:
        argvs = [("threshold", "--k", str(k)) for k in (2, 3, 4, 5, 6, 10, 100)]
        argvs += [second_moment("sym", 3, n, b) for n in (1000, 10000, 100000) for b in (0.5, 1.0, 1.3)]
        argvs += [second_moment("asym", 2, 1000, lam) for lam in (0.5, 0.8, 0.95)]
        argvs += [second_moment("asym", 3, 1000, 0.8)]
        argvs += [second_moment("asym", 4, 50, 1.0, "--seed", str(mc_seed))]
    argvs += [("rate", "--a", "0.3", "--n", "2000")]
    calls = tuple(Call(a, "json") for a in argvs)
    return calls, Call(second_moment("sym", 3, 1000, 0.5), "json"), ()


_BUILDERS = {
    "clique-eig": _clique_eig,
    "trace-goe": _trace_goe,
    "tensor-k3": _tensor_k3,
    "moments": _moments,
}


def build(name: str, seed: int, scale: str = "full") -> Workload:
    if name not in _BUILDERS:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}; expected one of {SCALES}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    calls, warmup, audits = _BUILDERS[name](seed, scale == "tiny")
    return Workload(name, seed, scale, calls, warmup, audits)

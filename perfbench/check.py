"""Output checks for every CLI call the benchmark makes.

Each call's stdout is parsed into a record. Every record must pass the
seed-independent checks (exit code, trial counts, finite values, decisions
consistent with the threshold). At the seed the committed reference was made
for, records must also match the reference within each function's own
documented accuracy:

* experiments: fpr, power, ks_distance, the ROC and every decision exactly;
  each statistic within 1e-9 relative (relative to max(1, |value|), since
  the statistics here are O(1) and can sit near 0). JSON output carries
  no statistics or decisions, so a workload timed on JSON output also
  runs the same spec as an untimed CSV audit (see workloads.py);
* thresholds: q_star, beta_star and lambda_star within the sum of both
  runs' reported golden-section bracket widths (scaled by sqrt(k/2) for
  lambda); the closed-form asymptote within 1e-12 relative;
* quadrature second moments: within both runs' reported
  ``quadrature_error`` plus the node-doubling stop rule of the quadrature
  (1e-9, or 1e-7 for the asymmetric k=3 rule, relative to max(1, |value|));
* Monte Carlo second moments: within 4 combined relative standard errors;
* tail log-probabilities: within 2e-10, twice the quadrature's stop rule;
  the closed-form rate within 1e-12 relative.

A short digest of each record's raw numbers is kept beside it, so a change
that moves bits shows even when it stays within tolerance.
"""

from __future__ import annotations

import hashlib
import json
import math

_STAT_RTOL = 1e-9
_CLOSED_FORM_RTOL = 1e-12
_TAIL_ATOL = 2e-10
_MC_SIGMAS = 4.0


def _stop_rule(model: str, k: int) -> float:
    return 1e-7 if (model, k) == ("asym", 3) else 1e-9


def parse(call, stdout: str) -> dict:
    """The record of one call's output; raises ValueError if malformed."""
    if call.kind == "experiment-csv":
        lines = stdout.splitlines()
        if not lines or lines[0] != "hypothesis,trial,statistic,decision,sub_seed":
            raise ValueError("CSV header missing")
        rows = [line.split(",") for line in lines[1:]]
        if any(len(r) != 5 for r in rows):
            raise ValueError("CSV row with the wrong number of fields")
        return {
            "hypotheses": [int(r[0]) for r in rows],
            "trials": [int(r[1]) for r in rows],
            "statistics": [float(r[2]) for r in rows],
            "decisions": [int(r[3]) for r in rows],
        }
    try:
        obj = json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise ValueError(f"output is not JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ValueError("output is not a JSON object")
    if call.kind == "experiment-json":
        keys = ("fpr", "power", "ks_distance", "roc", "trials", "threshold")
        missing = [k for k in keys if k not in obj]
        if missing:
            raise ValueError(f"missing fields {missing}")
        return {k: obj[k] for k in keys}
    obj.pop("meta", None)
    return obj


def digest(call, record: dict) -> str:
    if call.kind == "experiment-csv":
        raw = ",".join(repr(v) for v in record["statistics"])
    else:
        raw = json.dumps(record, sort_keys=True)
    return hashlib.sha256(raw.encode()).hexdigest()[:16]


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _flag(argv, name):
    return argv[argv.index(name) + 1] if name in argv else None


def generic_problems(call, rec: dict) -> list[str]:
    """Checks that hold at every seed."""
    out = []
    if call.kind == "experiment-csv":
        t = call.trials
        want_h = [0] * t + [1] * t
        want_t = list(range(t)) * 2
        if rec["hypotheses"] != want_h or rec["trials"] != want_t:
            out.append(f"expected {t} rows per hypothesis in trial order")
        if not _finite(*rec["statistics"]):
            out.append("non-finite statistic")
        elif rec["decisions"] != [int(s >= call.threshold) for s in rec["statistics"]]:
            out.append("decision disagrees with statistic >= threshold")
    elif call.kind == "experiment-json":
        if rec["trials"] != call.trials:
            out.append(f"trials {rec['trials']} != {call.trials}")
        if not _finite(rec["fpr"], rec["power"], rec["ks_distance"]) or not all(
            0.0 <= rec[k] <= 1.0 for k in ("fpr", "power", "ks_distance")
        ):
            out.append("fpr, power or ks_distance outside [0, 1]")
        if not _finite(rec["threshold"]) or abs(rec["threshold"] - call.threshold) > 1e-12:
            out.append(f"threshold {rec['threshold']} != {call.threshold}")
        roc = rec["roc"]
        if not roc or roc[0] != [1.0, 1.0] or roc[-1] != [0.0, 0.0]:
            out.append("ROC does not run from (1, 1) to (0, 0)")
    else:
        command = call.argv[0]
        if rec.get("command") != command:
            out.append(f"command {rec.get('command')!r} != {command!r}")
        elif command == "threshold":
            if not _finite(rec.get("beta_star"), rec.get("lambda_star"), rec.get("q_star"), rec.get("tolerance")):
                out.append("non-finite threshold field")
        elif command == "second-moment":
            if not _finite(rec.get("log_second_moment"), rec.get("quadrature_error")) or rec["quadrature_error"] < 0:
                out.append("non-finite log second moment or error")
            echo = (rec.get("model"), rec.get("k"), rec.get("n"), rec.get("strength"))
            want = (_flag(call.argv, "--model"), int(_flag(call.argv, "--k")),
                    int(_flag(call.argv, "--n")), float(_flag(call.argv, "--strength")))
            if echo != want:
                out.append(f"echoed parameters {echo} != {want}")
        elif command == "rate":
            if not _finite(rec.get("asymptotic_rate"), rec.get("log_tail_prob")) or rec["log_tail_prob"] > 0:
                out.append("non-finite rate or positive log tail probability")
    return out


def _close(a, b, tol) -> bool:
    return _finite(a, b) and abs(a - b) <= tol


def reference_problems(call, rec: dict, ref: dict) -> list[str]:
    """Checks against the committed reference record of the same call."""
    out = []
    if call.kind == "experiment-csv":
        if rec["decisions"] != ref["decisions"]:
            out.append("decisions differ from the reference")
        if len(rec["statistics"]) != len(ref["statistics"]):
            out.append("statistic count differs from the reference")
        else:
            bad = sum(
                not _close(a, b, _STAT_RTOL * max(1.0, abs(b)))
                for a, b in zip(rec["statistics"], ref["statistics"])
            )
            if bad:
                out.append(f"{bad} statistics differ from the reference by more than 1e-9 relative")
        return out
    if call.kind == "experiment-json":
        for key in ("fpr", "power", "ks_distance", "roc", "trials", "threshold"):
            if rec[key] != ref[key]:
                out.append(f"{key} differs from the reference")
        return out
    command = call.argv[0]
    if command == "threshold":
        tol = rec["tolerance"] + ref["tolerance"]
        scale = math.sqrt(ref["k"] / 2.0)
        for key, t in (("q_star", tol), ("beta_star", tol), ("lambda_star", scale * tol)):
            if not _close(rec[key], ref[key], t):
                out.append(f"{key} {rec[key]!r} vs reference {ref[key]!r} (tolerance {t:.3g})")
        if rec["unimodal"] != ref["unimodal"]:
            out.append("unimodal flag differs from the reference")
        a, b = rec["beta_star_asymptotic"], ref["beta_star_asymptotic"]
        if (a is None) != (b is None) or (b is not None and not _close(a, b, _CLOSED_FORM_RTOL * abs(b))):
            out.append("beta_star_asymptotic differs from the reference")
    elif command == "second-moment":
        a, b = rec["log_second_moment"], ref["log_second_moment"]
        if "monte_carlo" in (rec["method"], ref["method"]):
            tol = _MC_SIGMAS * math.hypot(rec["quadrature_error"], ref["quadrature_error"])
        else:
            stop = _stop_rule(ref["model"], ref["k"]) * max(1.0, abs(b))
            tol = rec["quadrature_error"] + ref["quadrature_error"] + stop
        if not _close(a, b, tol):
            out.append(f"log_second_moment {a!r} vs reference {b!r} (tolerance {tol:.3g})")
    elif command == "rate":
        a, b = rec["asymptotic_rate"], ref["asymptotic_rate"]
        if not _close(a, b, _CLOSED_FORM_RTOL * abs(b)):
            out.append(f"asymptotic_rate {a!r} vs reference {b!r}")
        a, b = rec["log_tail_prob"], ref["log_tail_prob"]
        if not _close(a, b, _TAIL_ATOL):
            out.append(f"log_tail_prob {a!r} vs reference {b!r} (tolerance {_TAIL_ATOL:.3g})")
    return out

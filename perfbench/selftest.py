"""Self-test of the benchmark itself, at tiny sizes (about four minutes).

    python3 perfbench/selftest.py

For every workload it checks that an untraced and a traced run print every
metric BENCHMARK.json names, with its unit; that a freshly written reference
is met (failed = 0); that a deliberately wrong reference fails every call
(failed = attempted); and that no span has a negative self time. Finally it
checks that run.py exits non-zero, without a result line, in a copy
that holds only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"
RESULTS = HERE / "results"
_KEEP = ("hypotheses", "trials", "k", "n", "tolerance", "quadrature_error")


def _run(workload, trace, extra=(), cwd=ROOT, script=RUN):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace), "--scale", "tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc):
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-1500:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def _corrupt(value):
    """Shift every value and flip every 0/1 decision in a reference record.

    Shapes (trial indices, k, n) and the accuracy a record claims for
    itself (tolerance, quadrature_error) stay as they are.
    """
    if isinstance(value, bool):
        return not value
    if isinstance(value, float):
        return value + 1.0
    if isinstance(value, list):
        return [_corrupt(v) for v in value]
    if isinstance(value, dict):
        return {k: (v if k in _KEEP else _corrupt(v)) for k, v in value.items()}
    if isinstance(value, int):
        return 1 - value if value in (0, 1) else value
    return value


def _check_metrics(result, wanted, label):
    metrics = result["metrics"]
    for m in wanted:
        got = metrics.get(m["name"])
        assert got is not None, f"{label}: metric {m['name']} missing"
        assert got["unit"] == m["unit"], f"{label}: {m['name']} unit {got['unit']} != {m['unit']}"
        assert isinstance(got["value"], (int, float)), f"{label}: {m['name']} is not a number"
    extra = set(metrics) - {m["name"] for m in wanted}
    assert not extra, f"{label}: unlisted metrics {sorted(extra)}"


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    RESULTS.mkdir(exist_ok=True)
    failures = 0
    with tempfile.TemporaryDirectory(dir=RESULTS) as tmp:
        refs = Path(tmp) / "reference"
        bad_refs = Path(tmp) / "wrong-reference"
        bad_refs.mkdir()
        for w in workloads.WORKLOADS:
            steps = []
            try:
                first = _result(_run(w, 0, ("--reference-dir", str(refs), "--write-reference")))
                _check_metrics(first, bench["end_to_end"], f"{w} untraced")
                assert first["failed"] == 0, f"{w}: failed {first['failed']} while writing the reference"
                steps.append("end-to-end metrics")

                again = _result(_run(w, 0, ("--reference-dir", str(refs))))
                assert again["failed"] == 0 and again["attempted"] > 0, f"{w}: matching reference gave {again}"
                steps.append("reference met")

                ref = json.loads((refs / f"{w}.json").read_text())
                for c in ref["calls"]:
                    c["record"] = _corrupt(c["record"])
                (bad_refs / f"{w}.json").write_text(json.dumps(ref))
                wrong = _result(_run(w, 0, ("--reference-dir", str(bad_refs))))
                assert wrong["failed"] == wrong["attempted"] > 0, f"{w}: wrong reference gave {wrong}"
                steps.append("wrong reference fails every call")

                traced = _result(_run(w, 1, ("--reference-dir", str(refs))))
                _check_metrics(traced, bench["per_layer"], f"{w} traced")
                report = json.loads((RESULTS / f"{w}-seed0-tiny-trace1.json").read_text())
                spans = report["spans"]
                assert spans, f"{w}: no spans recorded"
                ids = {s["id"] for s in spans}
                assert all(s["parent"] is None or s["parent"] in ids for s in spans), f"{w}: dangling parent"
                worst = min(s["self_s"] for s in spans)
                assert worst >= 0.0, f"{w}: negative self time {worst}"
                steps.append("per-layer metrics, self times >= 0")
                print(f"PASS {w}: {', '.join(steps)}")
            except (AssertionError, KeyError, ValueError, subprocess.TimeoutExpired) as exc:
                failures += 1
                print(f"FAIL {w} after [{', '.join(steps)}]: {exc}")

        bare = Path(tmp) / "bare"
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = _run("moments", 0, cwd=bare, script=bare / "perfbench" / "run.py")
        last = proc.stdout.strip().splitlines()[-1:] or [""]
        if proc.returncode != 0 and '"metrics"' not in last[0]:
            print("PASS bare copy: exits non-zero without a result")
        else:
            failures += 1
            print(f"FAIL bare copy: exit {proc.returncode}, last line {last[0][:200]!r}")
    print("selftest:", "ok" if failures == 0 else f"{failures} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

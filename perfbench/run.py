"""spiked-lab benchmark runner.

    python3 perfbench/run.py --workload clique-eig --seed 0 --seconds 22 --trace 0

Runs one workload as a closed loop of in-process ``spiked_lab.cli.main``
calls (one caller; each call starts when the previous one returns), with
the package imported from ``src/`` of the checkout this file sits in. No
thread environment variable and no ``--threads`` flag is set: the CLI's own
defaults apply, and the record states what they resolved to. The set-up
probes (fresh interpreters timed from start to the end of a warm-up call)
are spread over the measured window, between rounds, so that they see the
same machine as the timed calls.

``--trace 0`` prints the end-to-end metrics of an untraced run; ``--trace
1`` alternates untraced and traced rounds and prints the per-layer metrics.
Every call's output is checked (see check.py). The last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics; a
fuller report, with the machine record and, when traced, every span, goes
to perfbench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# These import no numpy or scipy, so a set-up probe's import_s covers the
# package's whole import.
import check
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE_DIR = HERE / "reference"
RESULTS_DIR = HERE / "results"
SETUP_PROBES = 7
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "SPIKED_LAB_THREADS")
_MAX_PROBLEMS = 40


def _parse_args(argv):
    p = argparse.ArgumentParser(description="spiked-lab benchmark")
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=22.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=workloads.SCALES, default="full")
    p.add_argument("--reference-dir", type=Path, default=REFERENCE_DIR)
    p.add_argument("--write-reference", action="store_true",
                   help="store this run's outputs as the reference for its seed and scale")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


class Runner:
    """Calls the CLI in process, captures its output and checks it."""

    def __init__(self, cli, workload, reference):
        self.cli = cli
        self.workload = workload
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.records: dict[int, dict] = {}
        self.digests: dict[int, str] = {}
        self.last_bytes = 0

    def run(self, index, call) -> float:
        """One call; returns its wall time.

        ``index`` is None for the warm-up, which is checked but not counted
        in ``attempted`` or ``failed``.
        """
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(list(call.argv))
        except Exception as exc:  # a raising call is a failed call, not a crashed benchmark
            rc = f"raised {type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        stdout = out.getvalue()
        self.last_bytes = len(stdout.encode())
        self._check(index, call, rc, stdout, err.getvalue())
        return wall

    def _check(self, index, call, rc, stdout, stderr):
        problems = []
        if rc != 0:
            problems.append(f"exit {rc}: {stderr.strip()[-200:]}")
        else:
            try:
                rec = check.parse(call, stdout)
                problems += check.generic_problems(call, rec)
                if index is not None:
                    problems += self._compare(index, call, rec)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
        if index is not None:
            self.attempted += 1
            self.failed += bool(problems)
        if problems:
            if len(self.problems) < _MAX_PROBLEMS:
                self.problems.append(f"{call.label}: {'; '.join(problems)}")

    def _compare(self, index, call, rec) -> list[str]:
        out = []
        digest = check.digest(call, rec)
        first = self.digests.setdefault(index, digest)
        if digest != first:
            out.append("output differs from the same call earlier in this run")
        self.records.setdefault(index, rec)
        if self.reference is not None:
            ref = self.reference["calls"][index]
            if ref["argv"] != list(call.argv):
                out.append("reference was made for other arguments")
            else:
                out += check.reference_problems(call, rec, ref["record"])
        return out

    def call_report(self) -> list[dict]:
        rows = []
        for i, call in enumerate(self.workload.checked):
            row = {"call": call.label, "digest": self.digests.get(i)}
            if self.reference is not None:
                row["reference_digest"] = self.reference["calls"][i]["digest"]
                row["bits_moved"] = row["digest"] != row["reference_digest"]
            rows.append(row)
        return rows


def _load_reference(args, workload):
    path = args.reference_dir / f"{workload.name}.json"
    if args.write_reference or not path.is_file():
        return None
    ref = json.loads(path.read_text())
    if ref["seed"] != workload.seed or ref["scale"] != workload.scale:
        return None
    if len(ref["calls"]) != len(workload.checked):
        raise SystemExit(f"reference {path} lists {len(ref['calls'])} calls, workload has {len(workload.checked)}")
    return ref


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            ref = text[5:]
            loose = ROOT / ".git" / ref
            if loose.is_file():
                return loose.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return None
        return text
    except OSError:
        return None


def _blas_threads():
    """Threads each loaded OpenBLAS reports, read through its C API."""
    import ctypes

    found = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line})
    except OSError:
        return found
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                found[Path(path).name] = fn()
                break
    return found


def _machine_record(cli, args, workload):
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {}
    blas["threads"] = _blas_threads()
    try:
        workers = cli._threads_default()
    except (AttributeError, cli.SpikedLabError) as exc:
        workers = f"unresolved: {exc}"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas,
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
        "cli_workers": workers,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "workload": workload.name,
        "seed": workload.seed,
        "scale": workload.scale,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": _git_commit(),
    }


def _setup_probe(args) -> int:
    """Child process: import the CLI, build the specs, run the warm-up call."""
    t0 = time.perf_counter()
    from spiked_lab import cli

    import_s = time.perf_counter() - t0
    workload = workloads.build(args.workload, args.seed, args.scale)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        cli.main(list(workload.warmup.argv))
    print(json.dumps({"import_s": import_s}))
    return 0


class SetupProbes:
    """``SETUP_PROBES`` set-up probes, one fresh interpreter each, run in turn."""

    def __init__(self, args):
        self.cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload",
                    args.workload, "--seed", str(args.seed), "--scale", args.scale]
        self.walls: list[float] = []
        self.imports: list[float] = []

    def _one(self):
        t0 = time.perf_counter()
        proc = subprocess.run(self.cmd, capture_output=True, text=True, timeout=150)
        self.walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise SystemExit(f"setup probe failed:\n{proc.stderr[-2000:]}")
        self.imports.append(json.loads(proc.stdout.splitlines()[-1])["import_s"])

    def keep_pace(self, fraction: float):
        """Run probes until their share of the total matches ``fraction``."""
        while len(self.walls) < min(SETUP_PROBES, math.ceil(fraction * SETUP_PROBES)):
            self._one()

    def finish(self):
        self.keep_pace(1.0)


def _measure(runner, workload, seconds, probes):
    """Untraced rounds of the call list until ``seconds`` have passed."""
    times = [[] for _ in workload.calls]
    t0 = time.perf_counter()
    while not times[0] or time.perf_counter() - t0 < seconds:
        probes.keep_pace((time.perf_counter() - t0) / seconds)
        for i, call in enumerate(workload.calls):
            times[i].append(runner.run(i, call))
    probes.finish()
    return times


def _measure_traced(runner, workload, seconds, tracer, probes):
    """Pairs of one untraced and one traced round until ``seconds`` have passed."""
    plain, traced, rounds, all_spans = [], [], [], []
    call_id = 0
    t0 = time.perf_counter()
    while not traced or time.perf_counter() - t0 < seconds:
        probes.keep_pace((time.perf_counter() - t0) / seconds)
        plain.append(sum(runner.run(i, c) for i, c in enumerate(workload.calls)))
        tracer.reset()
        wall, out_bytes = 0.0, 0
        with tracer.installed():
            for i, call in enumerate(workload.calls):
                tracer.call_id = call_id
                call_id += 1
                wall += runner.run(i, call)
                out_bytes += runner.last_bytes
        traced.append(wall)
        selfs = spans.self_times(tracer.spans)
        rounds.append({**spans.round_summary(tracer.spans, selfs), "cli.output_bytes": out_bytes})
        all_spans += [{**s, "round": len(traced) - 1, "self_s": selfs[s["id"]]} for s in tracer.spans]
    probes.finish()
    return plain, traced, rounds, all_spans


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "spiked_lab" / "cli.py").is_file():
        print(f"error: no spiked_lab package under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be > 0", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return _setup_probe(args)

    workload = workloads.build(args.workload, args.seed, args.scale)
    probes = SetupProbes(args)

    from spiked_lab import cli

    reference = _load_reference(args, workload)
    runner = Runner(cli, workload, reference)
    record = _machine_record(cli, args, workload)
    record["reference_used"] = reference is not None
    runner.run(None, workload.warmup)

    report = {"record": record}
    if args.trace:
        tracer = spans.Tracer()
        plain, traced, rounds, all_spans = _measure_traced(runner, workload, args.seconds, tracer, probes)
        philox, eig = spans.floors(tracer)
        metrics = {name: _metric(statistics.median(r[name] for r in rounds), spans.unit(name)) for name in rounds[0]}
        metrics["ensembles.philox_floor_s"] = _metric(philox, "s")
        metrics["spectra.eigvalsh_floor_s"] = _metric(eig, "s")
        metrics["cli.import_s"] = _metric(statistics.median(probes.imports), "s")
        metrics["trace.overhead_s"] = _metric(statistics.median(traced) - statistics.median(plain), "s")
        report.update(untraced_round_s=plain, traced_round_s=traced, rounds=rounds, spans=all_spans)
    else:
        times = _measure(runner, workload, args.seconds, probes)
        round_s = sum(statistics.median(t) for t in times)
        metrics = {
            "items_per_s": _metric(workload.items_per_round / round_s, "items/s"),
            "setup_s": _metric(statistics.median(probes.walls), "s"),
            "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        }
        report["call_times_s"] = times
    for j, call in enumerate(workload.audits, start=len(workload.calls)):
        runner.run(j, call)
    report.update(setup_walls_s=probes.walls, import_s=probes.imports)

    result = {"correct": runner.failed == 0, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    report.update(result=result, calls=runner.call_report(), problems=runner.problems)
    if args.write_reference:
        if runner.failed:
            print("error: not writing a reference from a run with failed calls", file=sys.stderr)
            return 1
        args.reference_dir.mkdir(parents=True, exist_ok=True)
        ref = {"workload": workload.name, "seed": workload.seed, "scale": workload.scale,
               "git_commit": record["git_commit"],
               "calls": [{"argv": list(c.argv), "record": runner.records[i], "digest": runner.digests[i]}
                         for i, c in enumerate(workload.checked)]}
        (args.reference_dir / f"{workload.name}.json").write_text(json.dumps(ref, indent=1) + "\n")
    RESULTS_DIR.mkdir(exist_ok=True)
    name = f"{workload.name}-seed{workload.seed}-{workload.scale}-trace{args.trace}.json"
    (RESULTS_DIR / name).write_text(json.dumps(report) + "\n")
    for line in runner.problems:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Spans around the package's layer functions, recorded from outside.

The tracer replaces each traced function by a wrapper in every spiked_lab
module that binds it, because callers look names up in their own module
(``spiked_lab.inference.eigvals_sym``, ``spiked_lab.ensembles.symmetrize``
and so on); patching only the defining module would miss those calls. The
originals are restored when the ``installed()`` block ends. Per-direction
helpers such as ``sample_sphere`` are deliberately not wrapped: they run
thousands of times per trial and the wrapper would swamp the workload.

A span holds its name, start, end, parent id, thread id and the id of the
CLI call it belongs to. Spans opened on a worker thread with no open span
of its own take the enclosing ``batch_statistics`` span as parent. Self
time is a span's duration minus the union of its children's intervals; the
union matters because children on worker threads overlap.
"""

from __future__ import annotations

import contextlib
import itertools
import statistics
import threading
import time

LAYERS = (
    "ensembles.sample_trial",
    "ensembles.batch_statistics",
    "tensors.symmetrize",
    "tensors.operator_norm_lb",
    "spectra.eigvals_sym",
    "spectra.ks_distance",
    "inference.run_experiment",
    "inference.likelihood_ratio_mc",
    "inference.second_moment_sym",
    "inference.second_moment_asym_k2",
    "inference.second_moment_asym_k3",
    "inference.second_moment_asym_k4",
    "inference.first_coord_tail_logprob",
    "thresholds.beta_star",
    "thresholds.sphere_rate",
    "cli.main",
)

# (defining module, function name)
_TRACED = (
    ("ensembles", "sample_trial"),
    ("ensembles", "batch_statistics"),
    ("tensors", "symmetrize"),
    ("tensors", "operator_norm_lb"),
    ("spectra", "eigvals_sym"),
    ("spectra", "ks_distance"),
    ("inference", "run_experiment"),
    ("inference", "likelihood_ratio_mc"),
    ("inference", "second_moment_sym"),
    ("inference", "second_moment_asym"),
    ("inference", "first_coord_tail_logprob"),
    ("thresholds", "beta_star"),
    ("thresholds", "sphere_rate"),
    ("cli", "main"),
)

_MODULES = ("ensembles", "tensors", "spectra", "inference", "thresholds", "cli")


def _span_name(module: str, func: str, args, kwargs) -> str:
    if func == "second_moment_asym":
        k = kwargs.get("k", args[2] if len(args) > 2 else 0)
        return f"inference.second_moment_asym_k{min(int(k), 4)}"
    return f"{module}.{func}"


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.samples: list[tuple] = []  # (spec, trial, context) per sample_trial call
        self.eig_inputs: list[tuple | None] = []  # provenance of each eigvals_sym input
        self.call_id: int | None = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count()
        self._fork_parent: int | None = None

    def reset(self):
        with self._lock:
            self.spans, self.samples, self.eig_inputs = [], [], []

    def _wrap(self, module: str, func: str, fn):
        main_thread = threading.main_thread()
        forks = func == "batch_statistics"

        def traced(*args, **kwargs):
            local = self._local
            stack = local.__dict__.setdefault("stack", [])
            if stack:
                parent = stack[-1]
            elif threading.current_thread() is not main_thread:
                parent = self._fork_parent
            else:
                parent = None
            sid = next(self._ids)
            stack.append(sid)
            if forks:
                outer_fork, self._fork_parent = self._fork_parent, sid
            span = {"id": sid, "name": _span_name(module, func, args, kwargs), "parent": parent,
                    "thread": threading.get_ident(), "call": self.call_id}
            result = None
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                cpu1 = time.process_time()
                stack.pop()
                span["start"], span["end"] = t0, t1
                if forks:
                    self._fork_parent = outer_fork
                    span["cpu_s"] = cpu1 - cpu0
                if hasattr(result, "dominated"):  # health field of likelihood-ratio estimates
                    span["dominated"] = result.dominated
                if getattr(result, "method", None) == "quadrature":  # Monte Carlo puts its sample count in .nodes
                    span["nodes"] = result.nodes
                with self._lock:
                    self.spans.append(span)
                    if func == "sample_trial":
                        spec, trial = args[0], args[1]
                        context = kwargs.get("context", args[2] if len(args) > 2 else 0)
                        local.last_sample = (spec, trial, context)
                        self.samples.append(local.last_sample)
                    elif func == "eigvals_sym":
                        self.eig_inputs.append(getattr(local, "last_sample", None))

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every binding of the traced functions; restore on exit."""
        import importlib

        mods = [importlib.import_module("spiked_lab")]
        mods += [importlib.import_module(f"spiked_lab.{m}") for m in _MODULES]
        patched = []
        try:
            for module, func in _TRACED:
                original = getattr(importlib.import_module(f"spiked_lab.{module}"), func)
                wrapper = self._wrap(module, func, original)
                for mod in mods:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            patched.append((mod, attr, original))
            yield self
        finally:
            for mod, attr, original in reversed(patched):
                setattr(mod, attr, original)


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        lo, hi = s["start"], s["end"]
        covered = 0.0
        cur_lo = cur_hi = None
        for a, b in sorted(children.get(s["id"], ())):
            a, b = max(a, lo), min(b, hi)
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s["id"]] = (hi - lo) - covered
    return out


_UNITS = {"self_s": "s", "median_s": "s", "calls": "count", "nodes": "count",
          "cpu_per_wall": "ratio", "dominated_frac": "ratio", "output_bytes": "bytes"}


def unit(metric: str) -> str:
    return _UNITS[metric.rsplit(".", 1)[1]]


def round_summary(spans: list[dict], selfs: dict[int, float]) -> dict[str, float]:
    """Per-layer metrics of one traced round.

    For each layer: total self time, call count and per-call median self
    time. Also the CPU/wall ratio of ``batch_statistics`` (process CPU, so
    BLAS and worker threads count), the share of dominated likelihood-ratio
    estimates and the nodes the quadrature second moments report
    (Monte Carlo second moments are left out).
    """
    by_layer: dict[str, list[float]] = {name: [] for name in LAYERS}
    for s in spans:
        by_layer[s["name"]].append(selfs[s["id"]])
    out = {}
    for name, v in by_layer.items():
        out[f"{name}.self_s"] = sum(v)
        out[f"{name}.calls"] = len(v)
        out[f"{name}.median_s"] = statistics.median(v) if v else 0.0
    batch = [s for s in spans if "cpu_s" in s]
    batch_wall = sum(s["end"] - s["start"] for s in batch)
    lr = [s for s in spans if "dominated" in s]
    out["ensembles.batch_statistics.cpu_per_wall"] = sum(s["cpu_s"] for s in batch) / batch_wall if batch_wall else 0.0
    out["inference.likelihood_ratio_mc.dominated_frac"] = sum(s["dominated"] for s in lr) / len(lr) if lr else 0.0
    out["inference.second_moment.nodes"] = sum(s.get("nodes", 0) for s in spans)
    return out


def floors(tracer: Tracer) -> tuple[float, float]:
    """Bare-numpy floors for the draws and eigensolves of the traced round.

    The Philox floor redraws each sampled trial's Gaussians with a bare
    ``trial_rng(...).standard_normal`` of the tensor's shape. The eigvalsh
    floor regenerates each matrix handed to ``eigvals_sym`` (the package's
    draws are bit-reproducible) and times a bare ``numpy.linalg.eigvalsh``.
    """
    import numpy as np
    from spiked_lab.ensembles import STREAM_SAMPLE, sample_trial, trial_rng

    philox = 0.0
    for spec, trial, context in tracer.samples:
        t0 = time.perf_counter()
        trial_rng(spec.seed, trial, STREAM_SAMPLE, context).standard_normal((spec.n,) * spec.k)
        philox += time.perf_counter() - t0
    eig = 0.0
    for origin in tracer.eig_inputs:
        if origin is None:
            continue
        matrix = sample_trial(*origin).array
        t0 = time.perf_counter()
        np.linalg.eigvalsh(matrix)
        eig += time.perf_counter() - t0
    return philox, eig

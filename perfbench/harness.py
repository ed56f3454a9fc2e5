"""The measurement loop, the metrics, and the result line of one run."""

from __future__ import annotations

import contextlib
import ctypes
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set-up is sampled in this many fresh processes and reported as the median.
PROBES = 5
PROBE_TIMEOUT_S = 30


@dataclass
class Phase:
    """Ops of one closed-loop phase: one client, next op when the last ends."""

    latencies: list[float] = field(default_factory=list)  # seconds, failed ops too
    failed: int = 0
    reasons: list[str] = field(default_factory=list)
    psnr_db: float = math.inf
    max_abs_err: float = 0.0
    groups: int = 0

    @property
    def ops(self) -> int:
        return len(self.latencies)

    def record(self, seconds: float, outcome: workloads.Outcome) -> None:
        self.latencies.append(seconds)
        if not outcome.ok:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(outcome.reason)
        if not math.isnan(outcome.psnr_db):
            self.psnr_db = min(self.psnr_db, outcome.psnr_db)
        if not math.isnan(outcome.max_abs_err):
            self.max_abs_err = max(self.max_abs_err, outcome.max_abs_err)
        self.groups += outcome.groups


def one_op(wl, inst, tracer=None) -> tuple[float, workloads.Outcome]:
    """Time one op, then check its output untimed."""
    wl.prepare(inst)
    start = time.perf_counter()
    end = None
    try:
        result = wl.run(inst) if tracer is None else tracer.call("op", wl.run, (inst,))
        end = time.perf_counter()
        outcome = wl.check(inst, result)
    except Exception as exc:  # a crashing op is a failed op; the run goes on
        outcome = workloads.Outcome(False, f"{type(exc).__name__}: {exc}")
    return (end or time.perf_counter()) - start, outcome


def measure(wl, seconds: float) -> Phase:
    phase = Phase()
    deadline = time.perf_counter() + seconds
    while phase.ops == 0 or time.perf_counter() < deadline:
        phase.record(*one_op(wl, wl.instances[phase.ops % len(wl.instances)]))
    return phase


def measure_traced(wl, seconds: float, tracer: tracing.Tracer) -> tuple[Phase, Phase]:
    """Alternate untraced and traced ops on the same instance, so that both
    halves see the same machine and the difference is the tracing overhead."""
    plain, traced = Phase(), Phase()
    patch = tracing.Patch(tracer)
    deadline = time.perf_counter() + seconds
    while traced.ops == 0 or time.perf_counter() < deadline:
        inst = wl.instances[traced.ops % len(wl.instances)]
        plain.record(*one_op(wl, inst))
        patch.apply()
        try:
            traced.record(*one_op(wl, inst, tracer))
        finally:
            patch.remove()
    return plain, traced


def setup_samples(workload: str, workdir: Path) -> tuple[list[float], list[str]]:
    """``import wnnm`` plus one op, each in a fresh process; fixtures exist already."""
    samples, failures = [], []
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--probe", str(workdir)]
    for _ in range(PROBES):
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            failures.append(f"set-up probe ran over {PROBE_TIMEOUT_S} s")
            continue
        if proc.returncode == 0:
            with contextlib.suppress(IndexError, KeyError, ValueError):
                samples.append(float(json.loads(proc.stdout.splitlines()[-1])["setup_s"]))
                continue
        failures.append(f"set-up probe exit {proc.returncode}: {proc.stderr.strip()[-200:]}")
    return samples, failures


def end_to_end(timed: Phase, setup: list[float], pool: int) -> tuple[dict, dict]:
    """The gated end-to-end metrics, and ungated ones for the report.

    On the shared 2-vCPU Xeon VM this benchmark was tuned on, the CPU ran at
    one of two speeds about 1.6x apart, switching every few seconds, with a
    mix that drifted over minutes. Over ten runs of a workload, statistics
    that blend the two speeds spread widely (interquartile range up to 40% of
    the median for the median latency, 30% for the mean), and so did the best
    time (up to 25%); p90, which sits in the slower speed, spread by 7-15%.
    So p90 is the gated latency and the others are reported ungated.
    """
    ms = np.array(timed.latencies) * 1e3
    p90 = float(np.percentile(ms, 90))
    gated = {
        "latency_p90_ms": (p90, "ms"),
        "psnr_db": (timed.psnr_db if math.isfinite(timed.psnr_db) else 0.0, "dB"),
        "setup_s": (statistics.median(setup) if setup else 0.0, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    # Best time of each instance of the pool, median over the pool.
    best = statistics.median(float(ms[i::pool].min()) for i in range(min(pool, ms.size)))
    ungated = {
        "latency_p50_ms": (float(np.median(ms)), "ms"),
        "latency_mean_ms": (float(ms.mean()), "ms"),
        "latency_best_ms": (best, "ms"),
        "throughput_ops_s": (timed.ops / sum(timed.latencies), "1/s"),
    }
    return gated, ungated


def per_layer(tracer: tracing.Tracer, traced: Phase, plain: Phase) -> dict:
    ops = traced.ops
    spans = tracer.self_times()
    metrics = {}
    for name in tracing.TARGETS:
        calls, self_s, _ = spans.get(name, (0, 0.0, 0.0))
        metrics[f"{name}.calls"] = (calls / ops, "calls/op")
        metrics[f"{name}.self_ms"] = (self_s * 1e3 / ops, "ms/op")
    groups = traced.groups / ops
    metrics["denoise.groups"] = (groups, "groups/op")
    svds = metrics["numpy.linalg.svd.calls"][0]
    metrics["svd_per_group"] = (svds / groups if groups else 0.0, "svd/group")
    n, total = tracer.sums["diag.pava_solve.pooled_frac"]
    metrics["diag.pava_solve.pooled_frac"] = (total / n if n else 0.0, "ratio")
    closed, pava = metrics["diag.closed_form.calls"][0], metrics["diag.pava_solve.calls"][0]
    metrics["diag.closed_path_frac"] = (closed / (closed + pava) if closed + pava else 0.0, "ratio")
    for key in ("cli.csv_bytes_read", "cli.csv_bytes_written"):
        metrics[key] = (tracer.sums[key][1] / ops, "bytes/op")
    _, op_self, op_total = spans["op"]
    metrics["trace.coverage"] = (1.0 - op_self / op_total, "ratio")
    overhead = statistics.median(traced.latencies) / statistics.median(plain.latencies) - 1.0
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    metrics["check.max_abs_err"] = (max(traced.max_abs_err, plain.max_abs_err), "abs")
    return metrics


def as_json(metrics: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def _cpu_model() -> str:
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _blas_threads() -> int | None:
    """Threads the OpenBLAS that numpy loaded will use, asked of the library."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def run(args) -> int:
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, workloads.WORKLOADS[args.workload](args.seed, workdir), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()


def _run(args, wl, workdir: Path) -> int:
    warmup = Phase()
    warmup.record(*one_op(wl, wl.instances[0]))
    phases = [warmup]
    untimed_failures = []  # set-up probes that failed: ops that ran but were not timed
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(), "load": "closed loop, 1 client"}
    if args.trace == 0:
        setup, untimed_failures = setup_samples(args.workload, workdir)
        timed = measure(wl, args.seconds)
        phases.append(timed)
        metrics, ungated = end_to_end(timed, setup, len(wl.instances))
        report.update(ops=timed.ops, setup_samples=len(setup),
                      latency_p90_samples_beyond=int(sum(
                          s * 1e3 > metrics["latency_p90_ms"][0] for s in timed.latencies)),
                      ungated_metrics=as_json(ungated))
    else:
        tracer = tracing.Tracer()
        plain, traced = measure_traced(wl, args.seconds, tracer)
        phases += [plain, traced]
        metrics = per_layer(tracer, traced, plain)
        report.update(ops=plain.ops, traced_ops=traced.ops, spans=len(tracer.spans))
    attempted = sum(p.ops for p in phases) + len(untimed_failures)
    failed = sum(p.failed for p in phases) + len(untimed_failures)
    report.update(failed_frac=failed / attempted,
                  failures=(untimed_failures + [r for p in phases for r in p.reasons])[:5])
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": as_json(metrics),
    }))
    return 0

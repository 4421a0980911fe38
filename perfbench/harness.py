"""Shared machinery: the span recorder, statistics, resource readings
and the metric catalogue the completeness gate checks against."""

import json
import math
import os
import resource
import statistics
import threading
import time

#: End-to-end metrics every workload reports, with their units.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MiB",
}

#: Per-layer metrics and their units.  Every traced run prints every
#: row; a workload whose operations never enter a layer reports 0 for
#: it, which is what it spends there.
PER_LAYER = {
    "flowchart.construct_ms_per_op": "ms",
    "verify.enumerate_ms_per_op": "ms",
    "flowchart.compile_ms_per_op": "ms",
    "surveillance.instrument_ms_per_op": "ms",
    "core.mechanism_build_ms_per_op": "ms",
    "flowchart.engine_us_per_eval": "us",
    "core.wrapper_us_per_eval": "us",
    "verify.classify_us_per_eval": "us",
    "verify.merge_ms_per_op": "ms",
    "verify.checkpoint_ms_per_op": "ms",
    "obs.audit_ms_per_op": "ms",
    "verify.residual_ms_per_op": "ms",
    "verify.evals_per_op": "count",
    "verify.chunks_per_op": "count",
    "obs.audit_records_per_op": "count",
    "serve.execute_miss_p50_ms": "ms",
    "serve.execute_hit_p50_ms": "ms",
    "serve.sweep_p50_ms": "ms",
    "serve.lint_p50_ms": "ms",
    "serve.explain_p50_ms": "ms",
    "serve.cache_hit_ratio": "ratio",
    "serve.schema_us_per_req": "us",
    "serve.execute_work_us": "us",
    "serve.wait_ms": "ms",
    "dist.partition_ms": "ms",
    "dist.reference_ms": "ms",
    "dist.overhead_ms": "ms",
    "dist.inner_ms": "ms",
    "dist.residual_ms": "ms",
    "dist.messages_per_run": "count",
    "dist.retries_per_run": "count",
    "bench.op_ms": "ms",
    "bench.trace_overhead_ms_per_op": "ms",
}


class Tracer:
    """Spans kept in memory: name, start, end, parent; written at exit."""

    def __init__(self):
        self.spans = []
        self._lock = threading.Lock()

    def begin(self, name, parent=None, **attrs):
        with self._lock:
            span_id = len(self.spans)
            self.spans.append({"id": span_id, "name": name,
                               "parent": parent, "start": time.perf_counter(),
                               "end": None, **attrs})
        return span_id

    def end(self, span_id):
        """Close a span; return its duration in seconds."""
        span = self.spans[span_id]
        span["end"] = time.perf_counter()
        return span["end"] - span["start"]

    def timed(self, name, parent, fn, *args, **kwargs):
        """Call ``fn`` inside a span; return ``(result, seconds)``."""
        span_id = self.begin(name, parent)
        result = fn(*args, **kwargs)
        return result, self.end(span_id)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans}, handle)


def median(values):
    return statistics.median(values) if values else 0.0


def p90(values):
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def mean(values):
    return sum(values) / len(values) if values else 0.0


def own_cpu_seconds():
    """User+system CPU of this process and of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (own.ru_utime + own.ru_stime
            + children.ru_utime + children.ru_stime)


def own_peak_rss_mb():
    """Peak RSS of this process or its largest reaped child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def reap_children(timeout=10.0):
    """Wait until every multiprocessing child of this process is joined,
    so its CPU time lands in RUSAGE_CHILDREN."""
    import multiprocessing

    deadline = time.monotonic() + timeout
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            raise RuntimeError("worker processes did not exit")
        time.sleep(0.01)


def proc_cpu_seconds(pid):
    """User+system CPU of another live process, from /proc/<pid>/stat."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


def proc_peak_rss_mb(pid):
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class OpLog:
    """Latency and outcome of every timed operation of a run."""

    def __init__(self):
        self.latencies = []      # seconds, untraced operations
        self.traced = []         # seconds, traced operations
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.elapsed = 0.0
        self.rounds = 0

    def fail(self, message):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)


def metric(value, unit):
    return {"value": value, "unit": unit}


def complete(result, trace):
    """The completeness gate: every expected row, with its unit, as a
    finite number (end-to-end rows also positive), and whole-number
    counts.  Returns the missing or malformed rows."""
    missing = []
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        missing.append("attempted")
    if not isinstance(result.get("failed"), int):
        missing.append("failed")
    metrics = result.get("metrics", {})
    for name, unit in (PER_LAYER if trace else END_TO_END).items():
        row = metrics.get(name)
        if (not isinstance(row, dict) or row.get("unit") != unit
                or not isinstance(row.get("value"), (int, float))
                or not math.isfinite(row["value"])
                or (not trace and row["value"] <= 0)):
            missing.append(name)
    return missing

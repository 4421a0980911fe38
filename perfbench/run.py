"""The benchmark command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload from the root of a source checkout for about ``S``
seconds (whole rounds of its seeded operation list), checks every
output, and prints one JSON object as its last line of output:
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones.  See perfbench/README.md.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

import harness  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("verify-library", "verify-wide", "serve-mixed", "dist-relay")
#: Set-ups per run: this process's own plus fresh-process probes.
SETUP_SAMPLES = 5
#: An untraced run completes at least this many operations, so that at
#: least 10 lie beyond its 90th percentile.
MIN_OPS = 100


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, warm up, print the set-up time, exit")
    return parser.parse_args(argv)


def make_workload(name, seed, workdir):
    if name == "verify-library":
        from verify_workloads import VerifyLibrary
        return VerifyLibrary(seed, workdir)
    if name == "verify-wide":
        from verify_workloads import VerifyWide
        return VerifyWide(seed, workdir)
    if name == "serve-mixed":
        from serve_workload import ServeMixed
        return ServeMixed(seed, workdir)
    from dist_workload import DistRelay
    return DistRelay(seed, workdir)


def run_sequential(workload, seconds, trace, log, tracer):
    """Whole rounds until ``seconds`` of wall time have passed and, when
    untraced, ``MIN_OPS`` operations are done.  A traced run traces every
    other round and runs at least two, so that both kinds are measured.
    Throughput counts only the time spent inside operations."""
    started = time.perf_counter()
    round_index = 0
    while (round_index < (2 if trace else 1)
           or time.perf_counter() - started < seconds
           or (not trace and log.attempted < MIN_OPS)):
        traced = trace and round_index % 2 == 0
        for op in workload.round_ops(round_index):
            workload.run_op(op, log, tracer if traced else None)
        round_index += 1
    log.rounds = round_index
    log.elapsed = sum(log.latencies)
    workload.rss_mb = harness.own_peak_rss_mb()


def setup_probe_seconds(args):
    """Set-up time of a fresh process, measured by that process."""
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", "1", "--setup-probe"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True,
                          timeout=120, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr[-500:]!r}")
    return json.loads(done.stdout.decode().strip().splitlines()[-1])[
        "setup_s"]


def end_to_end(workload, log):
    latencies = log.latencies
    return {
        "ops_per_s": len(latencies) / log.elapsed,
        "latency_p50_ms": harness.median(latencies) * 1e3,
        "latency_p90_ms": harness.p90(latencies) * 1e3,
        "cpu_ms_per_op": workload.cpu / len(latencies) * 1e3,
        "peak_rss_mb": workload.rss_mb,
    }


def per_layer(workload, log):
    values = {name: 0.0 for name in harness.PER_LAYER}
    values.update(workload.layers())
    values["bench.op_ms"] = harness.mean(log.traced) * 1e3
    values["bench.trace_overhead_ms_per_op"] = (
        harness.median(log.traced) - harness.median(log.latencies)) * 1e3
    return values


def main(argv=None):
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"error: no program source under {src}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import repro

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        print(f"error: imported repro from {repro.__file__}, not {src}",
              file=sys.stderr)
        return 2
    work_root = os.path.join(BENCH_DIR, ".work")
    workdir = os.path.join(work_root, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    os.environ["TMPDIR"] = workdir
    tempfile.tempdir = workdir
    workload = None
    try:
        workload = make_workload(args.workload, args.seed, workdir)
        if hasattr(workload, "setup"):
            workload.setup()
        log = harness.OpLog()
        if hasattr(workload, "warmup"):
            workload.warmup()
        else:
            for op in workload.warmup_ops():
                workload.run_op(op, harness.OpLog())
            workload.cpu = 0.0
        setup_s = time.perf_counter() - STARTED
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        tracer = harness.Tracer() if args.trace else None
        if hasattr(workload, "run_phase"):
            workload.run_phase(args.seconds, bool(args.trace), log, tracer)
            workload.close()
            workload.check(log)
        else:
            run_sequential(workload, args.seconds, bool(args.trace), log,
                           tracer)
        if args.trace:
            metrics = per_layer(workload, log)
            tracer.write(os.path.join(
                work_root, f"trace-{args.workload}-{args.seed}.json"))
        else:
            metrics = end_to_end(workload, log)
            setups = [setup_s] + [setup_probe_seconds(args)
                                  for _ in range(SETUP_SAMPLES - 1)]
            metrics["setup_s"] = harness.median(setups)
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
    units = dict(harness.PER_LAYER, **harness.END_TO_END)
    result = {
        "correct": log.failed == 0,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": {name: harness.metric(value, units[name])
                    for name, value in metrics.items()},
    }
    for problem in log.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    missing = harness.complete(result, bool(args.trace))
    if missing:
        print(f"error: incomplete report, missing {missing}",
              file=sys.stderr)
        return 1
    print(f"# {args.workload} seed={args.seed} rounds={log.rounds} "
          f"ops={log.attempted} traced_ops={len(log.traced)}",
          file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

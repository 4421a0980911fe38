"""Steadiness check: run workloads repeatedly, one seed per run.

    python3 perfbench/steady.py [--workloads a,b] [--runs 10] [--seed 1]

For every end-to-end metric it prints the median of the runs, the
spread between quartiles as a share of that median, and the metric's
bound from BENCHMARK.json.  It exits 1 when a spread (setup_s aside)
exceeds its bound, when a run fails, or when the share of failed
operations differs between runs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run_once(config, workload, seed, trace=0):
    command = list(config["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(config["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, timeout=900,
                          check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{done.returncode}: {done.stderr[-800:]!r}")
    return json.loads(done.stdout.decode().strip().splitlines()[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return middle, (q3 - q1) / middle if middle else float("inf")


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        config = json.load(f)
    names = [w["name"] for w in config["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1,
                        help="first seed; run i uses seed + i")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        results = []
        for index in range(args.runs):
            result = run_once(config, workload, args.seed + index)
            results.append(result)
            values = " ".join(f"{name}={result['metrics'][name]['value']:.4g}"
                              for name in bounds)
            print(f"{workload} seed={args.seed + index} "
                  f"attempted={result['attempted']} "
                  f"failed={result['failed']} correct={result['correct']} "
                  f"{values}", file=sys.stderr, flush=True)
        shares = {r["failed"] / r["attempted"] for r in results}
        if len(shares) != 1 or not all(r["correct"] for r in results):
            ok = False
            print(f"{workload}: failed shares {sorted(shares)}")
        print(f"\n{workload}  ({args.runs} runs, seeds {args.seed}.."
              f"{args.seed + args.runs - 1})")
        print(f"  {'metric':<16} {'median':>12} {'iqr/median':>11} "
              f"{'bound':>6}  verdict")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            middle, share = spread(values)
            if name == "setup_s":
                verdict = "not gated"
            elif share <= bound / 3:
                verdict = "ok"
            elif share <= bound:
                verdict = "within bound"
            else:
                verdict = "TOO WIDE"
                ok = False
            unit = results[0]["metrics"][name]["unit"]
            print(f"  {name:<16} {middle:>10.4g} {unit:<4}{share:>8.2%} "
                  f"{bound:>7.0%}  {verdict}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

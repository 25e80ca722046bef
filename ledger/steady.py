#!/usr/bin/env python3
"""Steadiness tool: run one ledger workload k times and report the spread.

For every metric it prints the median, the quartiles (Python's
``statistics.quantiles(values, n=4)``) and the quartile distance over the
median -- the spread a metric's bound in ``BENCHMARK.json`` must cover.

    python3 ledger/steady.py --workload serve_steady --runs 10 [--seed0 100]
        [--same-seed] [--seconds 10] [--trace 0]

Run it from the repository root. Each run gets seed ``seed0 + i`` (or
``seed0`` every time with ``--same-seed``). Seeds already used for a
claim should not be reused while tuning; the held-out seed is listed in
``ledger/README.md``.
"""

import argparse
import json
import statistics
import subprocess
import sys

COMMAND = ["cargo", "run", "--release", "--quiet", "--offline",
           "--manifest-path", "ledger/Cargo.toml", "--"]


def host_jiffies():
    """(steal, total) CPU jiffies of the machine, from /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:9]]
        return fields[7], sum(fields)
    except (OSError, ValueError, IndexError):
        return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=100)
    ap.add_argument("--same-seed", action="store_true")
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()
    if args.runs < 2:
        sys.exit("need at least two runs for quartiles")

    values = {}
    units = {}
    steal = []
    for i in range(args.runs):
        seed = args.seed0 if args.same_seed else args.seed0 + i
        before = host_jiffies()
        proc = subprocess.run(
            COMMAND + ["--workload", args.workload, "--seed", str(seed),
                       "--seconds", str(args.seconds), "--trace", args.trace],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            check=False)
        after = host_jiffies()
        if before and after and after[1] > before[1]:
            steal.append((after[0] - before[0]) / (after[1] - before[1]))
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"run {i} (seed {seed}) failed with exit code {proc.returncode}")
        result = json.loads(lines[-1])
        if not result["correct"]:
            sys.exit(f"run {i} (seed {seed}) reported correct=false")
        summary = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
        stolen = f" steal={steal[-1]:.3f}" if len(steal) == i + 1 else ""
        print(f"run {i} seed {seed}:{stolen} {summary}", file=sys.stderr, flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]

    print(f"{args.workload}: {args.runs} runs, --seconds {args.seconds}, --trace {args.trace}")
    print(f"{'metric':<40} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8}")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:<40} {units[name]:<6} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.4f}")
    if steal:
        # CPU time the hypervisor gave other tenants while the runs ran:
        # when it is high, the wall metrics above spread for that reason.
        print(f"host steal share per run: median {statistics.median(steal):.3f}, "
              f"max {max(steal):.3f}")


if __name__ == "__main__":
    main()

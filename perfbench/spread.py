"""Runs the benchmark once per seed and summarizes each metric.

Run from the repository root:

    python3 perfbench/spread.py --workload batch-wal --seeds 1-10

For every metric it prints the median, the first and third quartiles
(statistics.quantiles(values, n=4)) and the spread, the distance between the
quartiles as a share of the median. It also prints the share of failed
operations, which must be the same in every run.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="10")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()

    values, shares = {}, set()
    for seed in seeds(args.seeds):
        t0 = time.time()
        cmd = ["bash", "perfbench/run.sh", "--workload", args.workload, "--seed", str(seed),
               "--seconds", args.seconds, "--trace", args.trace]
        p = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        last = p.stdout.strip().splitlines()[-1] if p.stdout.strip() else "{}"
        res = json.loads(last)
        if p.returncode != 0 or not res.get("correct"):
            sys.stderr.write(p.stderr[-2000:])
            sys.exit(f"seed {seed}: exit {p.returncode}, result {last}")
        shares.add(res["failed"] / res["attempted"])
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: {time.time() - t0:.1f}s " +
              " ".join(f"{k}={v['value']:.5g}" for k, v in sorted(res["metrics"].items())), flush=True)

    print(f"{'metric':32s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}")
    for name, v in sorted(values.items()):
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], 0, v[0])
        spread = (q3 - q1) / med if med else 0.0
        print(f"{name:32s} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.4f}")
    print("failed share:", " ".join(f"{s:.6f}" for s in sorted(shares)))


if __name__ == "__main__":
    main()

"""Run the benchmark once per seed, one run at a time, and summarise the runs.

    python3 perfbench/spread.py --workload queries --seeds 1-10
    python3 perfbench/spread.py --workload formulas --seeds 3,3 --trace 1

Run from the repository root.  With `--trace 0` it prints, for every
end-to-end metric, the median over the runs and the distance between the
first and third quartile (`statistics.quantiles(values, n=4)`) as a share
of the median, next to the metric's bound in BENCHMARK.json.  With
`--trace 1` it prints the machine-independent counters of every run, which
must agree exactly between runs of the same seed, and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = []
    for seed in args.seeds:
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed), "--seconds",
                                  str(bench["run_seconds"]), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append((seed, line))
        values = {k: v["value"] for k, v in line["metrics"].items()}
        shown = {k: values[k] for k in (spans.COUNTERS if args.trace else values) if k in values}
        print(f"seed {seed}: correct={line['correct']} failed={line['failed']}/"
              f"{line['attempted']} {json.dumps(shown)}", flush=True)
    if args.trace:
        for name in spans.COUNTERS + ("bench.trace_overhead_s", "bench.wall_untraced_s"):
            by_seed: dict = {}
            for seed, line in runs:
                by_seed.setdefault(seed, set()).add(line["metrics"][name]["value"])
            repeat = all(len(v) == 1 for v in by_seed.values())
            print(f"{name:34s} {'repeats' if repeat else 'VARIES':8s} "
                  f"{[line['metrics'][name]['value'] for _, line in runs]}")
        return 0
    for metric in bench["end_to_end"]:
        values = [line["metrics"][metric["name"]]["value"] for _, line in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        print(f"{metric['name']:14s} median {median:12.4f} {metric['unit']:3s} "
              f"IQR/median {spread:.4f} bound {metric['bound']} "
              f"{'ok' if spread < metric['bound'] / 3 else 'WIDE'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

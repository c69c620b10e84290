#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/sweep.py --seeds 0-9 [--workloads forward_axioms,...]
        [--trace 0] [--out perfbench/out/sweep.json]

Runs one `run.py` process at a time, with the `run_seconds` BENCHMARK.json
sets.  For every workload and metric it reports the median of the runs and
the spread: the distance between the first and third quartile
(`statistics.quantiles(values, n=4)`) as a share of the median, next to the
metric's bound.  A run that fails or scores a verdict wrong stops the sweep.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "runs": len(values),
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the summary as JSON here")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    summary = {}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in seed_list(args.seeds):
            cmd = [
                sys.executable, str(HERE / "run.py"),
                "--workload", workload,
                "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]),
                "--trace", str(args.trace),
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            shown = ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items() if args.trace == 0)
            print(f"{workload} seed {seed}: {shown}", flush=True)
        summary[workload] = {name: summarise(v) | {"values": v} for name, v in values.items()}
        for name, s in summary[workload].items():
            bound = bounds.get(name)
            note = "" if bound is None else f"  bound {bound}  spread/bound {s['spread'] / bound:.2f}"
            print(f"  {name:44s} median {s['median']:12.5g}  spread {s['spread']:.4f}{note}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

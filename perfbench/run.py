#!/usr/bin/env python3
"""serialquota benchmark: time to verdict on three workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload forward_axioms --seed 1 --seconds 40 --trace 0

Each workload runs as a closed loop with one client in fresh worker
processes (`worker.py`), one at a time: every worker sets up, runs every
item of the workload once and exits.  Workers are started while one more
fits into `--seconds`, and at least MIN_PASSES run.

With `--trace 0` the run reports the end-to-end metrics.  With `--trace 1`
it alternates untraced and traced workers and reports the per-layer metrics
of the traced ones plus the tracing overhead.  Every verdict is scored
against the answer the paper proves; any mismatch makes `correct` false and
the exit code 1.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  A fuller report, with the
provenance block and sample counts, goes to `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent

MIN_PASSES = 2
SETUP_SAMPLES = 8
DEADLINE_S = 170.0  # the whole command must finish within 180 s
# Seeds 0-14 were used while the benchmark was built and for its baseline;
# claims of a gain are confirmed on this one as well.
HELD_OUT_SEED = 1_000_003
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class BenchError(Exception):
    pass


def worker_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    env.pop("SERIALQUOTA_JOBS", None)
    return env


def spawn(args, env, root: Path, started: float, *, setup_only=False, trace=0, spans_out=None):
    """Run one worker to completion; return (setup_s, result)."""
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--size", args.size,
        "--trace", str(trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    if args.mislabel:
        cmd.append("--mislabel")
    if spans_out:
        cmd += ["--spans-out", str(spans_out)]
    budget = DEADLINE_S - (time.monotonic() - started)
    if budget <= 0:
        raise BenchError("out of time before the minimum number of passes")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=root, env=env, capture_output=True, text=True, timeout=budget
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the {DEADLINE_S:.0f} s deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["ready"] - t0, result


def tail_index(samples: int) -> int:
    """Index, in ascending order, of the highest nearest-rank percentile that
    leaves at least ten samples beyond it: the eleventh-largest sample."""
    return max(0, samples - 11)


def read_first(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return "unknown"


def provenance(root: Path, numpy_version: str, serialquota_path: str) -> dict:
    cpu_model = "unknown"
    for line in read_first("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")) if cache_dir.is_dir() else ():
        level = read_first(str(index / "level"))
        kind = read_first(str(index / "type"))
        caches[f"L{level}_{kind.lower()}"] = read_first(str(index / "size"))
    commit = "unknown (not a git checkout)"
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
            ).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "serialquota": serialquota_path,
        "commit": commit,
        "held_out_seed": HELD_OUT_SEED,
        "thread_vars": {var: "1" for var in THREAD_VARS},
    }


def measure(args, root: Path, out_dir: Path, started: float):
    """Start workers one at a time; return (set-up times, untraced results,
    traced results)."""
    env = worker_env(root)
    # Warm-up: compiles bytecode and warms the file cache; not measured.
    spawn(args, env, root, started, setup_only=True)
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES):
            setups.append(spawn(args, env, root, started, setup_only=True)[0])
    deadline = started + args.seconds
    plain, traced = [], []
    loop_start = time.monotonic()
    rounds = 0  # a round is one pass, or one untraced and one traced pass
    while True:
        trace = args.trace and len(traced) < len(plain)
        spans_out = out_dir / f"spans-{args.workload}.npz" if trace else None
        setup_s, result = spawn(args, env, root, started, trace=int(trace), spans_out=spans_out)
        if trace:
            traced.append(result)
        else:
            plain.append(result)
            setups.append(setup_s)
        if args.trace and len(traced) < len(plain):
            continue
        rounds += 1
        now = time.monotonic()
        next_end = now + (now - loop_start) / rounds
        if len(plain) + len(traced) >= MIN_PASSES and next_end > deadline:
            return setups, plain, traced


def metric(value, unit, samples, how) -> dict:
    return {"value": value, "unit": unit, "samples": samples, "how": how}


def end_to_end_metrics(setups, plain, attempted: int, failed: int) -> dict:
    """Each timing is taken per pass, then the median over passes is
    reported, so a burst of machine speed that covers a minority of the
    passes does not move it."""
    passes = len(plain)
    per_pass = len(plain[0]["latencies_ms"])
    k = tail_index(per_pass)
    ranked = [sorted(r["latencies_ms"]) for r in plain]
    tail_pct = 100.0 * (k + 1) / per_pass
    return {
        "wall_s": metric(statistics.median(r["wall_s"] for r in plain), "s", passes, "median of passes"),
        "setup_s": metric(statistics.median(setups), "s", len(setups), "median of set-ups"),
        "verdict_p50_ms": metric(
            statistics.median(statistics.median(x) for x in ranked),
            "ms", passes * per_pass, f"median verdict of each pass, median of {passes} passes",
        ),
        "verdict_tail_ms": metric(
            statistics.median(x[k] for x in ranked),
            "ms", passes * per_pass,
            f"p{tail_pct:.2f} of each pass ({per_pass - k - 1} samples beyond), median of {passes} passes",
        ),
        "peak_rss_mb": metric(
            statistics.median(r["peak_rss_mb"] for r in plain), "MB", passes, "median ru_maxrss"
        ),
        "error_rate": metric(failed / attempted, "ratio", attempted, f"{failed} verdicts wrong or raised"),
    }


def per_layer_metrics(plain, traced) -> dict:
    n = len(traced)
    out = {}
    for name, unit in traced[0]["layer_units"].items():
        value = statistics.median(r["layers"][name] for r in traced)
        out[name] = metric(value, unit, n, "median of traced passes")
    overhead = statistics.median(r["wall_s"] for r in traced) - statistics.median(
        r["wall_s"] for r in plain
    )
    out["trace_overhead_s"] = metric(overhead, "s", n, "traced minus untraced wall_s")
    gap = out["trace.wall_s"]["value"] - out["trace.top_level_busy_s"]["value"]
    out["trace.unaccounted_s"] = metric(gap, "s", n, "traced wall_s minus top-level busy")
    return out


def run(args) -> int:
    root = Path.cwd()
    if not (root / "src" / "serialquota" / "__init__.py").is_file():
        print("error: run from a checkout root holding src/serialquota", file=sys.stderr)
        return 2
    started = time.monotonic()
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    setups, plain, traced = measure(args, root, out_dir, started)

    workers = plain + traced
    attempted = sum(r["attempted"] for r in workers)
    failed = sum(r["failed"] for r in workers)
    mismatches = [m for r in workers for m in r["mismatches"]]
    if args.trace:
        metrics = per_layer_metrics(plain, traced)
    else:
        metrics = end_to_end_metrics(setups, plain, attempted, failed)
    prov = provenance(root, plain[0]["numpy"], plain[0]["serialquota"])
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "trace": args.trace,
        "measured_s": time.monotonic() - started,
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "verdicts_per_pass": plain[0]["attempted"],
        "metrics": metrics,
        "mismatches": mismatches[:20],
        "provenance": prov,
    }
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=2) + "\n"
    )

    print(
        f"workload {args.workload} seed {args.seed}: {len(plain)} untraced and "
        f"{len(traced)} traced passes, {plain[0]['attempted']} verdicts per pass"
    )
    for name, m in metrics.items():
        print(f"  {name:52s} {m['value']:16.6f} {m['unit']:6s} ({m['how']}; {m['samples']} samples)")
    for text in mismatches[:20]:
        print(f"  MISMATCH {text}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    declared = {
        name: {"value": m["value"], "unit": m["unit"]}
        for name, m in metrics.items()
        if name in args.metric_names
    }
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": declared}))
    return 0 if failed == 0 else 1


def declared_metrics(trace: int) -> set[str]:
    """Metric names BENCHMARK.json declares for this mode."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                        help="'tiny' runs every workload in seconds (self-test)")
    parser.add_argument("--mislabel", action="store_true",
                        help="self-test: label a counterexample as expected to pass")
    args = parser.parse_args(argv)
    if args.mislabel and args.workload != "forward_axioms":
        parser.error("--mislabel applies to forward_axioms, the workload with counterexamples")
    args.metric_names = declared_metrics(args.trace)
    try:
        return run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

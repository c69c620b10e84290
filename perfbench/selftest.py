#!/usr/bin/env python3
"""Self-test of the benchmark, in seconds: run from the checkout root.

    python3 perfbench/selftest.py

1. Every workload at `--size tiny`, untraced and traced: exit 0, every
   verdict correct, every declared metric present.
2. Negative case: the counterexample that breaks truthfulness, labelled as
   expected to pass, must give failed > 0 and exit code 1.
3. A directory holding only BENCHMARK.json and the benchmark's files (no
   program) must give a non-zero exit and no result line.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(cwd: Path, *extra: str, workload: str = "forward_axioms", trace: int = 0):
    cmd = [
        sys.executable, "perfbench/run.py",
        "--workload", workload, "--seed", "7", "--seconds", "1",
        "--trace", str(trace), "--size", "tiny", *extra,
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def last_json(proc) -> dict | None:
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = bench(ROOT, workload=workload, trace=trace)
            result = last_json(proc)
            declared = {m["name"] for m in spec[key]}
            if proc.returncode != 0 or result is None:
                problems.append(f"{workload} trace={trace}: exit {proc.returncode}: {proc.stderr[-500:]}")
            elif not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace={trace}: {result['failed']} verdicts wrong")
            elif set(result["metrics"]) != declared:
                problems.append(f"{workload} trace={trace}: metrics differ: {set(result['metrics']) ^ declared}")
            else:
                print(f"ok  {workload} trace={trace}: {result['attempted']} verdicts")

    proc = bench(ROOT, "--mislabel")
    result = last_json(proc)
    if proc.returncode == 1 and result and result["failed"] > 0 and not result["correct"]:
        print(f"ok  mislabelled counterexample: {result['failed']} of {result['attempted']} verdicts flagged, exit 1")
    else:
        problems.append(f"mislabelled counterexample not caught: exit {proc.returncode}, result {result}")

    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = bench(bare)
        if proc.returncode != 0 and last_json(proc) is None:
            print(f"ok  without the program: exit {proc.returncode}, no result line")
        else:
            problems.append(f"ran without the program: exit {proc.returncode}")

    for text in problems:
        print(f"FAIL {text}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

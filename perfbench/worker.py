"""One fresh workload process: set up, then run one pass over the items.

Started by `run.py` with `PYTHONPATH` pointing at the checkout's `src`.
Set-up is: interpreter start, `import serialquota`, building the workload's
preference classes and their cached engine tables.  When set-up ends the
process stamps `time.monotonic()` (a system-wide clock), so the parent can
measure set-up from the moment it spawned the process.  The pass then runs
every item once, as a closed loop with one client: each verdict is requested
after the previous one has been scored and serialized.

The last line of standard output is one JSON object with the measurements.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import tracing
import workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--mislabel", action="store_true")
    parser.add_argument("--spans-out", help="save the pass's spans to this .npz file")
    args = parser.parse_args(argv)

    tracer = tracing.Tracer() if args.trace else None
    span = tracer.span if tracer else (lambda name: nullcontext())

    import numpy
    import serialquota as sq
    import serialquota.serialize  # noqa: F401  (the package does not import it)

    if tracer:
        import layers

        layers.install(tracer, sq)
    with span("prefs.classes"):
        classes = workloads.classes_for(args.workload, args.size, sq)
    workloads.build_tables(classes, sq, span)
    ready = time.monotonic()
    start = time.perf_counter()

    out = {
        "ready": ready,
        "numpy": numpy.__version__,
        "serialquota": str(Path(sq.__file__).resolve().parent),
    }
    if args.setup_only:
        print(json.dumps(out))
        return 0

    setup_summary = tracer.summary() if tracer else {}
    if tracer:
        tracer.reset()
    items = workloads.items_for(args.workload, args.seed, args.size, sq, classes, args.mislabel)
    latencies = []
    mismatches = []
    for idx, item in enumerate(items):
        if tracer:
            tracer.item = idx
        t0 = time.perf_counter()
        try:
            with span("bench.verdict"):
                result = item.run()
        except Exception as exc:  # a verdict that raises counts as failed
            latencies.append((time.perf_counter() - t0) * 1000.0)
            mismatches.append(f"{item.label}: raised {type(exc).__name__}: {exc}")
            continue
        latencies.append((time.perf_counter() - t0) * 1000.0)
        problem = item.score(result)
        if problem is not None:
            mismatches.append(problem)
        with span("serialize"):
            workloads.dumps(item.payload(result))
    wall_s = time.perf_counter() - start

    out.update(
        {
            "wall_s": wall_s,
            "latencies_ms": latencies,
            "attempted": len(items),
            "failed": len(mismatches),
            "mismatches": mismatches[:10],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    )
    if tracer:
        tracer.item = -1
        layer_metrics = layers.metrics(
            tracer.summary(), tracer.counts, setup_summary, wall_s, tracer.top_level_busy()
        )
        out["layers"] = {k: v for k, (v, _unit) in layer_metrics.items()}
        out["layer_units"] = {k: unit for k, (_v, unit) in layer_metrics.items()}
        out["spans"] = len(tracer.t0)
        if args.spans_out:
            tracer.save(args.spans_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Per-call times of the engine's layers on fixed lex mechanisms.

For each mechanism it times `allocation_table`, the per-call
`assignment_masks` build the Pareto scan makes, and the forward axiom
kernels listed for it on that table; for each m it times the class tables,
each built cold on a fresh class, and prints each array's size.  Every
time is the best of a few calls, in milliseconds:

    PYTHONPATH=src python scripts/bench_kernels.py

The same script run on two checkouts, alternating, gives a before/after
table layer by layer.  Serial-quota tables pass every kernel, so each
kernel scans its whole table.
"""

import time

from serialquota import class_from_tag, engine, serial_quota

KERNELS = (
    "truthful_violation",
    "nonbossy_violation",
    "neutrality_violation",
    "push_up_violation",
    "control_violation",
    "partition_violation",
    "pareto_violation",
)
# (q, p, m, kernels): lex (3,4), (2,5) and (4,4) with every kernel, and lex
# (1,8), whose control bit rows are four 64-bit words, with the control scan
# alone.
MECHANISMS = (
    ((2, 1, 1), (0, 2, 1), 4, KERNELS),
    ((3, 2), (1, 0), 5, KERNELS),
    ((1, 2, 1, 0), (3, 1, 0, 2), 4, KERNELS),
    ((8,), (0,), 8, ("control_violation",)),
)
# The cold class tables per lex m.  The push-up table has C^2 * 2^m
# entries; at m = 8 (40,320 members) the tables a one-agent quota check
# builds are timed.
CLASS_TABLES = {
    4: ("ranks", "demands", "strong_desire", "push_up"),
    5: ("ranks", "demands", "strong_desire", "push_up"),
    6: ("ranks", "demands", "strong_desire"),
    7: ("ranks", "demands", "strong_desire"),
    8: ("ranks", "generators", "demands"),
}
REPEATS = 5
COLD_REPEATS = 3


def best_ms(call, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def cold_ms(m: int, table: str, repeats: int) -> tuple[float, object]:
    """Best time to build one table of a fresh lex class whose rank matrix
    (for the other tables) is already built, and the table."""
    best = float("inf")
    for _ in range(repeats):
        cls = class_from_tag("lex", m)
        if table != "ranks":
            cls.ranks
        start = time.perf_counter()
        built = getattr(cls, table)
        best = min(best, time.perf_counter() - start)
    return best * 1e3, built


def main() -> None:
    for q, p, m, kernels in MECHANISMS:
        cls = class_from_tag("lex", m)
        mech = serial_quota(q, p, cls)
        n = mech.n
        label = f"lex ({n},{m}) q={q} p={p}"
        table = engine.allocation_table(mech)
        ms = best_ms(lambda: engine.allocation_table(mech), REPEATS)
        print(f"{label}  allocation_table  {ms:.3f} ms", flush=True)
        ms = best_ms(lambda: engine.assignment_masks(n, m), REPEATS)
        print(f"{label}  assignment_masks  {ms:.3f} ms", flush=True)
        for name in kernels:
            kernel = getattr(engine, name)
            kernel(table, cls, n)  # builds the class tables it reads
            ms = best_ms(lambda: kernel(table, cls, n), REPEATS)
            print(f"{label}  {name}  {ms:.3f} ms", flush=True)
    for m, tables in CLASS_TABLES.items():
        for table in tables:
            ms, built = cold_ms(m, table, COLD_REPEATS)
            size = f"  {built.nbytes / 2**20:.3f} MB" if hasattr(built, "nbytes") else ""
            print(f"lex m={m} (cold)  {table}  {ms:.3f} ms{size}", flush=True)


if __name__ == "__main__":
    main()

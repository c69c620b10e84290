#!/usr/bin/env python3
"""Per-call times of the engine's layers on fixed lex mechanisms.

For each mechanism it times `allocation_table`, the per-call
`assignment_masks` build the Pareto scan makes, and every forward axiom
kernel on that table; for each m it times the class tables, each built cold
on a fresh class, and prints each one's size.  Every time is the best of a
few calls, in milliseconds:

    PYTHONPATH=src python scripts/bench_kernels.py

The same script run on two checkouts, alternating, gives a before/after
table layer by layer.  Serial-quota tables pass every kernel, so each
kernel scans its whole table.
"""

import time

from serialquota import class_from_tag, engine, serial_quota

# (q, p, m): lex (3,4), (2,5) and (4,4).
MECHANISMS = (
    ((2, 1, 1), (0, 2, 1), 4),
    ((3, 2), (1, 0), 5),
    ((1, 2, 1, 0), (3, 1, 0, 2), 4),
)
KERNELS = (
    "truthful_violation",
    "nonbossy_violation",
    "neutrality_violation",
    "push_up_violation",
    "control_violation",
    "partition_violation",
    "pareto_violation",
)
CLASS_SIZES = (4, 5, 6, 7)
PUSH_UP_SIZES = (4, 5)  # the push-up table has C^2 * 2^m entries
REPEATS = 5
COLD_REPEATS = 3


def best_ms(call, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def cold_ms(m: int, table: str, repeats: int) -> tuple[float, float]:
    """Best time to build one table of a fresh lex class whose members'
    ranks (and rank matrix, for the other tables) are already built, and
    the table's size in MB."""
    best = float("inf")
    for _ in range(repeats):
        cls = class_from_tag("lex", m)
        if table != "ranks":
            cls.ranks
        else:
            for p in cls.members:
                p.rank
        start = time.perf_counter()
        built = getattr(cls, table)
        best = min(best, time.perf_counter() - start)
    return best * 1e3, built.nbytes / 2**20


def main() -> None:
    for q, p, m in MECHANISMS:
        cls = class_from_tag("lex", m)
        mech = serial_quota(q, p, cls)
        n = mech.n
        label = f"lex ({n},{m}) q={q} p={p}"
        table = engine.allocation_table(mech)
        ms = best_ms(lambda: engine.allocation_table(mech), REPEATS)
        print(f"{label}  allocation_table  {ms:.3f} ms", flush=True)
        ms = best_ms(lambda: engine.assignment_masks(n, m), REPEATS)
        print(f"{label}  assignment_masks  {ms:.3f} ms", flush=True)
        for name in KERNELS:
            kernel = getattr(engine, name)
            kernel(table, cls, n)  # builds the class tables it reads
            ms = best_ms(lambda: kernel(table, cls, n), REPEATS)
            print(f"{label}  {name}  {ms:.3f} ms", flush=True)
    for m in CLASS_SIZES:
        tables = ("ranks", "demands", "strong_desire")
        if m in PUSH_UP_SIZES:
            tables += ("push_up",)
        for table in tables:
            ms, mb = cold_ms(m, table, COLD_REPEATS)
            print(f"lex m={m} (cold)  {table}  {ms:.3f} ms  {mb:.3f} MB", flush=True)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Per-call times of the engine's layers on fixed lex mechanisms.

For each mechanism it times `allocation_table`, the per-call
`assignment_masks` build the Pareto scan makes, and the forward axiom
kernels listed for it on that table; for each m it times the class tables,
each built cold on a fresh class, and prints each array's size; for
additive quota mechanisms it times the fairness calls listed for each
(`generate_instances`, `ef1_audit`, `rho_mms_audit`), each call on a fresh
`GeneratorSpec` of all three families, so the random draw is part of every
call.  Every time is
the best of a few calls, in milliseconds:

    PYTHONPATH=src python scripts/bench_kernels.py

The same script run on two checkouts, alternating, gives a before/after
table layer by layer.  Serial-quota tables pass every kernel, so each
kernel scans its whole table; a one-cell mutant of the lex (3,4) mechanism
breaks truthfulness, non-bossiness and neutrality, so their
report-by-report stages are timed on it too, and so is
`first_axiom_violation` restricted to the mutated profile (`at=`), the
check each mutant of `verify --mode mutate` gets, per call over a batch
of calls.  `allocation_table` is also timed on the three counterexamples
as the forward checks build them and on the bossy one at lex (6,3).
"""

import time

from serialquota import (
    CounterBossy,
    CounterNonNeutral,
    CounterNonTruthful,
    GeneratorSpec,
    additive_class,
    class_from_tag,
    engine,
    serial_quota,
)
from serialquota.fairness import ef1_audit, generate_instances, rho_mms_audit
from serialquota.properties import first_axiom_violation

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
# (q, p, m, profile, bundles, kernels): the lex (3,4) mechanism with its
# middle profile overwritten, agent 0 taking goods 0-2 and agent 1 good 3;
# each kernel listed finds a witness.
MUTANT = (
    (2, 1, 1),
    (0, 2, 1),
    4,
    6912,
    (7, 8, 0),
    ("truthful_violation", "nonbossy_violation", "neutrality_violation"),
)
# (label, variant, (n, m, *goods)): the counterexamples the forward checks
# use, and the bossy one at lex (6,3), 46,656 profiles.
COUNTEREXAMPLES = (
    ("CounterNonTruthful lex (2,2)", CounterNonTruthful, (2, 2)),
    ("CounterBossy lex (3,3)", CounterBossy, (3, 3)),
    ("CounterNonNeutral lex (3,3) a=0 b=1", CounterNonNeutral, (3, 3, 0, 1)),
    ("CounterBossy lex (6,3)", CounterBossy, (6, 3)),
)
# The cold class tables per lex m.  The push-up table has C^2 * 2^m
# entries; at m = 8 (40,320 members) the tables a one-agent quota check
# and a control check build are timed.
CLASS_TABLES = {
    4: ("ranks", "demands", "strong_desire", "push_up"),
    5: ("ranks", "demands", "strong_desire", "push_up"),
    6: ("ranks", "demands", "strong_desire"),
    7: ("ranks", "demands", "strong_desire"),
    8: ("ranks", "generators", "demands", "strong_desire"),
}
# (q, m, count, calls): additive (3,5) and (2,8), each with an early quota
# of 2 or more, so the targeted family is not empty and EF1 fails; and the
# draw alone at (3,16), where every random row ties (its MMS audit scans 7.2
# million partitions per row and is left out).
FAIRNESS_CALLS = (generate_instances, ef1_audit, rho_mms_audit)
FAIRNESS = (
    ((2, 2, 1), 5, 100, FAIRNESS_CALLS),
    ((2, 6), 8, 20, FAIRNESS_CALLS),
    ((1, 1, 14), 16, 30, (generate_instances,)),
)
REPEATS = 5
COLD_REPEATS = 3
AT_CALLS = 200  # `at=` calls per timed batch: one takes tens of microseconds


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
    q, p, m, profile, bundles, kernels = MUTANT
    cls = class_from_tag("lex", m)
    mech = serial_quota(q, p, cls)
    table = engine.allocation_table(mech)
    table[profile] = bundles
    label = f"lex ({mech.n},{m}) q={q} p={p} profile {profile} = {bundles}"
    for name in kernels:
        kernel = getattr(engine, name)
        if kernel(table, cls, mech.n) is None:
            raise SystemExit(f"{label}: {name} finds no witness")
        ms = best_ms(lambda: kernel(table, cls, mech.n), REPEATS)
        print(f"{label}  {name}  {ms:.3f} ms", flush=True)
    axiom = first_axiom_violation(table, cls, mech.n, at=profile)
    if axiom is None:
        raise SystemExit(f"{label}: first_axiom_violation at={profile} finds no witness")

    def at_batch():
        for _ in range(AT_CALLS):
            first_axiom_violation(table, cls, mech.n, at=profile)

    us = best_ms(at_batch, REPEATS) * 1e3 / AT_CALLS
    print(f"{label}  first_axiom_violation at={profile} ({axiom[0]})  {us:.1f} us", flush=True)
    for label, variant, (n, m, *goods) in COUNTEREXAMPLES:
        mech = variant(n, m, class_from_tag("lex", m), *goods)
        engine.allocation_table(mech)  # builds the class's demand tables
        ms = best_ms(lambda: engine.allocation_table(mech), REPEATS)
        print(f"{label}  allocation_table  {ms:.3f} ms", flush=True)
    for m, tables in CLASS_TABLES.items():
        for table in tables:
            ms, built = cold_ms(m, table, COLD_REPEATS)
            size = f"  {built.nbytes / 2**20:.3f} MB" if hasattr(built, "nbytes") else ""
            print(f"lex m={m} (cold)  {table}  {ms:.3f} ms{size}", flush=True)
    for q, m, count, calls in FAIRNESS:
        mech = serial_quota(q, tuple(range(len(q))), additive_class(m))
        label = f"additive ({mech.n},{m}) q={q} count={count}"
        for call in calls:
            ms = best_ms(lambda: call(mech, GeneratorSpec(mech.n, m, count=count)), REPEATS)
            print(f"{label}  {call.__name__}  {ms:.3f} ms", flush=True)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Sweep the exhaustive characterization over every (n, m, class, mode) up
to --max-n and --max-m and print one line each: the verdict with the
search's node count and nodes per second of the whole verdict, or the cap
that stopped the search at that size."""

import argparse
import time

from serialquota import TooLarge, lex_class, strict_monotone_class, verify_characterization


def classes_for(m: int):
    yield lex_class(m)
    if m <= 3:
        yield strict_monotone_class(m)


def run(max_n: int, max_m: int) -> int:
    bad = 0
    for n in range(1, max_n + 1):
        for m in range(1, max_m + 1):
            for cls in classes_for(m):
                for partition_only in (True, False):
                    mode = "partition" if partition_only else "allocation"
                    start = time.perf_counter()
                    try:
                        report = verify_characterization(n, m, cls, partition_only)
                    except TooLarge as exc:
                        print(f"n={n} m={m} class={cls.tag} {mode}: skipped, {exc}")
                        continue
                    rate = report.nodes / max(time.perf_counter() - start, 1e-9)
                    print(
                        f"n={n} m={m} class={cls.tag} {mode}: {report.verdict} "
                        f"({len(report.satisfying)} tables = {len(report.family)} pairs, "
                        f"{report.nodes} nodes, {rate:.0f} nodes/s)"
                    )
                    bad += report.verdict != "sets-equal"
    return 1 if bad else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=3)
    parser.add_argument("--max-m", type=int, default=3)
    args = parser.parse_args()
    if min(args.max_n, args.max_m) < 1:
        # An empty sweep would print nothing and exit 0.
        parser.exit(
            2, f"error: need --max-n >= 1 and --max-m >= 1, got {args.max_n} and {args.max_m}\n"
        )
    raise SystemExit(run(args.max_n, args.max_m))

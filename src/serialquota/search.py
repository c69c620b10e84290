"""Characterization checks: enumerate the quota family, recognize members,
exhaust tiny mechanism spaces, and falsify single-cell mutants.

The reverse direction of the characterization (axioms imply serial-quota) is
verified literally by enumerating every allocation table at each size whose
table count is at most ENUMERATION_CAP; beyond it the space is
astronomically big, so the module instead mutates one profile's allocation
at a time and confirms each mutant breaks an axiom.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product

import numpy as np

from . import engine
from .errors import NotEnumerable, TooLarge
from .mechanisms import (
    Mechanism,
    QuotaOrdering,
    SerialQuota,
    TableMechanism,
    canonicalize,
)
from .prefs import PreferenceClass, full_mask
from .properties import PropertyReport, first_axiom_violation

ENUMERATION_CAP = 10**7
MUTATION = "mutation_falsification"

VERDICT_EQUAL = "sets-equal"
VERDICT_COUNTEREXAMPLE = "counterexample-found"


@dataclass(frozen=True)
class CharacterizationReport:
    n: int
    m: int
    class_tag: str
    partition_only: bool
    tables_enumerated: int
    satisfying: tuple[TableMechanism, ...]
    recognized: tuple[QuotaOrdering, ...]
    family: tuple[QuotaOrdering, ...]
    verdict: str
    counterexample: TableMechanism | None


def enumerate_q(n: int, m: int, partition_only: bool = False) -> list[QuotaOrdering]:
    """All canonical quota/ordering pairs, sorted by (q, p).

    A pair places k agents with positive quotas in picking order and parks
    the zero-quota agents after them in ascending label order.
    """
    if n < 1 or m < 0:
        raise ValueError("need n >= 1, m >= 0")
    out = []
    for k in range(n + 1):
        totals = [0] if k == 0 else range(k, m + 1)
        for total in totals:
            if partition_only and total != m:
                continue
            for head in _compositions(total, k):
                for picks in permutations(range(n), k):
                    rest = tuple(sorted(set(range(n)) - set(picks)))
                    out.append(QuotaOrdering(head + (0,) * (n - k), picks + rest))
    out.sort(key=lambda qo: (qo.q, qo.p))
    return out


def _compositions(total: int, parts: int):
    """Ordered tuples of positive integers of given length summing to total."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def recognize_serial_quota(mech: Mechanism) -> QuotaOrdering | None:
    """The unique canonical pair whose serial-quota mechanism agrees with mech
    on every profile, or None."""
    if not mech.domain.enumerable:
        raise NotEnumerable(f"domain {mech.domain.tag} cannot be enumerated")
    table = engine.allocation_table(mech)
    for qo in enumerate_q(mech.n, mech.m):
        sq = SerialQuota(mech.n, mech.m, mech.domain, qo)
        if np.array_equal(engine.allocation_table(sq), table):
            return qo
    return None


def _choice_masks(n: int, m: int, partition_only: bool) -> np.ndarray:
    """Bundle rows for every allocation choice at one profile; shape (choices, n)."""
    am = engine.assignment_masks(n, m)
    if not partition_only:
        return am
    # Owner tuples with no "nobody" digit keep their base-n order.
    return am[np.bitwise_or.reduce(am, axis=1) == full_mask(m)]


def verify_characterization(
    n: int,
    m: int,
    cls: PreferenceClass,
    partition_only: bool = True,
) -> CharacterizationReport:
    """Enumerate every allocation table, keep those passing the three axioms
    (partition mode restricts choices to full partitions), and compare the
    survivors against the canonical quota family."""
    p_count = len(cls) ** n
    n_choices = (n if partition_only else n + 1) ** m
    # Gate without building n_choices**p_count, which can have hundreds of
    # millions of bits: with two or more choices, p_count >= bit_length(cap)
    # alone puts the count over the cap.
    if n_choices > 1 and (
        p_count >= ENUMERATION_CAP.bit_length() or n_choices**p_count > ENUMERATION_CAP
    ):
        raise TooLarge(
            f"{n_choices}^{p_count} tables exceed the enumeration cap; use mutation mode"
        )
    choices = _choice_masks(n, m, partition_only)
    satisfying = []
    recognized = []
    counterexample = None
    for rows in product(range(n_choices), repeat=p_count):
        table = choices[list(rows)]
        if first_axiom_violation(table, cls, n) is not None:
            continue
        mech = TableMechanism(
            n, m, cls, tuple(tuple(int(b) for b in row) for row in table)
        )
        satisfying.append(mech)
        qo = recognize_serial_quota(mech)
        if qo is None:
            if counterexample is None:
                counterexample = mech
        else:
            recognized.append(qo)
    family = enumerate_q(n, m, partition_only)
    ok = counterexample is None and set(recognized) == set(family)
    return CharacterizationReport(
        n=n,
        m=m,
        class_tag=cls.tag,
        partition_only=partition_only,
        tables_enumerated=n_choices**p_count,
        satisfying=tuple(satisfying),
        recognized=tuple(recognized),
        family=tuple(family),
        verdict=VERDICT_EQUAL if ok else VERDICT_COUNTEREXAMPLE,
        counterexample=counterexample,
    )


def mutate_with_log(
    base: QuotaOrdering,
    cls: PreferenceClass,
    trials: int,
    seed: int = 0,
    log_size: int = 0,
) -> tuple[PropertyReport, list[dict]]:
    """Overwrite one random profile's allocation with a random different
    partition and confirm each mutant breaks truthfulness, non-bossiness, or
    neutrality; the report passes iff no mutant survives all three.  Also
    returns the first log_size mutants with the axiom each one failed and
    its witness, for independent replay."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    n = len(base.q)
    m = cls.m
    if base.total != m:
        raise ValueError("mutation mode needs a partition quota (sum q = m)")
    sq = SerialQuota(n, m, cls, canonicalize(base.q, base.p, m))
    table = engine.allocation_table(sq)
    choices = _choice_masks(n, m, partition_only=True)
    row_index = {tuple(int(b) for b in row): i for i, row in enumerate(choices)}
    rng = np.random.default_rng(seed)
    p_count = table.shape[0]
    n_choices = choices.shape[0]
    log: list[dict] = []
    survivor = None
    for trial in range(trials):
        idx = int(rng.integers(p_count))
        current = row_index[tuple(int(b) for b in table[idx])]
        new = current
        while new == current:
            new = int(rng.integers(n_choices))
        mutant = table.copy()
        mutant[idx] = choices[new]
        entry = {
            "trial": trial,
            "profile_index": idx,
            "replacement": [int(b) for b in choices[new]],
        }
        failed = first_axiom_violation(mutant, cls, n)
        if failed is None:
            survivor = entry
            break
        if len(log) < log_size:
            entry.update(failed_axiom=failed[0], axiom_witness=failed[1])
            log.append(entry)
    report = PropertyReport(MUTATION, survivor is None, survivor, trials)
    return report, log


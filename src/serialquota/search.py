"""Characterization checks: enumerate the quota family, recognize members,
exhaust tiny mechanism spaces, and falsify single-cell mutants.

The reverse direction of the characterization (axioms imply serial-quota) is
verified literally at (n=2, m=2) by enumerating every allocation table; at
larger sizes the space is astronomically big, so the module instead mutates
one profile's allocation at a time and confirms each mutant breaks an axiom.
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
from .properties import NEUTRAL, NON_BOSSY, TRUTHFUL, PropertyReport

ENUMERATION_CAP = 10**7
MUTATION = "mutation_falsification"

VERDICT_EQUAL = "sets-equal"
VERDICT_COUNTEREXAMPLE = "counterexample-found"


@dataclass(frozen=True)
class MechanismSpace:
    """Size bookkeeping for full mechanism-table enumeration."""

    n: int
    m: int
    cls: PreferenceClass
    partition_only: bool

    @property
    def profile_count(self) -> int:
        return len(self.cls) ** self.n

    @property
    def choices(self) -> int:
        base = self.n if self.partition_only else self.n + 1
        return base**self.m

    @property
    def size(self) -> int:
        return self.choices**self.profile_count


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


def _passes_axioms(table: np.ndarray, cls: PreferenceClass, n: int) -> bool:
    if engine.truthful_violation(table, cls, n) is not None:
        return False
    if engine.nonbossy_violation(table, cls, n) is not None:
        return False
    return engine.neutrality_violation(table, cls, n) is None


def verify_characterization(
    n: int,
    m: int,
    cls: PreferenceClass,
    partition_only: bool = True,
) -> CharacterizationReport:
    """Enumerate every allocation table, keep those passing the three axioms
    (partition mode restricts choices to full partitions), and compare the
    survivors against the canonical quota family."""
    space = MechanismSpace(n, m, cls, partition_only)
    if space.size > ENUMERATION_CAP:
        raise TooLarge(
            f"{space.choices}^{space.profile_count} tables exceed the "
            f"enumeration cap; use mutation mode"
        )
    choices = _choice_masks(n, m, partition_only)
    p_count = space.profile_count
    satisfying = []
    recognized = []
    counterexample = None
    for rows in product(range(space.choices), repeat=p_count):
        table = choices[list(rows)]
        if not _passes_axioms(table, cls, n):
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
        tables_enumerated=space.size,
        satisfying=tuple(satisfying),
        recognized=tuple(recognized),
        family=tuple(family),
        verdict=VERDICT_EQUAL if ok else VERDICT_COUNTEREXAMPLE,
        counterexample=counterexample,
    )


def mutate_and_falsify(
    base: QuotaOrdering,
    cls: PreferenceClass,
    trials: int,
    seed: int = 0,
) -> PropertyReport:
    """Overwrite one random profile's allocation with a random different
    partition and confirm each mutant breaks truthfulness, non-bossiness, or
    neutrality.  Passes iff no mutant survives all three."""
    report, _ = mutate_with_log(base, cls, trials, seed, log_size=0)
    return report


def mutate_with_log(
    base: QuotaOrdering,
    cls: PreferenceClass,
    trials: int,
    seed: int = 0,
    log_size: int = 0,
) -> tuple[PropertyReport, list[dict]]:
    """mutate_and_falsify plus the first log_size mutants with the axiom each
    one failed and its witness, for independent replay."""
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
        failed = None
        hit = engine.truthful_violation(mutant, cls, n)
        if hit is not None:
            failed = (
                TRUTHFUL,
                {"profile_index": hit[0], "agent": hit[1], "alt_index": hit[2]},
            )
        if failed is None:
            hit = engine.nonbossy_violation(mutant, cls, n)
            if hit is not None:
                failed = (
                    NON_BOSSY,
                    {"profile_index": hit[0], "agent": hit[1], "alt_index": hit[2]},
                )
        if failed is None:
            hit = engine.neutrality_violation(mutant, cls, n)
            if hit is not None:
                perms = engine.neutrality_perms(m)
                failed = (
                    NEUTRAL,
                    {"profile_index": hit[0], "perm": list(perms[hit[1]].map)},
                )
        if failed is None:
            survivor = {
                "trial": trial,
                "profile_index": idx,
                "replacement": [int(b) for b in choices[new]],
            }
            break
        if len(log) < log_size:
            log.append(
                {
                    "trial": trial,
                    "profile_index": idx,
                    "replacement": [int(b) for b in choices[new]],
                    "failed_axiom": failed[0],
                    "axiom_witness": failed[1],
                }
            )
    report = PropertyReport(MUTATION, survivor is None, survivor, trials)
    return report, log


def identical_profile_quota(mech: Mechanism) -> QuotaOrdering | None:
    """Canonical pair matching mech on every identical-preferences profile."""
    cls = mech.domain
    c = len(cls)
    n = mech.n
    table = engine.allocation_table(mech)
    idxs = [d * (c**n - 1) // (c - 1) if c > 1 else 0 for d in range(c)]
    rows = table[idxs]
    for qo in enumerate_q(mech.n, mech.m):
        sq = SerialQuota(mech.n, mech.m, mech.domain, qo)
        if np.array_equal(engine.allocation_table(sq)[idxs], rows):
            return qo
    return None

"""Characterization checks: enumerate the quota family, search tiny mechanism
spaces exhaustively, and falsify single-cell mutants.

The reverse direction of the characterization (axioms imply serial-quota) is
verified literally by a depth-first search over allocation tables: profiles
are assigned in index order, and each profile only tries the choices that
agree with the cells already assigned under the pairwise constraints that
make up truthfulness and non-bossiness.  Neutrality leaves each profile but
the lowest of its orbit one choice: the lowest one's, with goods renamed.
Survivors come out in the order of a plain product over all tables; each
one still passes through `first_axiom_violation` and is matched by its bytes
against the quota family's tables.  Every family table survives, and tables
that differ at profile 0 share no node, so a size whose family alone needs
more than NODE_CAP nodes is refused before any table is built.  The search
stops at NODE_CAP cell assignments; beyond it the module instead mutates one
profile's allocation of a serial-quota table at a time and confirms each
mutant breaks an axiom.  Since the base table breaks none, every violation
involves the mutated profile, so a mutant is checked only on that profile's
deviation rows and neutrality pairs; one that passes there is checked over
the full table before it counts as a survivor.  S_m acts freely on profiles,
so for m >= 2 no single-cell mutant of a neutral table is neutral.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product

import numpy as np

from . import engine
from .errors import TooLarge
from .mechanisms import (
    QuotaOrdering,
    SerialQuota,
    TableMechanism,
    apply_serial_quota,
    profiles_exceed,
)
from .prefs import PreferenceClass, full_mask
from .properties import PropertyReport, first_axiom_violation

NODE_CAP = 10**6
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
    nodes: int
    prunes: int


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


def _choice_masks(n: int, m: int, partition_only: bool) -> np.ndarray:
    """Bundle rows for every allocation choice at one profile; shape (choices, n)."""
    am = engine.assignment_masks(n, m)
    if not partition_only:
        return am
    # Owner tuples with no "nobody" digit keep their base-n order.
    return am[np.bitwise_or.reduce(am, axis=1) == full_mask(m)]


def _bit_rows(bits: np.ndarray) -> list:
    """Python int bitsets over the last axis (bit j set iff bits[..., j]),
    as nested lists of shape bits.shape[:-1]."""
    packed = np.packbits(bits, axis=-1, bitorder="little")
    width = packed.shape[-1]
    buf = packed.tobytes()
    flat = [int.from_bytes(buf[j : j + width], "little") for j in range(0, len(buf), width)]
    return np.array(flat, dtype=object).reshape(bits.shape[:-1]).tolist()


def search_tables(
    n: int, cls: PreferenceClass, choices: np.ndarray
) -> tuple[list[list[int]], int, int]:
    """Every neutral table of choice indices (one per profile) that meets the
    pairwise constraints making up truthfulness and non-bossiness, in
    `itertools.product` order, with the search's node count (cell
    assignments) and prune count (profiles left with no candidate).

    Profiles are assigned in index order and choices in ascending order.  A
    profile's candidates agree with every assigned cell it shares a
    constraint with:

    - Truthful and non-bossy, between profiles q < p that differ only in
      agent i's report, t at q and d at p (so p - q is (d - t) times i's
      digit weight c^(n-1-i)): p's agent-i bundle is strictly below q's
      under t and strictly above it under d, or p repeats q's choice.  The
      earlier cells of such a row fold into a running AND of their t-masks
      and the set of their bundles, so a profile costs O(n * bundles seen)
      rather than O(n * c).
    - Neutral, by orbits of S_m.  S_m acts freely on profiles (pi.P = P
      would make each strict order P_i rank pi(s) where it ranks s, so pi
      would fix every subset), so an orbit has m! profiles, and each but the
      lowest has one candidate: the lowest one's choice, renamed by the
      permutation that maps it there.  It is checked and counted as a node.

    Raises TooLarge once the search passes NODE_CAP nodes.
    """
    c = len(cls)
    p_count = c**n
    k_count = choices.shape[0]
    full = (1 << k_count) - 1
    ranks = cls.ranks  # [member, subset]
    owners = choices.T.tolist()  # owners[i][k]: agent i's bundle under choice k
    # below[i][t][k]: choices whose agent-i bundle member t ranks strictly
    # below choice k's, plus k itself.  above[i][d][s]: choices whose
    # agent-i bundle member d ranks weakly above subset s.
    below, above = [], []
    same = np.eye(k_count, dtype=bool)
    for i in range(n):
        r = ranks[:, choices[:, i]]  # [member, choice]
        below.append(_bit_rows((r[:, None, :] < r[:, :, None]) | same))
        above.append(_bit_rows(r[:, None, :] >= ranks[:, :, None]))
    row_of = {tuple(row): k for k, row in enumerate(choices.tolist())}

    gens = []  # (profile images, choice images) of each generator
    for pi, action, _ in cls.generators:
        image = np.arange(p_count).reshape((c,) * n)
        for axis in range(n):  # rename every agent's report
            image = np.take(image, action, axis=axis)
        renamed = pi.mask_image[choices].tolist()
        gens.append((image.ravel().tolist(), [row_of[tuple(row)] for row in renamed]))
    # Walk each orbit through the generators from its lowest index r, and
    # compose their choice maps: orbit[p] = (r, f) where f takes r's choice
    # to p's.  The maps are interned, so at most m! distinct ones are held.
    orbit = [None] * p_count
    identity = tuple(range(k_count))
    interned = {}
    for r in range(p_count):
        if orbit[r] is None:
            orbit[r] = r, identity
            walk = [r]
            for q in walk:  # grows as the walk reaches new profiles
                for image, moved in gens:
                    t = image[q]
                    if orbit[t] is None:
                        f = tuple(moved[j] for j in orbit[q][1])
                        orbit[t] = r, interned.setdefault(f, f)
                        walk.append(t)
    weights = [c ** (n - 1 - i) for i in range(n)]
    digits = list(product(range(c), repeat=n))
    agents = list(zip(range(n), weights, below, above, owners))
    lo_run = [[0] * p_count for _ in range(n)]
    seen_run = [[0] * p_count for _ in range(n)]
    ks = [0] * p_count

    def candidates(p: int) -> int:
        r, f = orbit[p]
        cand = full if r == p else 1 << f[ks[r]]
        row = digits[p]
        for i, w, _, hi, _ in agents:
            d = row[i]
            if d:
                cand &= lo_run[i][p - w]
                seen = seen_run[i][p - w]
                while seen:
                    low = seen & -seen
                    cand &= hi[d][low.bit_length() - 1]
                    seen ^= low
        return cand

    rest = [0] * p_count  # untried candidates per assigned profile
    found = []
    nodes = 0
    p = 0
    cand = candidates(0)
    prunes = int(not cand)
    while True:
        while not cand:
            p -= 1
            if p < 0:
                return found, nodes, prunes
            cand = rest[p]
        low = cand & -cand
        rest[p] = cand ^ low
        k = low.bit_length() - 1
        ks[p] = k
        nodes += 1
        if nodes > NODE_CAP:
            raise TooLarge(f"search passed the {NODE_CAP}-node cap; use mutation mode")
        row = digits[p]
        for i, w, lo, _, own in agents:
            if row[i]:
                lo_run[i][p] = lo_run[i][p - w] & lo[row[i]][k]
                seen_run[i][p] = seen_run[i][p - w] | 1 << own[k]
            else:
                lo_run[i][p] = lo[0][k]
                seen_run[i][p] = 1 << own[k]
        if p + 1 == p_count:
            found.append(list(ks))
            cand = rest[p]
        else:
            p += 1
            cand = candidates(p)
            prunes += not cand


def verify_characterization(
    n: int,
    m: int,
    cls: PreferenceClass,
    partition_only: bool = True,
) -> CharacterizationReport:
    """Search every allocation table that passes the three axioms (partition
    mode restricts choices to full partitions) and compare the survivors
    against the canonical quota family's own tables; the first survivor no
    family table matches is the counterexample.

    Raises TooLarge before building any table when the class has more than
    NODE_CAP profiles, the search's rank masks would number more than
    NODE_CAP, or the quota family alone needs more than NODE_CAP nodes, and
    during the search once it passes NODE_CAP nodes.
    """
    if n < 1 or m < 0:
        raise ValueError(f"need n >= 1 and m >= 0, got n={n}, m={m}")
    c = len(cls)
    n_choices = (n if partition_only else n + 1) ** m
    if profiles_exceed(c, n, NODE_CAP):
        raise TooLarge(
            f"{c}^{n} profiles exceed the {NODE_CAP}-node search cap; use mutation mode"
        )
    masks = n * c * (n_choices + (1 << m))  # the below and above tables
    if masks > NODE_CAP:
        raise TooLarge(
            f"{masks} rank masks exceed the search cap of {NODE_CAP}; use mutation mode"
        )
    family = enumerate_q(n, m, partition_only)
    first = (cls.members[0],) * n  # profile 0
    bound = len({apply_serial_quota(qo, first, m) for qo in family}) * c**n
    if bound > NODE_CAP:
        raise TooLarge(
            f"the quota family alone needs {bound} search nodes, "
            f"over the {NODE_CAP}-node cap; use mutation mode"
        )
    choices = _choice_masks(n, m, partition_only)
    found, nodes, prunes = search_tables(n, cls, choices)
    quota_of = {}
    for qo in family:
        table = engine.allocation_table(SerialQuota(n, m, cls, qo))
        quota_of.setdefault(table.tobytes(), qo)
    satisfying = []
    recognized = []
    counterexample = None
    for ks in found:
        table = choices[ks]
        if first_axiom_violation(table, cls, n) is not None:
            continue
        mech = TableMechanism(n, m, cls, tuple(map(tuple, table.tolist())))
        satisfying.append(mech)
        qo = quota_of.get(table.tobytes())
        if qo is None:
            if counterexample is None:
                counterexample = mech
        else:
            recognized.append(qo)
    ok = counterexample is None and set(recognized) == set(family)
    return CharacterizationReport(
        n=n,
        m=m,
        class_tag=cls.tag,
        partition_only=partition_only,
        tables_enumerated=n_choices ** (c**n),
        satisfying=tuple(satisfying),
        recognized=tuple(recognized),
        family=tuple(family),
        verdict=VERDICT_EQUAL if ok else VERDICT_COUNTEREXAMPLE,
        counterexample=counterexample,
        nodes=nodes,
        prunes=prunes,
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
    its witness, for independent replay.

    Each mutant is written into the base table in place and the old row put
    back after its check.  The check is `first_axiom_violation` restricted
    to the mutated profile (`at=`): the serial-quota base breaks no axiom,
    so every violation of the mutant involves that profile and the local
    witness is the full scan's.  A mutant the local check passes is checked
    again over the full table before it is reported as a survivor, so the
    verdict never rests on the base being valid."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    n = len(base.q)
    m = cls.m
    if n < 2 or m < 2:
        # One agent has one partition; one good, one profile, where a mutant is a quota table.
        raise ValueError(
            f"mutation mode needs n >= 2 and m >= 2 to falsify anything, got "
            f"n={n}, m={m}; use exhaustive mode"
        )
    if base.total != m:
        raise ValueError("mutation mode needs a partition quota (sum q = m)")
    sq = SerialQuota(n, m, cls, base)
    table = engine.allocation_table(sq)
    choices = _choice_masks(n, m, partition_only=True)
    rng = np.random.default_rng(seed)
    p_count = table.shape[0]
    n_choices = choices.shape[0]
    log: list[dict] = []
    survivor = None
    for trial in range(trials):
        idx = int(rng.integers(p_count))
        old = table[idx].copy()
        new = int(rng.integers(n_choices))
        while np.array_equal(choices[new], old):
            new = int(rng.integers(n_choices))
        entry = {
            "trial": trial,
            "profile_index": idx,
            "replacement": [int(b) for b in choices[new]],
        }
        table[idx] = choices[new]
        failed = first_axiom_violation(table, cls, n, at=idx)
        if failed is None:
            failed = first_axiom_violation(table, cls, n)
        table[idx] = old
        if failed is None:
            survivor = entry
            break
        if len(log) < log_size:
            entry.update(failed_axiom=failed[0], axiom_witness=failed[1])
            log.append(entry)
    report = PropertyReport(MUTATION, survivor is None, survivor, trials)
    return report, log


"""Fairness audits: exact maximin shares, EF1 checks, and quota feasibility.

MMS is brute-forced over one labeled partition per unordered split into at
most n parts, each share a max-min gather from the row's subset-sum table.
The gate counts those canonical partitions, sum_{k <= n} S(m, k), against
the engine's PROFILE_CAP; the rational reference `mms` still loops over all
n^m labeled ones and keeps an n^m gate.  The partition masks are built in
blocks, and every block holds at most engine.CELLS entries.

An audit keeps one integer form from draw to report: int64 values (count,
n, m) and scales (count, n), agent i of instance k valuing good g at
values[k, i, g] / scales[k, i].  The batched kernels score the values
alone, since a row's scale changes neither its MMS ratio nor its EF1
comparisons, and are tested against the rational references `mms`,
`bundle_value` and `check_ef1`; `FairnessAudit.instance` builds the
tie-checked `CardinalInstance` a replay needs.  The families are named
deterministic ones ("identical", "targeted") plus a seeded random one that
breaks subset-sum ties instead of redrawing, so every reported number is
reproducible bit for bit and every m <= MAX_GOODS finishes.  A
GeneratorSpec validates every seeded draw and holds the random and
identical rows; the targeted rows come from the quota alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from typing import Sequence

import numpy as np

from . import engine
from .errors import DomainError, TooLarge
from .mechanisms import Allocation, CardinalInstance, SerialQuota
from .prefs import (
    MAX_GOODS,
    AdditiveStrict,
    Ordering,
    additive_class,
    compare,
    goods_of,
    subset_sum_table,
    tied_rows,
)

# Perturbation used by the deterministic families and to break ties in random
# rows: good g gets an extra eps * 2^g.  Subset sums stay distinct (integer
# and eps parts decompose uniquely) while eps * (2^m - 1) < 1, which
# m <= MAX_GOODS guarantees.  Rows carrying it are stored scaled by 1/eps.
EPS = Fraction(1, 10**6)


@dataclass(frozen=True, eq=False)
class FairnessAudit:
    """Result of sweeping a mechanism over a family of cardinal instances.

    values (count, n, m) and scales (count, n) are the int64 instances the
    audit scored, in family order; each EF1 violation is (k, envious, envied)
    for instance k.
    """

    mechanism: str
    worst_ratio: Fraction | None
    ef1_violations: tuple[tuple[int, int, int], ...]
    values: np.ndarray
    scales: np.ndarray

    @property
    def instances_tested(self) -> int:
        return len(self.values)

    def instance(self, k: int) -> CardinalInstance:
        """Instance k as exact valuations, tie-checked, for replay."""
        rows = zip(self.values[k].tolist(), self.scales[k].tolist())
        return CardinalInstance(tuple(AdditiveStrict(tuple(row), scale) for row, scale in rows))


@dataclass(frozen=True)
class GeneratorSpec:
    """Instance families to sweep: deterministic ones first, then seeded random."""

    n: int
    m: int
    families: tuple[str, ...] = ("identical", "targeted", "random")
    count: int = 100
    seed: int = 0

    def __post_init__(self):
        known = {"identical", "targeted", "random"}
        bad = set(self.families) - known
        if bad:
            raise ValueError(f"unknown instance families: {sorted(bad)}")
        repeated = sorted({f for f in self.families if self.families.count(f) > 1})
        if repeated:
            raise ValueError(f"instance families repeated: {','.join(repeated)}")
        if self.n < 1 or not 0 <= self.m <= MAX_GOODS:
            raise ValueError(
                f"need n >= 1 and 0 <= m <= {MAX_GOODS}, got n={self.n}, m={self.m}"
            )
        if self.count < 0:
            raise ValueError(f"need count >= 0, got count={self.count}")
        if self.seed < 0:
            raise ValueError(f"need seed >= 0, got seed={self.seed}")
        drawn = self.count * self.n * max(self.m, 1)  # m = 0 still holds count * n
        if "random" in self.families and drawn > engine.PROFILE_CAP:
            raise TooLarge(
                f"count {self.count:,} draws {drawn:,} random values, above the "
                f"{engine.PROFILE_CAP:,} cap"
            )

    @cached_property
    def random_values(self) -> np.ndarray:
        """The random family, int64 of shape (count, n, m), drawn once by
        `strict_integer_rows`: values uniform in [1, 1000], ties broken.
        Every row has scale 1."""
        rows = strict_integer_rows(np.random.default_rng(self.seed), self.count * self.n, self.m)
        return rows.reshape(self.count, self.n, self.m)

    @cached_property
    def identical_values(self) -> np.ndarray:
        """Near-identical goods shared by every agent, shape (1, n, m): good g
        is worth 1 + eps*2^g, stored as 10^6 + 2^g at scale 10^6."""
        row = EPS.denominator + (1 << np.arange(self.m, dtype=np.int64))
        return np.tile(row, (1, self.n, 1))


def _values_of(valuation) -> tuple[Fraction, ...]:
    if isinstance(valuation, AdditiveStrict):
        return valuation.values
    return tuple(Fraction(v) for v in valuation)


def _completions(n: int, r: int) -> list[int]:
    """out[j] = ways to place r more goods by restricted growth once j of at
    most n parts are open: out[0] at r = m counts sum_{k <= n} S(m, k)."""
    out = [1] * (n + 1)
    for _ in range(r):
        out = [j * out[j] + (out[j + 1] if j < n else 0) for j in range(n + 1)]
    return out


def _canonical_gate(n: int, m: int) -> None:
    """Refuse the canonical partitions `_mms_int_batch` scans, one per
    unordered split of m goods into at most n parts, above
    engine.PROFILE_CAP."""
    total = _completions(n, m)[0]
    if total > engine.PROFILE_CAP:
        raise TooLarge(
            f"{total:,} partitions of {m} goods into at most {n} parts exceed "
            f"the {engine.PROFILE_CAP:,} brute-force cap"
        )


def mms(valuation: AdditiveStrict | Sequence, n: int) -> Fraction:
    """Maximin share over labeled partitions of all goods into n parts."""
    if n < 1:
        raise ValueError("need at least one part")
    values = _values_of(valuation)
    m = len(values)
    if n**m > engine.PROFILE_CAP:  # the labeled partitions looped over below
        raise TooLarge(f"{n}^{m} partitions exceed the brute-force cap")
    best = None
    for owners in product(range(n), repeat=m):
        parts = [Fraction(0)] * n
        for g, owner in enumerate(owners):
            parts[owner] += values[g]
        low = min(parts)
        if best is None or low > best:
            best = low
    return best


def bundle_value(valuation, bundle: int) -> Fraction:
    values = _values_of(valuation)
    return sum((values[g] for g in goods_of(bundle)), Fraction(0))


def check_ef1(alloc: Allocation, profile) -> dict[str, int] | None:
    """The first ordered agent pair (i, j) in which i envies j even after
    removing any one good of j's bundle, as {"envious": i, "envied": j}, or
    None when the allocation is EF1.

    Accepts either an ordinal profile (checked via compare) or a
    CardinalInstance (checked via exact additive arithmetic); equal bundles
    count as weak preference.
    """
    prefs = profile.valuations if isinstance(profile, CardinalInstance) else profile
    if len(prefs) != alloc.n:
        raise ValueError("profile/allocation size mismatch")
    for i, mine in enumerate(alloc.bundles):
        for j, envied in enumerate(alloc.bundles):
            if i == j or envied == 0:
                continue
            rests = (envied & ~(1 << g) for g in goods_of(envied))
            if not any(r == mine or compare(prefs[i], r, mine) is Ordering.LESS for r in rests):
                return {"envious": i, "envied": j}
    return None


def ef1_quota_feasibility(q: Sequence[int]) -> bool:
    """Whether a serial-quota vector can be EF1 on every strict additive
    instance: no quota before the last may exceed 1, and the last may reach 2
    only when every earlier quota is exactly 1."""
    q = tuple(int(x) for x in q)
    if any(x < 0 for x in q):
        raise ValueError("quotas must be non-negative")
    if len(q) <= 1:
        return True
    head, last = q[:-1], q[-1]
    if any(x > 1 for x in head):
        return False
    if last <= 1:
        return True
    return last == 2 and all(x == 1 for x in head)


def _targeted_values(mech: SerialQuota) -> np.ndarray:
    """Worst-case witnesses for quotas >= 2 before the last position, int64
    of shape (count, n, m); the special rows have scale 10^6, the rest 1.

    For each such position, every agent shares a descending valuation
    (2^(m-g) at good g) except the last picker, who values (almost) only the
    goods that position's agent receives: those at 2^(m-g), every other good
    at eps * 2^g.  Her leftover bundle is then worth essentially nothing
    next to the envied one even after removing a good.  Under the shared
    descending row, position pos takes goods sum(q[:pos]) .. sum(q[:pos+1]) - 1.
    """
    q, p = mech.quota.q, mech.quota.p
    n, m = mech.n, mech.m
    goods = np.arange(m, dtype=np.int64)
    base = 1 << (m - goods)
    positions = [pos for pos in range(n - 1) if q[pos] >= 2]
    out = np.tile(base, (len(positions), n, 1))
    for k, pos in enumerate(positions):
        start = sum(q[:pos])
        target = (start <= goods) & (goods < start + q[pos])
        out[k, p[-1]] = np.where(target, base * EPS.denominator, 1 << goods)
    return out


def generate_instances(mech: SerialQuota, spec: GeneratorSpec) -> tuple[np.ndarray, np.ndarray]:
    """The spec's instances for mech in family order, checked for size before
    any is built: int64 values of shape (count, n, m) and each row's scale,
    shape (count, n).  The identical and random rows are the spec's own.

    Every row sum stays below 2^62, so every int64 subset sum is exact.
    """
    n, m = mech.n, mech.m
    if (spec.n, spec.m) != (n, m):
        raise DomainError(f"spec is ({spec.n},{spec.m}), mechanism is ({n},{m})")
    values, scales = [np.zeros((0, n, m), dtype=np.int64)], [np.zeros((0, n), dtype=np.int64)]
    for family in spec.families:
        if family == "identical":
            block, scale = spec.identical_values, np.full(n, EPS.denominator)
        elif family == "targeted":
            block = _targeted_values(mech)
            scale = np.where(np.arange(n) == mech.quota.p[-1], EPS.denominator, 1)
        else:
            block, scale = spec.random_values, np.ones(n, dtype=np.int64)
        values.append(block)
        scales.append(np.broadcast_to(scale, block.shape[:2]))
    return np.concatenate(values), np.concatenate(scales)


def _descriptor(mech: SerialQuota) -> str:
    return f"serial_quota q={mech.quota.q} p={mech.quota.p}"


def rho_mms_audit(mech: SerialQuota, spec: GeneratorSpec) -> FairnessAudit:
    """Worst ratio of received value to maximin share across the instance sweep.

    Each agent's ratio is capped at 1 (the guarantee is fully met); MMS = 0
    makes the bound vacuous, also scored 1.
    """
    _canonical_gate(mech.n, mech.m)  # before any instance is built
    values, scales = generate_instances(mech, spec)
    worst = None
    if len(values):
        worst = _worst_ratio(*_ratios(mech.quota.q, mech.quota.p, values))
    return FairnessAudit(_descriptor(mech), worst, (), values, scales)


def ef1_audit(mech: SerialQuota, spec: GeneratorSpec) -> FairnessAudit:
    """EF1 on every generated instance; collect the first envy pair per
    failing instance, in generation order."""
    values, scales = generate_instances(mech, spec)
    first = _first_envy(mech.quota.q, mech.quota.p, values)
    bad = np.nonzero(first[:, 0] >= 0)[0]
    violations = tuple(zip(bad.tolist(), first[bad, 0].tolist(), first[bad, 1].tolist()))
    return FairnessAudit(_descriptor(mech), None, violations, values, scales)


def strict_integer_rows(rng: np.random.Generator, rows: int, m: int) -> np.ndarray:
    """int64 value rows with all-distinct subset sums, shape (rows, m).

    One draw, uniform in [1, 1000].  A row whose subset sums tie becomes
    row * 10^6 + 2^g at good g, which is row + eps*2^g scaled by 1/eps; no
    further numbers are drawn, so the generator finishes at every m.  Ties
    are found in chunks of about `engine.CELLS` subset sums; from m = 14 on,
    2^m sums within [0, 1000 m] always tie, so every row is broken unchecked.
    """
    out = rng.integers(1, 1001, size=(rows, m), dtype=np.int64)
    if 1 << m > 1000 * m + 1:
        return out * EPS.denominator + (1 << np.arange(m))
    step = max(1, engine.CELLS >> m)
    for lo in range(0, rows, step):
        chunk = out[lo : lo + step]  # a view: fixing it fixes out
        tied = tied_rows(chunk)
        chunk[tied] = chunk[tied] * EPS.denominator + (1 << np.arange(m))
    return out


def _apply_quota_int(q, p, vals: np.ndarray) -> np.ndarray:
    """Serial-quota bundles over a batch of integer instances.

    vals has shape (count, n, m) with positive, within-row-distinct values, so
    each pick is the plain top-k of the remaining goods.
    """
    count, n, m = vals.shape
    bits = 1 << np.arange(m, dtype=np.int64)
    remaining = np.full(count, (1 << m) - 1, dtype=np.int64)
    bundles = np.zeros((count, n), dtype=np.int64)
    for k, agent in zip(q, p):
        if k == 0:
            continue
        v = vals[:, agent, :].copy()
        v[(remaining[:, None] & bits) == 0] = 0
        take = np.argsort(-v, axis=1)[:, :k]
        mask = (1 << take.astype(np.int64)).sum(axis=1)
        bundles[:, agent] = mask
        remaining &= ~mask
    return bundles


def _grow(masks: np.ndarray, opened: np.ndarray, goods: range):
    """Extend restricted-growth prefixes over goods: each good joins a part
    already open or opens the next one, up to masks' n parts."""
    n = masks.shape[1]
    for g in goods:
        grown, grown_opened = [], []
        for j in range(n):
            keep = opened >= j
            part = masks[keep]
            part[:, j] |= 1 << g
            grown.append(part)
            grown_opened.append(np.maximum(opened[keep], j + 1))
        masks, opened = np.concatenate(grown), np.concatenate(grown_opened)
    return masks, opened


def _partition_blocks(n: int, m: int):
    """Part bitmasks, in blocks of shape (P_b, n) with P_b * n <= engine.CELLS
    (or one partition), of one labeled partition per unordered split of m
    goods into at most n parts: sum_b P_b = sum_{k <= n} S(m, k).

    The labels follow a restricted-growth string: good 0 goes in part 0, and
    good g joins a part already open or opens the next one.  Unused parts
    are empty.  The first `depth` goods are placed at once; `depth` is the
    least at which every prefix's completions fit in a block, and the
    prefixes are then finished in consecutive chunks that fit.
    """
    rows = max(1, engine.CELLS // n)
    depth = 0
    while _completions(n, m - depth)[min(depth, n)] > rows:
        depth += 1
    empty = np.zeros((1, n), dtype=np.int64)
    prefixes, opened = _grow(empty, np.zeros(1, dtype=np.int64), range(depth))
    sizes = np.asarray(_completions(n, m - depth))[opened]
    start, total = 0, 0
    for i, size in enumerate(sizes.tolist()):
        if total + size > rows:
            yield _grow(prefixes[start:i], opened[start:i], range(depth, m))[0]
            start, total = i, 0
        total += size
    yield _grow(prefixes[start:], opened[start:], range(depth, m))[0]


def _mms_int_batch(rows: np.ndarray, n: int) -> np.ndarray:
    """MMS per integer value row: the best worst part over one labeled
    partition per unordered split, read from each row's subset-sum table.

    A partition's worst part does not depend on its labels, so the canonical
    partitions of `_partition_blocks` give the labeled maximum.  Rows go in
    blocks whose subset-sum table holds at most engine.CELLS entries, and
    partitions in blocks whose (row, partition) minima stay within it too.
    """
    count, m = rows.shape
    _canonical_gate(n, m)
    row_step = max(1, engine.CELLS >> m)
    out = np.zeros(count, dtype=np.int64)
    for lo in range(0, count, row_step):
        sums = subset_sum_table(rows[lo : lo + row_step])
        step = max(1, engine.CELLS // len(sums))
        best = out[lo : lo + row_step]
        for masks in _partition_blocks(n, m):
            for start in range(0, len(masks), step):
                block = masks[start : start + step]
                low = sums[:, block[:, 0]]
                for j in range(1, n):
                    np.minimum(low, sums[:, block[:, j]], out=low)
                np.maximum(best, low.max(axis=1), out=best)
    return out


def _owned(q, p, vals: np.ndarray) -> np.ndarray:
    """0/1 int64 array (count, n, m): whether the serial quota gives agent i good g."""
    bundles = _apply_quota_int(q, p, vals)
    return (bundles[:, :, None] >> np.arange(vals.shape[2], dtype=np.int64)) & 1


def _ratios(q, p, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each agent's received value and maximin share, both shape (count, n)."""
    count, n, m = vals.shape
    got = (vals * _owned(q, p, vals)).sum(axis=2)
    shares = _mms_int_batch(vals.reshape(count * n, m), n).reshape(count, n)
    return got, shares


def _worst_ratio(got: np.ndarray, shares: np.ndarray) -> Fraction:
    """Smallest got/share, capped at 1, by exact integer cross-multiplication;
    a share of 0 makes the bound vacuous and scores 1."""
    low_g, low_s = 1, 1
    for g, s in zip(got.ravel().tolist(), shares.ravel().tolist()):
        if s and g * low_s < low_g * s:
            low_g, low_s = g, s
    return Fraction(low_g, low_s)


def _first_envy(q, p, vals: np.ndarray) -> np.ndarray:
    """First EF1 violation (envious, envied) per instance in (i, j) order, or
    (-1, -1).  With distinct subset sums, i envies j up to one good iff j's
    bundle minus its best good is worth more to i than i's own bundle; that
    never holds for j = i."""
    count, n, _ = vals.shape
    owned = _owned(q, p, vals)
    first = np.full((count, 2), -1, dtype=np.int64)
    for i in range(n):
        worth = vals[:, i, None, :] * owned  # (count, j, g): i's value of j's goods
        held = worth.sum(axis=2)
        envy = held - worth.max(axis=2, initial=0) > held[:, i, None]
        hit = envy.any(axis=1) & (first[:, 0] == -1)
        first[hit, 0] = i
        first[hit, 1] = envy[hit].argmax(axis=1)
    return first


def rho_floor_sweep(
    n: int, m: int, count: int, seed: int
) -> tuple[bool, Fraction, CardinalInstance | None]:
    """Exact floor check of the (1, ..., 1, m-n+1) quota over seeded random
    integer instances.

    Returns (every ratio >= 1/floor((m-n+2)/2), exact worst capped ratio, and
    the first violating instance if any).  The comparison is integer
    cross-multiplication, no floats involved.
    """
    bound = rho_bound(n, m)
    vals = GeneratorSpec(n, m, ("random",), count, seed).random_values
    q = (1,) * (n - 1) + (m - n + 1,)
    got, shares = _ratios(q, tuple(range(n)), vals)
    viol = bound.denominator * got < shares
    holds = not viol.any()
    first = None
    if not holds:
        i = int(np.nonzero(viol.any(axis=1))[0][0])
        first = CardinalInstance.from_values(vals[i].tolist())
    return holds, _worst_ratio(got, shares), first


def ef1_random_sweep(
    quota, m: int, count: int, seed: int
) -> tuple[int, tuple[CardinalInstance, int, int] | None]:
    """EF1 over seeded random integer instances: `ef1_audit` on a
    ("random",) spec.

    Returns the number of violating instances and the first violation as
    (instance, envious, envied), replayable through check_ef1.  The quota
    must fit m, as the audits' mechanism does.
    """
    spec = GeneratorSpec(quota.n, m, ("random",), count, seed)
    audit = ef1_audit(SerialQuota(quota.n, m, additive_class(m), quota), spec)
    if not audit.ef1_violations:
        return 0, None
    k, i, j = audit.ef1_violations[0]
    return len(audit.ef1_violations), (audit.instance(k), i, j)


def rho_bound(n: int, m: int) -> Fraction:
    """Guarantee achieved by the quota vector (1, ..., 1, m - n + 1)."""
    if not 1 <= n <= m:
        raise ValueError("need 1 <= n <= m")
    return Fraction(1, (m - n + 2) // 2)

"""Fairness audits: exact maximin shares, EF1 checks, and quota feasibility.

MMS is brute-forced over labeled n-part partitions.  The audits and sweeps
run on batched int64 kernels over the integer rows each AdditiveStrict
stores, tested against the rational reference `mms`, `bundle_value` and
`check_ef1` (value ties are fine there; strictness only matters once a
mechanism consumes the instance).  Audits draw instances from named
deterministic families ("identical", "targeted") plus a seeded random family
that breaks subset-sum ties instead of redrawing, so every reported number is
reproducible bit for bit and every m <= MAX_GOODS finishes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Sequence

import numpy as np

from . import engine
from .errors import DomainError, TooLarge
from .mechanisms import (
    Allocation,
    CardinalInstance,
    Mechanism,
    SerialQuota,
    apply_serial_quota,
)
from .prefs import MAX_GOODS, AdditiveStrict, Ordering, compare, goods_of, tied_rows
from .properties import PropertyReport

EF1 = "ef1"
MMS_ASSIGNMENT_CAP = 10**7
_MMS_BLOCK = 1 << 16  # labeled partitions per block of `_mms_int_batch`

# Perturbation used by the deterministic families and to break ties in random
# rows: good g gets an extra eps * 2^g.  Subset sums stay distinct (integer
# and eps parts decompose uniquely) while eps * (2^m - 1) < 1, which
# m <= MAX_GOODS guarantees.  Rows carrying it are stored scaled by 1/eps.
EPS = Fraction(1, 10**6)


@dataclass(frozen=True)
class FairnessAudit:
    """Result of sweeping a mechanism over a family of cardinal instances."""

    mechanism: str
    instances_tested: int
    worst_ratio: Fraction | None
    ef1_violations: tuple[tuple[CardinalInstance, int, int], ...]


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
        if self.n < 1 or self.m > MAX_GOODS:
            raise ValueError(f"need n >= 1 and m <= {MAX_GOODS}, got n={self.n}, m={self.m}")
        if self.count < 0:
            raise ValueError(f"need count >= 0, got count={self.count}")


def _values_of(valuation) -> tuple[Fraction, ...]:
    if isinstance(valuation, AdditiveStrict):
        return valuation.values
    return tuple(Fraction(v) for v in valuation)


def _partition_gate(n: int, m: int) -> int:
    """n^m, the labeled partitions an MMS brute force scans; raises TooLarge
    above MMS_ASSIGNMENT_CAP."""
    total = n**m
    if total > MMS_ASSIGNMENT_CAP:
        raise TooLarge(f"{n}^{m} partitions exceed the brute-force cap")
    return total


def mms(valuation: AdditiveStrict | Sequence, n: int) -> Fraction:
    """Maximin share over labeled partitions of all goods into n parts."""
    if n < 1:
        raise ValueError("need at least one part")
    values = _values_of(valuation)
    m = len(values)
    _partition_gate(n, m)
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


def check_ef1(alloc: Allocation, profile) -> PropertyReport:
    """Envy-freeness up to one good over all ordered agent pairs.

    Accepts either an ordinal profile (checked via compare) or a
    CardinalInstance (checked via exact additive arithmetic); equal bundles
    count as weak preference.
    """
    prefs = profile.valuations if isinstance(profile, CardinalInstance) else profile
    n = alloc.n
    if len(prefs) != n:
        raise ValueError("profile/allocation size mismatch")
    witness = None
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            envied = alloc.bundles[j]
            if envied == 0:
                continue
            mine = alloc.bundles[i]
            ok = False
            for g in goods_of(envied):
                rest = envied & ~(1 << g)
                if rest == mine or compare(prefs[i], rest, mine) is Ordering.LESS:
                    ok = True
                    break
            if not ok:
                witness = {"envious": i, "envied": j}
                break
        if witness:
            break
    return PropertyReport(EF1, witness is None, witness, 1)


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


def identical_instance(n: int, m: int) -> CardinalInstance:
    """Near-identical goods: value 1 + eps*2^g, shared by every agent."""
    scale = EPS.denominator
    row = AdditiveStrict(tuple(scale + 2**g for g in range(m)), scale)
    return CardinalInstance((row,) * n)


def targeted_instances(mech: Mechanism) -> list[CardinalInstance]:
    """Worst-case witnesses for quotas >= 2 before the last position.

    For each such position, every agent shares a descending valuation except
    the last picker, who values (almost) only the goods that position's agent
    receives; her leftover bundle is then worth essentially nothing next to
    the envied one even after removing a good.
    """
    if not isinstance(mech, SerialQuota):
        return []
    q, p = mech.quota.q, mech.quota.p
    n, m = mech.n, mech.m
    base = AdditiveStrict(tuple(2 ** (m - g) for g in range(m)))
    scale = EPS.denominator
    out = []
    for pos in range(n - 1):
        if q[pos] < 2:
            continue
        target = apply_serial_quota(mech.quota, (base,) * n, m).bundles[p[pos]]
        special = tuple(
            base.row[g] * scale if target >> g & 1 else 2**g for g in range(m)
        )
        rows = [base] * n
        rows[p[-1]] = AdditiveStrict(special, scale)
        out.append(CardinalInstance(tuple(rows)))
    return out


@lru_cache(maxsize=32)
def random_instances(
    n: int, m: int, count: int, seed: int
) -> tuple[CardinalInstance, ...]:
    """Rows from `strict_integer_rows`: uniform integer values in [1, 1000],
    a tied row broken to value * 10^6 + 2^g."""
    rows = strict_integer_rows(np.random.default_rng(seed), count * n, m)
    return tuple(map(CardinalInstance.from_values, rows.reshape(count, n, m).tolist()))


def generate_instances(mech: Mechanism, spec: GeneratorSpec) -> list[CardinalInstance]:
    out: list[CardinalInstance] = []
    for family in spec.families:
        if family == "identical":
            out.append(identical_instance(spec.n, spec.m))
        elif family == "targeted":
            out.extend(targeted_instances(mech))
        elif family == "random":
            out.extend(random_instances(spec.n, spec.m, spec.count, spec.seed))
    return out


def _descriptor(mech: SerialQuota) -> str:
    return f"serial_quota q={mech.quota.q} p={mech.quota.p}"


def _integer_values(instances: Sequence[CardinalInstance], n: int, m: int) -> np.ndarray:
    """Exact int64 values of the instances, shape (count, n, m): the stored
    integer rows.

    Dropping a row's scale multiplies that agent's values by a positive
    factor, which changes neither its MMS ratio nor its EF1 comparisons.
    AdditiveStrict keeps every row sum below 2^62, inside int64.
    """
    for inst in instances:
        if (inst.n, inst.m) != (n, m):
            raise DomainError(f"instance is ({inst.n},{inst.m}), mechanism is ({n},{m})")
    rows = [valuation.row for inst in instances for valuation in inst.valuations]
    return np.array(rows, dtype=np.int64).reshape(len(instances), n, m)


def rho_mms_audit(mech: SerialQuota, spec: GeneratorSpec) -> FairnessAudit:
    """Worst ratio of received value to maximin share across the instance sweep.

    Each agent's ratio is capped at 1 (the guarantee is fully met); MMS = 0
    makes the bound vacuous, also scored 1.
    """
    _partition_gate(mech.n, mech.m)  # before any instance is built
    instances = generate_instances(mech, spec)
    worst = None
    if instances:
        vals = _integer_values(instances, mech.n, mech.m)
        worst = _worst_ratio(*_ratios(mech.quota.q, mech.quota.p, vals))
    return FairnessAudit(_descriptor(mech), len(instances), worst, ())


def ef1_audit(mech: SerialQuota, spec: GeneratorSpec) -> FairnessAudit:
    """EF1 on every generated instance; collect the first envy pair per
    failing instance, in generation order."""
    instances = generate_instances(mech, spec)
    vals = _integer_values(instances, mech.n, mech.m)
    first = _first_envy(mech.quota.q, mech.quota.p, vals)
    violations = tuple(
        (instances[k], int(first[k, 0]), int(first[k, 1]))
        for k in np.nonzero(first[:, 0] >= 0)[0]
    )
    return FairnessAudit(_descriptor(mech), len(instances), None, violations)


def strict_integer_rows(rng: np.random.Generator, rows: int, m: int) -> np.ndarray:
    """int64 value rows with all-distinct subset sums, shape (rows, m).

    One draw, uniform in [1, 1000].  A row whose subset sums tie becomes
    row * 10^6 + 2^g at good g, which is row + eps*2^g scaled by 1/eps; no
    further numbers are drawn, so the generator finishes at every m.
    """
    out = rng.integers(1, 1001, size=(rows, m), dtype=np.int64)
    tied = tied_rows(out)
    out[tied] = out[tied] * EPS.denominator + (1 << np.arange(m))
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


def _mms_int_batch(rows: np.ndarray, n: int) -> np.ndarray:
    """MMS per integer value row, vectorized over labeled partitions.

    Partitions are taken _MMS_BLOCK at a time and rows in chunks, so that no
    intermediate holds much more than engine.CELLS (row, partition) sums.
    """
    count, m = rows.shape
    total = _partition_gate(n, m)
    step = min(total, _MMS_BLOCK)
    chunk = max(1, engine.CELLS // step)
    place = n ** np.arange(m - 1, -1, -1, dtype=np.int64)
    out = np.zeros(count, dtype=np.int64)
    for start in range(0, total, step):
        owners = np.arange(start, min(start + step, total))[:, None] // place % n
        parts = [(owners == j).astype(np.int64) for j in range(n)]
        for lo in range(0, count, chunk):
            sub = rows[lo : lo + chunk]
            low = sub @ parts[0].T
            for part in parts[1:]:
                np.minimum(low, sub @ part.T, out=low)
            np.maximum(out[lo : lo + chunk], low.max(axis=1), out=out[lo : lo + chunk])
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
    bundle minus its best good is worth more to i than i's own bundle."""
    count, n, _ = vals.shape
    owned = _owned(q, p, vals)
    first = np.full((count, 2), -1, dtype=np.int64)
    for i in range(n):
        vi = vals[:, i, :]
        own = (vi * owned[:, i]).sum(axis=1)
        for j in range(n):
            if j == i:
                continue
            masked = vi * owned[:, j]
            envy = masked.sum(axis=1) - masked.max(axis=1, initial=0) > own
            first[envy & (first[:, 0] == -1)] = (i, j)
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
    rng = np.random.default_rng(seed)
    vals = strict_integer_rows(rng, count * n, m).reshape(count, n, m)
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
    """EF1 over seeded random integer instances via exact integer arithmetic.

    Returns the number of violating instances and the first violation as
    (instance, envious, envied), replayable through check_ef1.
    """
    n = quota.n
    rng = np.random.default_rng(seed)
    vals = strict_integer_rows(rng, count * n, m).reshape(count, n, m)
    first_pair = _first_envy(quota.q, quota.p, vals)
    bad = np.nonzero(first_pair[:, 0] >= 0)[0]
    if not bad.size:
        return 0, None
    k = int(bad[0])
    inst = CardinalInstance.from_values(vals[k].tolist())
    i, j = int(first_pair[k, 0]), int(first_pair[k, 1])
    return int(bad.size), (inst, i, j)


def rho_bound(n: int, m: int) -> Fraction:
    """Guarantee achieved by the quota vector (1, ..., 1, m - n + 1)."""
    if not 1 <= n <= m:
        raise ValueError("need 1 <= n <= m")
    return Fraction(1, (m - n + 2) // 2)

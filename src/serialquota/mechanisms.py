"""Allocation mechanisms over strict monotone preferences.

A mechanism maps a profile of n reported preferences to an allocation of the
m goods (disjoint bundles, possibly leaving goods unallocated).  Provided
variants: serial-quota, explicit table (the enumeration substrate), Round
Robin, and three deliberately flawed constructions that each break exactly
one of truthfulness / non-bossiness / neutrality.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

from .errors import (
    DomainError,
    InvalidOrdering,
    InvalidPartition,
    NotInClass,
    QuotaOverflow,
    TooSmall,
    brief,
)
from .prefs import (
    AdditiveStrict,
    Mask,
    Permutation,
    Preference,
    PreferenceClass,
    demand,
    full_mask,
)

Profile = tuple[Preference, ...]


@dataclass(frozen=True)
class Allocation:
    """Pairwise-disjoint bundles; bundles[i] is agent i's bitmask."""

    m: int
    bundles: tuple[Mask, ...]

    def __post_init__(self):
        seen = 0
        for b in self.bundles:
            if b & seen:
                raise InvalidPartition("bundles overlap")
            if b & ~full_mask(self.m):
                raise InvalidPartition("bundle outside the universe")
            seen |= b

    @property
    def n(self) -> int:
        return len(self.bundles)

    @property
    def union(self) -> Mask:
        u = 0
        for b in self.bundles:
            u |= b
        return u

    @property
    def is_partition(self) -> bool:
        return self.union == full_mask(self.m)

    def permute(self, pi: Permutation) -> "Allocation":
        return Allocation(self.m, tuple(pi.apply_mask(b) for b in self.bundles))


@dataclass(frozen=True)
class QuotaOrdering:
    """Canonical quota vector and picking order: p[i] picks i-th, taking q[i] goods.

    Zero quotas form a suffix of q and the agents holding them appear in p in
    ascending index order, so each serial-quota mechanism has one encoding.
    """

    q: tuple[int, ...]
    p: tuple[int, ...]

    def __post_init__(self):
        n = len(self.q)
        _check_order(self.p, n)
        _check_quotas(self.q)
        nz = [i for i, x in enumerate(self.q) if x > 0]
        if nz and nz != list(range(len(nz))):
            raise InvalidOrdering("zero quotas must form a suffix")
        tail = [self.p[i] for i in range(len(nz), n)]
        if tail != sorted(tail):
            raise InvalidOrdering("zero-quota agents must be ordered by index")

    @property
    def n(self) -> int:
        return len(self.q)

    @property
    def total(self) -> int:
        return sum(self.q)


def _check_order(p: tuple, n: int) -> None:
    """Raise InvalidOrdering naming p's first entry that is not a new agent
    in 0..n-1, or its length when that is not n."""
    if len(p) != n:
        raise InvalidOrdering(
            f"p must be a permutation of the {n} agents, got {len(p)} entries"
        )
    seen = set()
    for i, agent in enumerate(p):
        if not (isinstance(agent, numbers.Integral) and 0 <= agent < n) or agent in seen:
            raise InvalidOrdering(
                f"p must be a permutation of the agents: p[{i}] = {brief(agent)}"
            )
        seen.add(agent)


def _check_quotas(q: tuple) -> None:
    """Raise ValueError naming q's first negative entry."""
    for i, x in enumerate(q):
        if x < 0:
            raise ValueError(f"quotas must be non-negative: q[{i}] = {brief(x)}")


def canonicalize(q, p, m: int) -> QuotaOrdering:
    """Canonical form of an arbitrary quota/order pair; idempotent."""
    q, p = tuple(q), tuple(p)
    _check_order(p, len(q))
    _check_quotas(q)
    if sum(q) > m:
        raise QuotaOverflow(f"quotas sum to {sum(q)} > m={m}")
    nonzero = [(qi, pi) for qi, pi in zip(q, p) if qi > 0]
    zero_agents = sorted(pi for qi, pi in zip(q, p) if qi == 0)
    qq = tuple(qi for qi, _ in nonzero) + (0,) * len(zero_agents)
    pp = tuple(pi for _, pi in nonzero) + tuple(zero_agents)
    return QuotaOrdering(qq, pp)


@dataclass(frozen=True)
class CardinalInstance:
    """A profile of strict additive valuations (the cardinal side)."""

    valuations: tuple[AdditiveStrict, ...]

    def __post_init__(self):
        if not self.valuations:
            raise ValueError("instance needs at least one agent")
        if len({v.m for v in self.valuations}) != 1:
            raise ValueError("valuation rows must share one universe size")

    @property
    def n(self) -> int:
        return len(self.valuations)

    @property
    def m(self) -> int:
        return self.valuations[0].m

    @classmethod
    def from_values(cls, rows) -> "CardinalInstance":
        """One AdditiveStrict per row of exact rationals."""
        return cls(tuple(AdditiveStrict(tuple(row)) for row in rows))


@dataclass(frozen=True)
class Mechanism:
    n: int
    m: int
    domain: PreferenceClass

    def __post_init__(self):
        if self.n < 1:
            raise TooSmall(f"a mechanism needs n >= 1 agents, got n={self.n}")
        if self.domain.m != self.m:
            raise DomainError(f"mechanism has m={self.m} but its domain has m={self.domain.m}")


@dataclass(frozen=True)
class SerialQuota(Mechanism):
    quota: QuotaOrdering

    def __post_init__(self):
        super().__post_init__()
        if self.quota.n != self.n:
            raise ValueError("quota length must equal the number of agents")
        if self.quota.total > self.m:
            raise QuotaOverflow(f"quotas sum to {self.quota.total} > m={self.m}")


@dataclass(frozen=True)
class TableMechanism(Mechanism):
    """One stored allocation per profile of the (enumerable) domain."""

    table: tuple[tuple[Mask, ...], ...]

    def __post_init__(self):
        super().__post_init__()
        c = len(self.domain)
        if profiles_exceed(c, self.n, len(self.table)) or len(self.table) != c**self.n:
            raise ValueError("table must have one row per profile")


@dataclass(frozen=True)
class RoundRobin(Mechanism):
    """Agents 0..n-1 cyclically pick their single best remaining good until none remain."""


@dataclass(frozen=True)
class CounterNonTruthful(Mechanism):
    """m=2: identical reports give everything to agent 0, otherwise to agent 1."""

    def __post_init__(self):
        super().__post_init__()
        if self.n < 2 or self.m != 2:
            raise TooSmall("needs n >= 2 and exactly 2 goods")


@dataclass(frozen=True)
class CounterBossy(Mechanism):
    """Agent 1 receives agent 0's top good, agent 2 the rest, everyone else nothing."""

    def __post_init__(self):
        super().__post_init__()
        if self.n < 3 or self.m < 1:
            raise TooSmall("needs n >= 3 and m >= 1")


@dataclass(frozen=True)
class CounterNonNeutral(Mechanism):
    """Good-name-dependent picking: breaks neutrality only.

    Agent 0 takes her favorite good x outside {a}; if x == b agent 1 picks
    next and agent 2 takes the rest, otherwise agent 2 picks next and agent 1
    takes the rest.
    """

    a: int
    b: int

    def __post_init__(self):
        super().__post_init__()
        if self.n < 3 or self.m < 3:
            raise TooSmall("needs n >= 3 and m >= 3")
        if not (0 <= self.a < self.m and 0 <= self.b < self.m) or self.a == self.b:
            raise ValueError("a and b must be distinct goods")


def apply_serial_quota(sq: QuotaOrdering, profile: Profile, m: int) -> Allocation:
    """Each picker in turn takes her quota-demand from the remaining goods."""
    bundles = [0] * len(profile)
    remaining = full_mask(m)
    for k, agent in zip(sq.q, sq.p):
        got = demand(profile[agent], remaining, k)
        bundles[agent] = got
        remaining &= ~got
    return Allocation(m, tuple(bundles))


def _round_robin(profile: Profile, m: int) -> Allocation:
    n = len(profile)
    bundles = [0] * n
    remaining = full_mask(m)
    turn = 0
    while remaining:
        got = demand(profile[turn % n], remaining, 1)
        bundles[turn % n] |= got
        remaining &= ~got
        turn += 1
    return Allocation(m, tuple(bundles))


def _check_profile(mech: Mechanism, profile: Profile) -> None:
    if len(profile) != mech.n:
        raise DomainError(f"expected {mech.n} preferences, got {len(profile)}")
    for pref in profile:
        if pref.m != mech.m:
            raise DomainError("preference universe size mismatch")
        if pref not in mech.domain:
            raise DomainError("preference outside the mechanism's domain")


def apply(mech: Mechanism, profile: Profile) -> Allocation:
    """Uniform dispatch over the mechanism variants."""
    _check_profile(mech, profile)
    if isinstance(mech, SerialQuota):
        return apply_serial_quota(mech.quota, profile, mech.m)
    if isinstance(mech, TableMechanism):
        return Allocation(mech.m, mech.table[profile_index(profile, mech.domain)])
    if isinstance(mech, RoundRobin):
        return _round_robin(profile, mech.m)
    if isinstance(mech, CounterNonTruthful):
        identical = len({p.rank for p in profile}) == 1
        bundles = [0] * mech.n
        bundles[0 if identical else 1] = full_mask(mech.m)
        return Allocation(mech.m, tuple(bundles))
    if isinstance(mech, CounterBossy):
        x = demand(profile[0], full_mask(mech.m), min(1, mech.m))
        bundles = [0] * mech.n
        bundles[1] = x
        bundles[2] = full_mask(mech.m) & ~x
        return Allocation(mech.m, tuple(bundles))
    if isinstance(mech, CounterNonNeutral):
        univ = full_mask(mech.m)
        x = demand(profile[0], univ & ~(1 << mech.a), 1)
        second, last = (1, 2) if x == 1 << mech.b else (2, 1)
        y = demand(profile[second], univ & ~x, 1)
        bundles = [0] * mech.n
        bundles[0], bundles[second], bundles[last] = x, y, univ & ~x & ~y
        return Allocation(mech.m, tuple(bundles))
    raise TypeError(f"unknown mechanism variant {type(mech).__name__}")


def cardinal_apply(mech: Mechanism, inst: CardinalInstance) -> Allocation:
    """Run mech on the ordinal preferences the valuations induce.

    Strictness (no subset-sum ties) is enforced when the instance is built,
    so the induced profile is well defined and the output depends only on it.
    """
    return apply(mech, inst.valuations)


def profiles_exceed(c: int, n: int, cap: int) -> bool:
    """Whether c^n profiles exceed cap.  With two or more members, n >=
    bit_length(cap) alone puts c^n over it, so c^n is never built for a
    huge n."""
    return (c > 1 and n >= cap.bit_length()) or c**n > cap


def profile_index(profile: Profile, cls: PreferenceClass) -> int:
    """Mixed-radix index of a profile; agent 0 is the most significant digit."""
    c = len(cls)
    idx = 0
    for pref in profile:
        idx = idx * c + cls.index_of(pref)
    return idx


def index_to_profile(idx: int, cls: PreferenceClass, n: int) -> Profile:
    c = len(cls)
    if not 0 <= idx < c**n:
        raise NotInClass(f"profile index {idx} out of range")
    return tuple(cls.members[idx // c ** (n - 1 - i) % c] for i in range(n))


def serial_quota(q, p, domain: PreferenceClass) -> SerialQuota:
    """Convenience constructor: canonicalizes (q, p) over the given domain."""
    quota = canonicalize(q, p, domain.m)
    return SerialQuota(quota.n, domain.m, domain, quota)

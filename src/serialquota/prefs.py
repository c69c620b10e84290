"""Strict weakly-monotone preferences over subsets of goods.

Goods are indices 0..m-1 and a set of goods is an int bitmask (bit i set
means good i is in the set), m <= 16.  A preference is a strict total order
on all 2^m subsets that extends set inclusion.  Three representations:

* RankTable: explicit rank per subset, rank 0 = worst.
* Lexicographic: determined by an ordering of the goods; the first good (in
  that ordering) present in exactly one of two sets decides the comparison.
* AdditiveStrict: an integer row and a positive scale, good g being worth
  row[g] / scale, with all subset sums distinct; subsets compare by total
  value.  Rational inputs are brought to this one exact integer form on
  construction, and subset sums are int64 products with the bitmask table.

All values are immutable and hashable; every operation is a pure function.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import permutations as _permutations

import numpy as np

from .errors import (
    EnumerationTooLarge,
    IdenticalSets,
    InvalidDomain,
    NotEnumerable,
    NotInClass,
    QuotaExceedsPool,
    TieDetected,
)

Mask = int

LEX = "lex"
STRICT_MONOTONE_ALL = "strict_monotone_all"
STRICT_ADDITIVE = "strict_additive"
EXPLICIT = "explicit"

MAX_GOODS = 16
# AdditiveStrict rows sum below this, so every int64 subset sum is exact.
ROW_SUM_CAP = 1 << 62
LEX_ENUM_CAP = 8
STRICT_MONOTONE_ENUM_CAP = 3


def full_mask(m: int) -> Mask:
    return (1 << m) - 1


def goods_of(mask: Mask) -> list[int]:
    out = []
    g = 0
    while mask:
        if mask & 1:
            out.append(g)
        mask >>= 1
        g += 1
    return out


def mask_of(goods) -> Mask:
    mask = 0
    for g in goods:
        mask |= 1 << g
    return mask


def submasks(pool: Mask):
    """All sub-bitmasks of pool in increasing numeric order."""
    s = 0
    while True:
        yield s
        if s == pool:
            return
        s = (s - pool) & pool


class Ordering(enum.Enum):
    LESS = -1
    GREATER = 1


@dataclass(frozen=True)
class Permutation:
    """Renaming of goods: map[i] = pi(i)."""

    map: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.map) != list(range(len(self.map))):
            raise ValueError(f"not a bijection on 0..{len(self.map) - 1}: {self.map}")

    @property
    def m(self) -> int:
        return len(self.map)

    @classmethod
    def swap(cls, m: int, a: int, b: int) -> "Permutation":
        v = list(range(m))
        v[a], v[b] = v[b], v[a]
        return cls(tuple(v))

    def inverse(self) -> "Permutation":
        inv = [0] * self.m
        for i, j in enumerate(self.map):
            inv[j] = i
        return Permutation(tuple(inv))

    def apply_mask(self, mask: Mask) -> Mask:
        out = 0
        for i in range(self.m):
            if mask >> i & 1:
                out |= 1 << self.map[i]
        return out


def all_permutations(m: int):
    for p in _permutations(range(m)):
        yield Permutation(p)


def _check_monotone_bijection(rank: tuple[int, ...], m: int) -> None:
    if sorted(rank) != list(range(1 << m)):
        raise ValueError("rank is not a bijection onto 0..2^m-1")
    # Covers generate inclusion, so checking single-good supersets suffices.
    for s in range(1 << m):
        for g in range(m):
            if not s >> g & 1:
                if rank[s] >= rank[s | (1 << g)]:
                    raise ValueError(
                        f"not weakly monotone: rank[{s}] >= rank[{s | (1 << g)}]"
                    )


@dataclass(frozen=True)
class RankTable:
    """Explicit strict monotone order; rank[s] = position of subset s, 0 = worst."""

    rank: tuple[int, ...]

    def __post_init__(self):
        n = len(self.rank)
        if n == 0 or n & (n - 1):
            raise ValueError("rank length must be a power of two")
        _check_monotone_bijection(self.rank, self.m)

    @property
    def m(self) -> int:
        return len(self.rank).bit_length() - 1

    def rank_of(self, s: Mask) -> int:
        return self.rank[s]


@dataclass(frozen=True)
class Lexicographic:
    """order[0] is the most important good."""

    order: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.order) != list(range(len(self.order))):
            raise ValueError(f"order must list each good exactly once: {self.order}")

    @property
    def m(self) -> int:
        return len(self.order)

    def rank_of(self, s: Mask) -> int:
        # Most important good becomes the most significant bit.
        r = 0
        for g in self.order:
            r = r << 1 | (s >> g & 1)
        return r


@lru_cache(maxsize=None)
def subset_bits(m: int) -> np.ndarray:
    """bits[s, g] = 1 iff good g is in subset s; int64, shape (2^m, m)."""
    out = (np.arange(1 << m)[:, None] >> np.arange(m)) & 1
    out.setflags(write=False)
    return out


def tied_rows(rows: np.ndarray) -> np.ndarray:
    """Whether each int64 value row (shape (count, m)) has two equal subset
    sums.  Rows go in chunks of about 2^22 sums (32 MB), so a batch at
    m = 16 never holds all its sums at once."""
    count, m = rows.shape
    bits = subset_bits(m).T
    step = max(1, (1 << 22) >> m)
    out = np.zeros(count, dtype=bool)
    for lo in range(0, count, step):
        sums = rows[lo : lo + step] @ bits
        sums.sort(axis=1)
        out[lo : lo + step] = (np.diff(sums, axis=1) == 0).any(axis=1)
    return out


@dataclass(frozen=True)
class AdditiveStrict:
    """Additive valuation with pairwise-distinct subset sums: good g is worth
    row[g] / scale.

    Any rationals given as row (and an integer scale) are stored in canonical
    form: non-negative ints, a positive scale and gcd(scale, *row) == 1, so
    equal valuations compare and hash equal.
    """

    row: tuple[int, ...]
    scale: int = 1

    def __post_init__(self):
        if not all(isinstance(v, numbers.Rational) for v in self.row):
            raise ValueError(f"values must be exact rationals: {self.row}")
        if not isinstance(self.scale, numbers.Integral) or self.scale < 1:
            raise ValueError(f"scale must be a positive integer, got {self.scale!r}")
        den = math.lcm(*(int(v.denominator) for v in self.row))
        ints = [int(v.numerator) * (den // int(v.denominator)) for v in self.row]
        scale = int(self.scale) * den
        g = math.gcd(scale, *ints)
        row = tuple(v // g for v in ints)
        object.__setattr__(self, "row", row)
        object.__setattr__(self, "scale", scale // g)
        if any(v < 0 for v in row):
            raise ValueError("values must be non-negative")
        if len(row) > MAX_GOODS:
            raise ValueError(f"{len(row)} goods above the {MAX_GOODS}-good cap")
        if sum(row) >= ROW_SUM_CAP:
            raise ValueError(f"scaled values sum to 2^62 or more: {row}")
        if tied_rows(np.array([row], dtype=np.int64))[0]:
            raise TieDetected(f"subset-sum collision in {self.values}")

    @property
    def m(self) -> int:
        return len(self.row)

    @property
    def values(self) -> tuple[Fraction, ...]:
        """The exact value of each good."""
        return tuple(Fraction(v, self.scale) for v in self.row)

    def subset_sums(self) -> np.ndarray:
        """sums[s] = scale times the value of subset s; int64, shape (2^m,)."""
        return subset_bits(self.m) @ np.array(self.row, dtype=np.int64)

    def rank_of(self, s: Mask) -> int:
        return rank_table(self)[s]


Preference = RankTable | Lexicographic | AdditiveStrict


@lru_cache(maxsize=None)
def rank_table(pref: Preference) -> tuple[int, ...]:
    """Rank of every subset under pref; index = bitmask, 0 = worst."""
    m = pref.m
    if isinstance(pref, RankTable):
        return pref.rank
    if isinstance(pref, Lexicographic):
        return tuple(pref.rank_of(s) for s in range(1 << m))
    order = np.argsort(pref.subset_sums())
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return tuple(rank.tolist())


def compare(pref: Preference, s: Mask, t: Mask) -> Ordering:
    """Strict order between two distinct subsets: LESS means s is worse than t."""
    univ = full_mask(pref.m)
    if s & ~univ or t & ~univ:
        raise ValueError("subset outside the universe")
    if s == t:
        raise IdenticalSets(f"compare({s}, {s})")
    if isinstance(pref, AdditiveStrict):
        row = pref.row
        gain = sum(row[g] for g in goods_of(t)) - sum(row[g] for g in goods_of(s))
        return Ordering.LESS if gain > 0 else Ordering.GREATER
    return Ordering.LESS if pref.rank_of(s) < pref.rank_of(t) else Ordering.GREATER


def demand(pref: Preference, pool: Mask, k: int) -> Mask:
    """The unique best subset of pool with at most (hence exactly) k goods."""
    if k < 0:
        raise ValueError("k must be non-negative")
    if k > pool.bit_count():
        raise QuotaExceedsPool(f"k={k} exceeds |pool|={pool.bit_count()}")
    if k == 0:
        return 0
    if isinstance(pref, Lexicographic):
        out = 0
        for g in pref.order:
            if pool >> g & 1:
                out |= 1 << g
                k -= 1
                if k == 0:
                    break
        return out
    if isinstance(pref, AdditiveStrict):
        top = sorted(goods_of(pool), key=lambda g: pref.row[g], reverse=True)
        return mask_of(top[:k])
    best = 0
    rank = rank_table(pref)
    for s in submasks(pool):
        if s.bit_count() <= k and rank[s] > rank[best]:
            best = s
    return best


def permute_preference(pref: Preference, pi: Permutation) -> Preference:
    """The preference that orders pi(S) vs pi(T) exactly as pref orders S vs T."""
    if isinstance(pref, Lexicographic):
        return Lexicographic(tuple(pi.map[g] for g in pref.order))
    if isinstance(pref, AdditiveStrict):
        row = [0] * pref.m
        for i, v in enumerate(pref.row):
            row[pi.map[i]] = v
        return AdditiveStrict(tuple(row), pref.scale)
    old = pref.rank
    rank = [0] * len(old)
    for s in range(len(old)):
        rank[pi.apply_mask(s)] = old[s]
    return RankTable(tuple(rank))


def strongly_desires(pref: Preference, s: Mask) -> bool:
    """True iff for every A strictly inside B inside s: A + (M \\ s) is worse than B."""
    rank = rank_table(pref)
    rest = full_mask(pref.m) & ~s
    for b in submasks(s):
        rb = rank[b]
        for a in submasks(b):
            if a != b and rank[a | rest] >= rb:
                return False
    return True


def is_push_up(candidate: Preference, base: Preference, s: Mask) -> bool:
    """True iff every Z weakly below s under base stays weakly below s under candidate."""
    rb = rank_table(base)
    rc = rank_table(candidate)
    ts_base, ts_cand = rb[s], rc[s]
    for z in range(len(rb)):
        if rb[z] <= ts_base and rc[z] > ts_cand:
            return False
    return True


def _linear_extensions(m: int):
    """All orderings of the 2^m subsets extending inclusion, worst first.

    Deterministic: at each step the next element is chosen among currently
    minimal unplaced subsets in ascending mask order.
    """
    n = 1 << m
    supersets = [[s | 1 << g for g in range(m) if not s >> g & 1] for s in range(n)]
    missing = [s.bit_count() for s in range(n)]  # unplaced proper subsets
    seq: list[int] = []

    def walk():
        if len(seq) == n:
            yield tuple(seq)
            return
        for s in range(n):
            if missing[s] == 0:
                missing[s] = -1  # placed
                for t in supersets[s]:
                    missing[t] -= 1
                seq.append(s)
                yield from walk()
                seq.pop()
                for t in supersets[s]:
                    missing[t] += 1
                missing[s] = 0

    yield from walk()


@dataclass(frozen=True)
class PreferenceClass:
    """An enumerable (or declared-continuum) family of preferences over m goods.

    Named tags are permutations-closed by construction; explicit lists are
    validated for closure and for containing every lexicographic preference.
    """

    tag: str
    m: int
    members: tuple[Preference, ...] = ()

    def __post_init__(self):
        if self.tag == EXPLICIT:
            _validate_explicit(self.m, self.members)

    @property
    def enumerable(self) -> bool:
        return self.tag != STRICT_ADDITIVE

    def _require_members(self) -> None:
        if not self.enumerable:
            raise NotEnumerable(
                f"preference class {self.tag} (m={self.m}) cannot be enumerated"
            )

    def __len__(self) -> int:
        self._require_members()
        return len(self.members)

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        # Hashing the members walks all C of them; the class is frozen, so
        # the caches keyed on it pay that once.
        return hash((self.tag, self.m, self.members))

    @cached_property
    def _member_index(self) -> dict[tuple[int, ...], int]:
        return {rank_table(p): i for i, p in enumerate(self.members)}

    def index_of(self, pref: Preference) -> int:
        """Index of the member order-identical to pref."""
        self._require_members()
        idx = self._member_index.get(rank_table(pref))
        if idx is None:
            raise NotInClass(f"preference not in class {self.tag}(m={self.m})")
        return idx

    def __contains__(self, pref) -> bool:
        if not self.enumerable:
            return isinstance(pref, AdditiveStrict) and pref.m == self.m
        return rank_table(pref) in self._member_index

    def perm_action(self, pi: Permutation) -> tuple[int, ...]:
        """action[i] = index of member i's image under pi (closure required)."""
        return _perm_action(self, pi)


@lru_cache(maxsize=None)
def _perm_action(cls: PreferenceClass, pi: Permutation) -> tuple[int, ...]:
    out = []
    for p in cls.members:
        image = permute_preference(p, pi)
        idx = cls._member_index.get(rank_table(image))
        if idx is None:
            raise InvalidDomain(f"class {cls.tag} not closed under {pi.map}")
        out.append(idx)
    return tuple(out)


def _validate_explicit(m: int, members: tuple[Preference, ...]) -> None:
    keys = {rank_table(p) for p in members}
    if len(keys) != len(members):
        raise InvalidDomain("explicit class has duplicate members")
    for p in members:
        if p.m != m:
            raise InvalidDomain("member universe size mismatch")
    for lex in enumerate_class(LEX, m):
        if rank_table(lex) not in keys:
            raise InvalidDomain("explicit class must contain every lexicographic preference")
    for pi in all_permutations(m):
        for p in members:
            if rank_table(permute_preference(p, pi)) not in keys:
                raise InvalidDomain("explicit class not permutations-closed")


def lex_class(m: int) -> PreferenceClass:
    return PreferenceClass(LEX, m, enumerate_class(LEX, m))


def strict_monotone_class(m: int) -> PreferenceClass:
    return PreferenceClass(STRICT_MONOTONE_ALL, m, enumerate_class(STRICT_MONOTONE_ALL, m))


def additive_class(m: int) -> PreferenceClass:
    return PreferenceClass(STRICT_ADDITIVE, m)


def explicit_class(m: int, members) -> PreferenceClass:
    return PreferenceClass(EXPLICIT, m, tuple(members))


def class_from_tag(tag: str, m: int) -> PreferenceClass:
    if tag == LEX:
        return lex_class(m)
    if tag == STRICT_MONOTONE_ALL:
        return strict_monotone_class(m)
    if tag == STRICT_ADDITIVE:
        return additive_class(m)
    raise ValueError(f"unknown class tag {tag!r}")


def enumerate_class(tag: str, m: int) -> tuple[Preference, ...]:
    """Complete, duplicate-free, deterministic listing of a preference class."""
    if m < 0:
        raise ValueError(f"need m >= 0, got m={m}")
    if m > MAX_GOODS:
        raise EnumerationTooLarge(f"m={m} above the {MAX_GOODS}-good cap")
    if tag == LEX:
        if m > LEX_ENUM_CAP:
            raise EnumerationTooLarge(f"lexicographic enumeration capped at m={LEX_ENUM_CAP}")
        return tuple(Lexicographic(p) for p in _permutations(range(m)))
    if tag == STRICT_MONOTONE_ALL:
        if m > STRICT_MONOTONE_ENUM_CAP:
            raise EnumerationTooLarge(
                f"strict-monotone enumeration capped at m={STRICT_MONOTONE_ENUM_CAP}"
            )
        prefs = []
        for seq in _linear_extensions(m):
            rank = [0] * (1 << m)
            for pos, s in enumerate(seq):
                rank[s] = pos
            prefs.append(RankTable(tuple(rank)))
        return tuple(prefs)
    if tag == STRICT_ADDITIVE:
        raise NotEnumerable("strict additive preferences are a continuum")
    raise ValueError(f"unknown class tag {tag!r}")

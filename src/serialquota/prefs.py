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
  construction, and every subset-sum table is built by `subset_sum_table`.

`pref.rank` is the one route from a preference to a subset's rank.

All values are immutable and hashable and cache what is derived from them on
themselves, so nothing outlives them; every operation is a pure function.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
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
    brief,
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

    def apply_mask(self, mask: Mask) -> Mask:
        out = 0
        for i in range(self.m):
            if mask >> i & 1:
                out |= 1 << self.map[i]
        return out

    @cached_property
    def mask_image(self) -> np.ndarray:
        """mask_image[s] = pi(s) for every bitmask s."""
        out = np.array([self.apply_mask(s) for s in range(1 << self.m)], dtype=np.int32)
        out.setflags(write=False)
        return out


def neutrality_perms(m: int) -> list[Permutation]:
    """Generators of S_m: the swap (0 1) and, for m >= 3, the cycle i -> i+1 mod m.

    If f(pi.P) = pi.f(P) holds at every profile for sigma and for tau, it
    holds for their product, since f(sigma.tau.P) = sigma.f(tau.P) =
    sigma.tau.f(P); so covariance under these generators is covariance under
    every permutation of the goods.  Likewise a set of preferences closed
    under both is closed under every permutation.
    """
    if m < 2:
        return []
    gens = [Permutation.swap(m, 0, 1)]
    if m >= 3:
        gens.append(Permutation(tuple((i + 1) % m for i in range(m))))
    return gens


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


@dataclass(frozen=True)
class Lexicographic:
    """order[0] is the most important good."""

    order: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.order) != list(range(len(self.order))):
            raise ValueError(f"order must list each good exactly once: {brief(self.order)}")

    @property
    def m(self) -> int:
        return len(self.order)

    @cached_property
    def rank(self) -> tuple[int, ...]:
        """Rank of every subset; index = bitmask, 0 = worst.  The most
        important good becomes the most significant bit."""
        weight = np.zeros(self.m, dtype=np.int64)
        weight[list(self.order)] = 1 << np.arange(self.m - 1, -1, -1)
        return tuple(subset_sum_table(weight[None])[0].tolist())


def subset_sum_table(rows: np.ndarray) -> np.ndarray:
    """sums[r, s] = the sum of row r over subset s; int64, shape (count, 2^m)
    for rows of shape (count, m).

    Built by doubling, one add per entry: the subsets that hold good g are
    those without it plus row[g].
    """
    count, m = rows.shape
    sums = np.zeros((count, 1 << m), dtype=np.int64)
    for g in range(m):
        np.add(sums[:, : 1 << g], rows[:, g : g + 1], out=sums[:, 1 << g : 2 << g])
    return sums


def tied_rows(rows: np.ndarray) -> np.ndarray:
    """Whether each int64 value row (shape (count, m)) has two equal subset
    sums.  All count * 2^m sums are held at once; a large batch goes in
    chunks (`fairness.strict_integer_rows`)."""
    sums = subset_sum_table(rows)
    sums.sort(axis=1)
    return (sums[:, 1:] == sums[:, :-1]).any(axis=1)


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
        return subset_sum_table(np.array([self.row], dtype=np.int64))[0]

    @cached_property
    def rank(self) -> tuple[int, ...]:
        """Rank of every subset; index = bitmask, 0 = worst."""
        return tuple(np.argsort(np.argsort(self.subset_sums())).tolist())


Preference = RankTable | Lexicographic | AdditiveStrict


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
    rank = pref.rank
    return Ordering.LESS if rank[s] < rank[t] else Ordering.GREATER


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
    rank = pref.rank
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
    rank = pref.rank
    rest = full_mask(pref.m) & ~s
    for b in submasks(s):
        rb = rank[b]
        for a in submasks(b):
            if a != b and rank[a | rest] >= rb:
                return False
    return True


def is_push_up(candidate: Preference, base: Preference, s: Mask) -> bool:
    """True iff every Z weakly below s under base stays weakly below s under candidate."""
    rb = base.rank
    rc = candidate.rank
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
        """An explicit class is checked for S_m-closure on its generators,
        whose actions stay with it.  The lex orders form one S_m orbit, so a
        closed class holds them all once it holds the identity order."""
        if self.tag != EXPLICIT:
            return
        if any(p.m != self.m for p in self.members):
            raise InvalidDomain("member universe size mismatch")
        if len(self._member_index) != len(self.members):
            raise InvalidDomain("explicit class has duplicate members")
        if Lexicographic(tuple(range(self.m))).rank not in self._member_index:
            raise InvalidDomain("explicit class must contain every lexicographic preference")
        self.generators  # raises unless closed under both

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

    @cached_property
    def _member_index(self) -> dict[tuple[int, ...], int]:
        return {p.rank: i for i, p in enumerate(self.members)}

    def index_of(self, pref: Preference) -> int:
        """Index of the member order-identical to pref."""
        self._require_members()
        idx = self._member_index.get(pref.rank)
        if idx is None:
            raise NotInClass(f"preference not in class {self.tag}(m={self.m})")
        return idx

    def __contains__(self, pref) -> bool:
        if not self.enumerable:
            return isinstance(pref, AdditiveStrict) and pref.m == self.m
        return pref.rank in self._member_index

    @cached_property
    def ranks(self) -> np.ndarray:
        """ranks[i, s] = rank of subset s under member i; shape (C, 2^m)."""
        out = np.array([p.rank for p in self.members], dtype=np.int32).reshape(-1, 1 << self.m)
        out.setflags(write=False)
        return out

    @cached_property
    def demands(self) -> np.ndarray:
        """dt[k, i, pool] = k-demand of member i from pool (k clamped to |pool|)."""
        m = self.m
        size = 1 << m
        out = np.zeros((m + 1, len(self.members), size), dtype=np.int32)
        for i, p in enumerate(self.members):
            for pool in range(size):
                avail = pool.bit_count()
                for k in range(m + 1):
                    out[k, i, pool] = demand(p, pool, min(k, avail))
        out.setflags(write=False)
        return out

    @cached_property
    def strong_desire(self) -> np.ndarray:
        """sd[i, s] = member i strongly desires subset s; shape (C, 2^m)."""
        out = np.array(
            [[strongly_desires(p, s) for s in range(1 << self.m)] for p in self.members],
            dtype=bool,
        )
        out.setflags(write=False)
        return out

    @cached_property
    def push_up(self) -> np.ndarray:
        """up[t, s, d]: member d is a push-up of member t with respect to subset s,
        i.e. every subset weakly below s under t stays weakly below s under d;
        shape (C, 2^m, C), its size gated by `engine.push_up_matrix`."""
        c = len(self.members)
        ranks = self.ranks
        size = ranks.shape[1]
        out = np.empty((c, size, c), dtype=bool)
        for s in range(size):
            below = (ranks <= ranks[:, s, None]).astype(np.float32)  # below[t, z]
            # escapes[t, d]: subsets weakly below s under t but above it under d.
            out[:, s, :] = below @ (1 - below).T == 0
        out.setflags(write=False)
        return out

    @cached_property
    def generators(self) -> tuple[tuple[Permutation, tuple[int, ...], tuple[int, ...]], ...]:
        """(pi, action, inverse) for each pi in neutrality_perms(m): member i's
        image under pi is member action[i], and inverse[action[i]] == i.
        Raises InvalidDomain naming the first generator the class is not
        closed under."""
        out = []
        for pi in neutrality_perms(self.m):
            moved = self.ranks[:, np.argsort(pi.mask_image)]  # [i]: member i's image's ranks
            action = tuple(self._member_index.get(tuple(row)) for row in moved.tolist())
            if None in action:
                raise InvalidDomain(f"class {self.tag} not closed under {pi.map}")
            out.append((pi, action, tuple(sorted(range(len(action)), key=action.__getitem__))))
        return tuple(out)


def lex_class(m: int) -> PreferenceClass:
    return class_from_tag(LEX, m)


def strict_monotone_class(m: int) -> PreferenceClass:
    return class_from_tag(STRICT_MONOTONE_ALL, m)


def additive_class(m: int) -> PreferenceClass:
    return PreferenceClass(STRICT_ADDITIVE, m)


def explicit_class(m: int, members) -> PreferenceClass:
    return PreferenceClass(EXPLICIT, m, tuple(members))


def class_from_tag(tag: str, m: int) -> PreferenceClass:
    """The named class over m goods; enumerate_class rejects an unknown tag."""
    return PreferenceClass(tag, m, () if tag == STRICT_ADDITIVE else enumerate_class(tag, m))


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
    raise ValueError(f"unknown class tag {brief(tag)}")

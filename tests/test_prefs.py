"""Preference layer: comparison semantics, demand, permutations, classes.

The brute-force oracles here are deliberately independent of the library:
rank tables are rebuilt from scratch by enumerating orderings of the subset
lattice, and demand is checked against an exhaustive argmax.
"""

import gc
import re
import weakref
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from serialquota import (
    AdditiveStrict,
    EnumerationTooLarge,
    IdenticalSets,
    InvalidDomain,
    Lexicographic,
    NotEnumerable,
    NotInClass,
    Ordering,
    Permutation,
    QuotaExceedsPool,
    RankTable,
    TieDetected,
    additive_class,
    class_from_tag,
    compare,
    demand,
    enumerate_class,
    explicit_class,
    full_mask,
    goods_of,
    is_push_up,
    lex_class,
    mask_of,
    permute_preference,
    strict_monotone_class,
    strongly_desires,
    submasks,
)
from serialquota import check, engine, prefs, serial_quota, verify_characterization
from serialquota.prefs import MAX_GOODS
from serialquota.properties import (
    CONTROL_CLAIM,
    NEUTRAL,
    NON_BOSSY,
    PARETO,
    PARTITION,
    PUSH_UP,
    TRUTHFUL,
)
from serialquota.search import mutate_with_log

LEX012 = Lexicographic((0, 1, 2))
INTRO_VALS = (Fraction(11), Fraction(1001, 100), Fraction(10))


def brute_monotone_rank_tables(m):
    """All strict weakly-monotone orders over 2^m subsets, as rank tuples.

    Independent oracle: try every permutation of the subsets and keep the
    ones where T < S (strict subset) implies rank[T] < rank[S].
    """
    subsets = list(range(1 << m))
    tables = []
    for perm in permutations(subsets):
        rank = [0] * len(subsets)
        for pos, s in enumerate(perm):
            rank[s] = pos
        ok = all(
            rank[t] < rank[s]
            for s in subsets
            for t in submasks(s)
            if t != s
        )
        if ok:
            tables.append(tuple(rank))
    return tables


def test_linear_extension_counts_against_brute_force():
    for m in (1, 2):
        brute = set(brute_monotone_rank_tables(m))
        enumerated = {p.rank for p in strict_monotone_class(m).members}
        assert enumerated == brute
    # m=3: 40320 permutations of the 8 subsets, 48 survive
    assert len(brute_monotone_rank_tables(3)) == 48
    assert len(strict_monotone_class(3)) == 48


def test_class_sizes():
    assert len(lex_class(3)) == 6
    assert len(strict_monotone_class(2)) == 2
    assert len(strict_monotone_class(3)) == 48
    assert len(lex_class(1)) == 1
    assert len(strict_monotone_class(1)) == 1


def test_enumeration_caps():
    with pytest.raises(EnumerationTooLarge):
        enumerate_class("strict_monotone_all", 4)
    with pytest.raises(EnumerationTooLarge):
        enumerate_class("lex", 9)
    with pytest.raises(NotEnumerable):
        len(additive_class(3))


def test_compare_lexicographic_first_good_wins():
    assert compare(LEX012, mask_of([0]), mask_of([1, 2])) is Ordering.GREATER
    assert compare(LEX012, mask_of([1, 2]), mask_of([0])) is Ordering.LESS


def test_compare_empty_below_everything():
    for pref in enumerate_class("strict_monotone_all", 3):
        assert compare(pref, 0, mask_of([0])) is Ordering.LESS


def test_compare_identical_sets_rejected():
    with pytest.raises(IdenticalSets):
        compare(LEX012, 0b101, 0b101)


def test_compare_additive_by_subset_sums():
    pref = AdditiveStrict(INTRO_VALS)
    assert compare(pref, mask_of([0]), mask_of([1, 2])) is Ordering.LESS


def test_additive_rejects_more_goods_than_the_cap():
    assert AdditiveStrict(tuple(Fraction(2**g) for g in range(MAX_GOODS))).m == MAX_GOODS
    with pytest.raises(ValueError, match="cap"):
        AdditiveStrict(tuple(Fraction(2**g) for g in range(MAX_GOODS + 1)))


def test_additive_rejects_subset_sum_collision():
    with pytest.raises(TieDetected):
        AdditiveStrict((Fraction(1), Fraction(2), Fraction(3)))


def test_additive_stores_one_canonical_integer_form():
    pref = AdditiveStrict(INTRO_VALS)
    assert (pref.row, pref.scale) == ((1100, 1001, 1000), 100)
    assert pref.values == INTRO_VALS
    same = AdditiveStrict((2200, 2002, 2000), 200)
    assert same == pref and hash(same) == hash(pref)
    assert AdditiveStrict((4, 2, 1), 2) == AdditiveStrict((2, 1, Fraction(1, 2)))
    with pytest.raises(ValueError):
        AdditiveStrict((1, 2), 0)
    with pytest.raises(ValueError):
        AdditiveStrict((0.5, 2))


def test_additive_rejects_rows_past_the_int64_guard():
    top = AdditiveStrict((2**62 - 2, 1))
    assert top.rank == (0, 2, 1, 3)
    with pytest.raises(ValueError, match="2\\^62"):
        AdditiveStrict((2**62 - 1, 1))
    with pytest.raises(ValueError, match="2\\^62"):
        AdditiveStrict((Fraction(2**62, 3), Fraction(1, 3)))


def fraction_subset_sums(values):
    """Subset sums in exact rationals, indexed by bitmask."""
    return [
        sum((v for g, v in enumerate(values) if s >> g & 1), Fraction(0))
        for s in range(1 << len(values))
    ]


@given(st.lists(st.fractions(0, 60, max_denominator=12), max_size=6))
def test_integer_rank_table_matches_fraction_sort(values):
    """The int64 subset sums rank subsets exactly as rational sums do, and
    reject a row exactly when two rational sums tie."""
    sums = fraction_subset_sums(values)
    if len(set(sums)) < len(sums):
        with pytest.raises(TieDetected):
            AdditiveStrict(tuple(values))
        return
    pref = AdditiveStrict(tuple(values))
    assert pref.values == tuple(values)
    order = sorted(range(len(sums)), key=lambda s: sums[s])
    expected = [0] * len(sums)
    for pos, s in enumerate(order):
        expected[s] = pos
    assert pref.rank == tuple(expected)
    for s in range(len(sums)):
        for t in range(len(sums)):
            if s != t:
                less = sums[s] < sums[t]
                assert (compare(pref, s, t) is Ordering.LESS) == less


def test_subset_sum_table_and_tie_verdicts_against_brute_force():
    import numpy as np

    from serialquota.prefs import subset_sum_table, tied_rows

    rng = np.random.default_rng(5)
    for m in range(0, 7):
        rows = rng.integers(0, 9, size=(6, m))
        sums = subset_sum_table(rows)
        assert sums.dtype == np.int64 and sums.shape == (6, 1 << m)
        for row, got in zip(rows.tolist(), sums.tolist()):
            expected = [sum(v for g, v in enumerate(row) if s >> g & 1) for s in range(1 << m)]
            assert got == expected
            assert tied_rows(np.array([row], dtype=np.int64))[0] == (len(set(expected)) < len(expected))
        assert tied_rows(rows).tolist() == [len(set(r)) < len(r) for r in sums.tolist()]
    assert subset_sum_table(np.zeros((0, 4), dtype=np.int64)).shape == (0, 16)


def test_lexicographic_rank_table_orders_by_first_differing_good():
    for m in range(0, 5):
        for order in permutations(range(m)):
            rank = Lexicographic(order).rank
            for s in range(1 << m):
                for t in range(s + 1, 1 << m):
                    first = next(g for g in order if (s ^ t) >> g & 1)
                    assert (rank[s] < rank[t]) == bool(t >> first & 1)


def test_strictness_totality_m3():
    """Exactly one direction is Greater, for every enumerated pref and pair."""
    pairs = list(combinations(range(8), 2))
    for pref in strict_monotone_class(3).members:
        for s, t in pairs:
            a = compare(pref, s, t)
            b = compare(pref, t, s)
            assert {a, b} == {Ordering.LESS, Ordering.GREATER}


def test_monotone_consistency_m3():
    for pref in strict_monotone_class(3).members:
        for s in range(8):
            for t in submasks(s):
                if t != s:
                    assert compare(pref, t, s) is Ordering.LESS


def test_rank_table_is_monotone_bijection():
    for pref in lex_class(3).members:
        rt = pref.rank
        assert sorted(rt) == list(range(8))
        assert rt[0] == 0
        assert rt[7] == 7


def test_demand_examples():
    assert demand(LEX012, full_mask(3), 0) == 0
    assert demand(LEX012, mask_of([1, 2]), 1) == mask_of([1])
    assert demand(AdditiveStrict(INTRO_VALS), full_mask(3), 1) == mask_of([0])


def test_demand_exceeding_pool_rejected():
    with pytest.raises(QuotaExceedsPool):
        demand(LEX012, mask_of([1]), 2)


def test_demand_has_exact_cardinality_and_beats_alternatives():
    """Exhaustive argmax oracle over all pools and sizes at m=3."""
    for pref in lex_class(3).members:
        for pool in range(8):
            for k in range(pool.bit_count() + 1):
                d = demand(pref, pool, k)
                assert d.bit_count() == k
                assert d & ~pool == 0
                for t in submasks(pool):
                    if t.bit_count() <= k and t != d:
                        assert compare(pref, t, d) is Ordering.LESS


def test_permute_identity_is_noop():
    pi = Permutation((0, 1, 2))
    assert permute_preference(LEX012, pi) == LEX012


def test_permute_lexicographic_swap():
    pi = Permutation.swap(2, 0, 1)
    assert permute_preference(Lexicographic((0, 1)), pi) == Lexicographic((1, 0))


def test_permute_rank_table_subset_by_subset():
    # ranks over (empty, {0}, {1}, {0,1}) = (0,2,1,3); swapping goods gives 0,1,2,3
    base = RankTable((0, 2, 1, 3))
    pi = Permutation.swap(2, 0, 1)
    assert permute_preference(base, pi).rank == (0, 1, 2, 3)


def inverse(pi):
    """pi^-1, mapping pi.map[i] back to i."""
    inv = [0] * pi.m
    for i, j in enumerate(pi.map):
        inv[j] = i
    return Permutation(tuple(inv))


@given(st.sampled_from(list(lex_class(3).members)), st.permutations(list(range(3))))
def test_permutation_round_trip(pref, pi_map):
    pi = Permutation(tuple(pi_map))
    back = permute_preference(permute_preference(pref, pi), inverse(pi))
    assert back.rank == pref.rank


def test_permute_definition_pointwise():
    """compare(p^pi, pi(S), pi(T)) == compare(p, S, T), exhaustive at m=3."""
    for pref in lex_class(3).members:
        for pi in map(Permutation, permutations(range(3))):
            moved = permute_preference(pref, pi)
            for s in range(8):
                for t in range(s):
                    assert compare(moved, pi.apply_mask(s), pi.apply_mask(t)) is compare(
                        pref, s, t
                    )


def test_strongly_desires_prefixes_only():
    assert strongly_desires(LEX012, mask_of([0]))
    assert strongly_desires(LEX012, mask_of([0, 1]))
    assert not strongly_desires(LEX012, mask_of([1]))


def test_strongly_desired_sets_of_lex_are_exactly_prefixes():
    for m in (2, 3, 4):
        for pref in lex_class(m).members:
            prefixes = {0}
            acc = 0
            for g in pref.order:
                acc |= 1 << g
                prefixes.add(acc)
            desired = {s for s in range(1 << m) if strongly_desires(pref, s)}
            assert desired == prefixes


def test_is_push_up_examples():
    base = Lexicographic((0, 1))
    assert is_push_up(base, base, mask_of([0]))
    for cand in lex_class(2).members:
        assert is_push_up(cand, base, full_mask(2))
    assert not is_push_up(Lexicographic((1, 0)), base, mask_of([0]))


def test_equal_classes_compare_and_hash_equal():
    a, b = lex_class(4), lex_class(4)
    assert a is not b and a == b and hash(a) == hash(b)
    assert b.index_of(a.members[17]) == 17


def test_class_membership_and_index():
    cls = lex_class(3)
    for i, pref in enumerate(cls.members):
        assert cls.index_of(pref) == i
        assert pref in cls
    with pytest.raises(NotInClass):
        cls.index_of(RankTable(tuple(AdditiveStrict(INTRO_VALS).rank)))


def test_explicit_class_requires_permutation_closure():
    with pytest.raises(InvalidDomain):
        explicit_class(2, (Lexicographic((0, 1)),))  # missing the other lex order
    lex_keys = {p.rank for p in lex_class(3).members}
    stray = next(
        p for p in strict_monotone_class(3).members if p.rank not in lex_keys
    )
    with pytest.raises(InvalidDomain):
        # all lex orders present, but the extra member's orbit is not
        explicit_class(3, (*lex_class(3).members, stray))
    full = explicit_class(3, tuple(strict_monotone_class(3).members))
    assert len(full) == 48


def closed_under_every_permutation(members, m):
    """The oracle: each member's image under each of the m! renamings is a member."""
    keys = {p.rank for p in members}
    return all(
        permute_preference(p, Permutation(pi)).rank in keys
        for pi in permutations(range(m))
        for p in members
    )


def orbit(pref, m):
    """pref's images under S_m, keyed by rank table."""
    images = (permute_preference(pref, Permutation(pi)) for pi in permutations(range(m)))
    return {q.rank: q for q in images}


def accepted(members, m):
    try:
        explicit_class(m, members)
    except InvalidDomain:
        return False
    return True


def test_generator_closure_matches_the_full_group_at_m3():
    """Every union of strict_monotone_all(3)'s S_3 orbits that holds lex is
    accepted; lex plus one stray order is refused, by both rules."""
    lex = {p.rank: p for p in lex_class(3).members}
    orbits = []
    for p in strict_monotone_class(3).members:
        key = p.rank
        if key not in lex and all(key not in o for o in orbits):
            orbits.append(orbit(p, 3))
    assert len(orbits) == 7
    for picked in range(1 << len(orbits)):
        members = dict(lex)
        for k, o in enumerate(orbits):
            if picked >> k & 1:
                members.update(o)
        members = tuple(members.values())
        assert closed_under_every_permutation(members, 3)
        assert accepted(members, 3)
    for o in orbits:
        members = (*lex.values(), next(iter(o.values())))
        assert not closed_under_every_permutation(members, 3)
        assert not accepted(members, 3)


def test_generator_closure_matches_the_full_group_on_sampled_m4_unions():
    """Lex with whole S_4 orbits of random additive orders, then with one
    member dropped or one order added, and lex with one order's images
    under the swap alone or the cycle alone: both rules give the same
    verdict."""
    rng = np.random.default_rng(4)
    lex = {p.rank: p for p in lex_class(4).members}
    swap, cycle = prefs.neutrality_perms(4)

    def draw():
        while True:
            try:
                return AdditiveStrict(tuple(int(v) for v in rng.integers(1, 60, size=4)))
            except TieDetected:
                pass

    verdicts = []
    for _ in range(12):
        members = dict(lex)
        for _ in range(int(rng.integers(1, 3))):
            members.update(orbit(draw(), 4))
        extra = draw()
        cases = [
            tuple(members.values()),
            tuple(v for k, v in members.items() if k != list(members)[-1]),
        ]
        if extra.rank not in members:
            cases.append((*members.values(), extra))
        for gen, power in ((swap, 2), (cycle, 4)):
            images = dict(lex)
            for _ in range(power):
                images[extra.rank] = extra
                extra = permute_preference(extra, gen)
            cases.append(tuple(images.values()))
        for case in cases:
            verdict = closed_under_every_permutation(case, 4)
            assert accepted(case, 4) == verdict
            verdicts.append(verdict)
    assert any(verdicts) and not all(verdicts)


def test_explicit_class_refusal_names_the_generator_that_breaks():
    swap, cycle = prefs.neutrality_perms(3)
    lex_keys = {p.rank for p in lex_class(3).members}
    stray = next(
        p for p in strict_monotone_class(3).members if p.rank not in lex_keys
    )
    swap_pair = (stray, permute_preference(stray, swap))
    cycle_triple = (
        stray,
        permute_preference(stray, cycle),
        permute_preference(permute_preference(stray, cycle), cycle),
    )
    for extra, broken in ((swap_pair, cycle), (cycle_triple, swap)):
        named = rf"not closed under {re.escape(str(broken.map))}$"
        with pytest.raises(InvalidDomain, match=named):
            explicit_class(3, (*lex_class(3).members, *extra))


def test_explicit_class_holds_its_generators_once_built():
    cls = explicit_class(3, tuple(strict_monotone_class(3).members))
    assert "generators" in vars(cls)  # computed by the closure check
    assert cls.generators == strict_monotone_class(3).generators


def lex_and_one_orbit(m):
    """lex(m) and the S_m orbit of the first strict order that is not lex:
    an explicit class that no tag names."""
    lex_keys = {p.rank for p in lex_class(m).members}
    stray = next(p for p in strict_monotone_class(m).members if p.rank not in lex_keys)
    return explicit_class(m, (*lex_class(m).members, *orbit(stray, m).values()))


def lex_explicit(m):
    """lex(m)'s orders, last first, as an explicit class: every member is
    Lexicographic, so its rank matrix is built from their orders."""
    return explicit_class(m, [Lexicographic(o) for o in reversed(list(permutations(range(m))))])


@pytest.mark.parametrize("build,m", [
    *((lex_class, m) for m in range(6)),
    *((strict_monotone_class, m) for m in range(4)),
    (lex_and_one_orbit, 3),
    *((lex_explicit, m) for m in (0, 1, 3, 4)),
])
def test_class_tables_match_scalar_demand_and_desire(build, m):
    """`ranks`, `demands` and `strong_desire`, built for all members at
    once, equal the scalar `rank`, `demand` and `strongly_desires` of every
    member, pool and k."""
    cls = build(m)
    assert cls.ranks.tolist() == [list(p.rank) for p in cls.members]
    assert cls.ranks.dtype == np.uint8  # m <= 8: a rank below 2^m fits a byte
    pools = range(1 << m)
    demands = [
        [[demand(p, pool, min(k, pool.bit_count())) for pool in pools] for p in cls.members]
        for k in range(m + 1)
    ]
    desire = [[strongly_desires(p, s) for s in pools] for p in cls.members]
    assert cls.demands.tolist() == demands
    assert cls.demands.dtype == np.uint8  # m <= 8: a subset mask fits a byte
    assert cls.strong_desire.tolist() == desire


def as_rank_tables(cls):
    """cls's members as RankTables, in the same order: a class that no
    shortcut for Lexicographic members applies to."""
    return explicit_class(cls.m, [RankTable(tuple(row)) for row in cls.ranks.tolist()])


@pytest.mark.parametrize("build,m", [
    *((lex_class, m) for m in range(7)),
    *((lex_explicit, m) for m in (0, 1, 3, 4)),
])
def test_lex_strong_desire_matches_the_general_build(build, m):
    """A class of Lexicographic members marks each order's m + 1 prefixes;
    the general build from ranks gives the same table."""
    cls = build(m)
    assert cls.strong_desire.tolist() == as_rank_tables(cls).strong_desire.tolist()
    assert cls.strong_desire.sum(axis=1).tolist() == [m + 1] * len(cls)


def test_mixed_class_strong_desire_takes_the_general_path():
    """One member that is not Lexicographic sends the whole class to the
    general build, which agrees with the scalar `strongly_desires`."""
    cls = lex_and_one_orbit(3)
    assert cls._lex_orders() is None
    assert lex_class(3)._lex_orders() is not None
    desire = [[strongly_desires(p, s) for s in range(8)] for p in cls.members]
    assert cls.strong_desire.tolist() == desire


@pytest.mark.parametrize("build", [lex_class, lex_explicit], ids=["lex", "explicit"])
def test_class_tables_never_ask_members_for_rank(build):
    """The class's tables read its one rank matrix: building them leaves no
    member holding its own rank tuple."""
    cls = build(6)
    for table in ("ranks", "generators", "demands", "strong_desire"):
        getattr(cls, table)
    assert not any("rank" in vars(p) for p in cls.members)


def test_member_lookup_by_rank_row():
    """A preference over more goods is not a member, whatever its ranks
    would be in the class's narrow dtype; duplicates are still refused; and
    explicit classes' generator actions follow `permute_preference`."""
    cls = lex_class(3)
    wide = Lexicographic(tuple(range(9)))  # ranks up to 511 overflow uint8
    assert wide not in cls
    with pytest.raises(NotInClass):
        cls.index_of(wide)
    with pytest.raises(InvalidDomain, match="duplicate"):
        explicit_class(3, (*lex_class(3).members, Lexicographic((0, 1, 2))))
    for explicit in (lex_and_one_orbit(3), lex_explicit(4)):
        assert_actions_follow_permute_preference(explicit)


def test_refused_explicit_class_is_freed():
    """Nothing outside the refused class keeps it alive: a frontier sweep
    that tries many candidate domains does not pile them up."""
    swap = prefs.neutrality_perms(3)[0]
    lex_keys = {p.rank for p in lex_class(3).members}
    stray = next(
        p for p in strict_monotone_class(3).members if p.rank not in lex_keys
    )
    with pytest.raises(InvalidDomain, match="not closed under") as info:
        explicit_class(3, (*lex_class(3).members, stray, permute_preference(stray, swap)))
    tb = info.tb
    while tb.tb_frame.f_code.co_name != "__post_init__":
        tb = tb.tb_next
    ref = weakref.ref(tb.tb_frame.f_locals["self"])
    del tb, info
    gc.collect()
    assert ref() is None


def test_checked_class_and_its_members_are_freed():
    """Checks, the search and mutation runs keep nothing derived from a
    class or a member beyond their lifetime: a census that builds one class
    per orbit does not pile them up."""
    cls = lex_class(3)
    mech = serial_quota((1, 2), (0, 1), cls)
    check(mech, [TRUTHFUL, NON_BOSSY, NEUTRAL, PARTITION, PARETO, CONTROL_CLAIM, PUSH_UP])
    verify_characterization(2, 3, cls, True)
    mutate_with_log(mech.quota, cls, trials=20, log_size=5)
    refs = weakref.ref(cls), weakref.ref(cls.members[0])
    del cls, mech
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


@pytest.mark.parametrize("tag,m", [("lex", 0), ("lex", 1), ("lex", 2), ("lex", 3),
                                   ("lex", 4), ("strict_monotone_all", 3)])
def test_generator_actions_and_inverses_follow_permute_preference(tag, m):
    cls = class_from_tag(tag, m)
    assert [pi for pi, _, _ in cls.generators] == prefs.neutrality_perms(m)
    assert_actions_follow_permute_preference(cls)


def assert_actions_follow_permute_preference(cls):
    """Each generator's action equals a lookup keyed by rank tuples, built
    here apart from the class's own index, and its inverse undoes it."""
    index = {p.rank: i for i, p in enumerate(cls.members)}
    for pi, action, inv in cls.generators:
        assert action == tuple(index[permute_preference(p, pi).rank] for p in cls.members)
        assert all(inv[action[i]] == i for i in range(len(cls)))


def test_engine_reads_the_generators_from_prefs():
    assert engine.neutrality_perms is prefs.neutrality_perms


def test_class_from_tag_round_trip():
    assert class_from_tag("lex", 3).tag == "lex"
    assert class_from_tag("strict_monotone_all", 2).tag == "strict_monotone_all"
    assert class_from_tag("strict_additive", 3).tag == "strict_additive"
    with pytest.raises(ValueError):
        class_from_tag("responsive", 3)


def test_mask_helpers():
    assert full_mask(3) == 0b111
    assert mask_of([0, 2]) == 0b101
    assert goods_of(0b101) == [0, 2]
    assert list(submasks(0b101)) == [0b000, 0b001, 0b100, 0b101]

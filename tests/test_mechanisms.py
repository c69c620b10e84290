"""Mechanism layer: canonical quota-ordering pairs, serial application,
counterexample constructions, the cardinal wrapper, and profile indexing."""

from fractions import Fraction
from itertools import product

import pytest

from serialquota import (
    Allocation,
    CardinalInstance,
    CounterBossy,
    CounterNonNeutral,
    CounterNonTruthful,
    DomainError,
    InvalidOrdering,
    InvalidPartition,
    Lexicographic,
    NotInClass,
    QuotaOrdering,
    QuotaOverflow,
    RoundRobin,
    SerialQuota,
    TableMechanism,
    TieDetected,
    TooSmall,
    additive_class,
    apply,
    canonicalize,
    cardinal_apply,
    demand,
    full_mask,
    index_to_profile,
    lex_class,
    mask_of,
    profile_index,
    serial_quota,
)

LEX3 = lex_class(3)
INTRO = CardinalInstance.from_values(
    ((Fraction(11), Fraction(1001, 100), Fraction(10)),
     (Fraction(10), Fraction(101, 100), Fraction(1)))
)


def lex_profile(*orders):
    return tuple(Lexicographic(o) for o in orders)


# ---------------------------------------------------------------- canonical form

def test_canonicalize_examples():
    assert canonicalize((1, 2), (0, 1), 3) == QuotaOrdering((1, 2), (0, 1))
    assert canonicalize((0, 2), (0, 1), 3) == QuotaOrdering((2, 0), (1, 0))
    with pytest.raises(QuotaOverflow):
        canonicalize((2, 2), (0, 1), 3)
    with pytest.raises(InvalidOrdering):
        canonicalize((1, 1), (0, 0), 3)


def test_canonicalize_idempotent():
    for q, p in [((0, 1, 2), (2, 1, 0)), ((1, 0, 0), (1, 2, 0)), ((3, 0), (1, 0))]:
        once = canonicalize(q, p, 3)
        again = canonicalize(once.q, once.p, 3)
        assert once == again


def test_quota_ordering_rejects_non_canonical():
    with pytest.raises(InvalidOrdering):
        QuotaOrdering((0, 1), (0, 1))  # zero quota not at the suffix
    with pytest.raises(InvalidOrdering):
        QuotaOrdering((1, 0, 0), (0, 2, 1))  # zero-quota agents out of order


def test_canonicalize_preserves_allocations():
    """The canonical form is the same mechanism, profile by profile."""
    raw_q, raw_p = (0, 2, 1), (2, 0, 1)
    canon = canonicalize(raw_q, raw_p, 3)
    mech = serial_quota(canon.q, canon.p, LEX3)
    for profile in product(LEX3.members, repeat=3):
        direct = _naive_serial(raw_q, raw_p, profile, 3)
        assert apply(mech, profile).bundles == direct


def _naive_serial(q, p, profile, m):
    """Reference implementation straight from the definition."""
    remaining = full_mask(m)
    bundles = [0] * len(profile)
    for quota, agent in zip(q, p):
        take = demand(profile[agent], remaining, min(quota, remaining.bit_count()))
        bundles[agent] = take
        remaining &= ~take
    return tuple(bundles)


# ---------------------------------------------------------------- serial quota

def test_serial_quota_intro_instance():
    alloc = cardinal_apply(serial_quota((1, 2), (0, 1), additive_class(3)), INTRO)
    assert alloc.bundles == (mask_of([0]), mask_of([1, 2]))


def test_identical_profile_gets_consecutive_blocks():
    """Identical reports carve the order into prefix blocks of sizes q."""
    mech = serial_quota((1, 2), (0, 1), LEX3)
    for pref in LEX3.members:
        alloc = apply(mech, (pref, pref))
        assert alloc.bundles[0] == 1 << pref.order[0]
        assert alloc.bundles[1] == mask_of(pref.order[1:])


def test_full_quota_takes_everything():
    mech = serial_quota((3, 0), (0, 1), LEX3)
    for pref in LEX3.members:
        alloc = apply(mech, (pref, Lexicographic((0, 1, 2))))
        assert alloc.bundles == (full_mask(3), 0)


def test_bundle_sizes_equal_quotas_everywhere():
    from serialquota import enumerate_q

    for quota in enumerate_q(2, 3):
        mech = serial_quota(quota.q, quota.p, LEX3)
        for profile in product(LEX3.members, repeat=2):
            alloc = apply(mech, profile)
            for agent, size in zip(quota.p, quota.q):
                assert alloc.bundles[agent].bit_count() == size
            assert alloc.is_partition == (sum(quota.q) == 3)


def test_first_picker_law():
    mech = serial_quota((2, 1), (1, 0), LEX3)
    for profile in product(LEX3.members, repeat=2):
        alloc = apply(mech, profile)
        assert alloc.bundles[1] == demand(profile[1], full_mask(3), 2)


def test_first_pick_independence():
    """Fix the first picker; others may be swapped for any report that
    induces the same preference on the leftover goods.  A lexicographic
    order restricted to those goods is their sequence in its order."""

    def induced(pref, rest):
        return [g for g in pref.order if rest >> g & 1]

    for n in (2, 3):
        mech = serial_quota((1,) * (n - 1) + (3 - n + 1,), tuple(range(n)), LEX3)
        for profile in product(LEX3.members, repeat=n):
            base = apply(mech, profile)
            d = demand(profile[0], full_mask(3), mech.quota.q[0])
            rest = full_mask(3) & ~d
            for j in range(1, n):
                key = induced(profile[j], rest)
                for alt in LEX3.members:
                    if induced(alt, rest) != key:
                        continue
                    swapped = (*profile[:j], alt, *profile[j + 1:])
                    assert apply(mech, swapped).bundles == base.bundles


# ---------------------------------------------------------------- other variants

def test_round_robin_alternates_single_picks():
    mech = RoundRobin(2, 2, lex_class(2))
    alloc = apply(mech, lex_profile((0, 1), (0, 1)))
    assert alloc.bundles == (mask_of([0]), mask_of([1]))


def test_round_robin_is_a_partition_mechanism():
    mech = RoundRobin(2, 3, LEX3)
    for profile in product(LEX3.members, repeat=2):
        assert apply(mech, profile).is_partition


def test_counter_non_truthful_branches():
    mech = CounterNonTruthful(2, 2, lex_class(2))
    same = apply(mech, lex_profile((0, 1), (0, 1)))
    assert same.bundles == (full_mask(2), 0)
    diff = apply(mech, lex_profile((0, 1), (1, 0)))
    assert diff.bundles == (0, full_mask(2))


def test_counter_bossy_splits_on_first_agents_top():
    mech = CounterBossy(3, 3, LEX3)
    alloc = apply(mech, lex_profile((1, 0, 2), (0, 1, 2), (0, 1, 2)))
    assert alloc.bundles == (0, mask_of([1]), mask_of([0, 2]))


def test_counter_non_neutral_branches():
    mech = CounterNonNeutral(3, 3, LEX3, a=0, b=1)
    # top pick is b: agent 1 picks second
    alloc = apply(mech, lex_profile((1, 0, 2), (2, 0, 1), (0, 1, 2)))
    assert alloc.bundles == (mask_of([1]), mask_of([2]), mask_of([0]))
    # top pick is neither a nor b: agent 2 picks second
    alloc = apply(mech, lex_profile((2, 0, 1), (0, 1, 2), (0, 1, 2)))
    assert alloc.bundles == (mask_of([2]), mask_of([1]), mask_of([0]))
    # a excluded from agent 0's menu, so (a, b, ...) resolves to b
    alloc = apply(mech, lex_profile((0, 1, 2), (2, 0, 1), (0, 1, 2)))
    assert alloc.bundles[0] == mask_of([1])


def test_counterexamples_validate_sizes():
    with pytest.raises(TooSmall):
        CounterNonTruthful(1, 2, lex_class(2))
    with pytest.raises(TooSmall):
        CounterNonTruthful(2, 3, LEX3)
    with pytest.raises(TooSmall):
        CounterBossy(2, 3, LEX3)
    with pytest.raises(TooSmall):
        CounterNonNeutral(3, 2, lex_class(2), a=0, b=1)
    with pytest.raises(ValueError):
        CounterNonNeutral(3, 3, LEX3, a=1, b=1)


@pytest.mark.parametrize("kind, args", [
    (SerialQuota, (2, 4, LEX3, canonicalize((1, 1), (0, 1), 4))),
    (TableMechanism, (1, 3, lex_class(2), ((1,), (2,)))),
    (RoundRobin, (2, 3, lex_class(2))),
    (CounterNonTruthful, (2, 2, LEX3)),
    (CounterBossy, (3, 3, lex_class(2))),
    (CounterNonNeutral, (3, 3, lex_class(4), 0, 1)),
], ids=["serial_quota", "table", "round_robin", "non_truthful", "bossy", "non_neutral"])
def test_mechanism_refuses_a_domain_of_another_size(kind, args):
    # Each of these used to be accepted; the table one even passed truthful.
    m, domain = args[1], args[2]
    with pytest.raises(DomainError, match=f"has m={m} but its domain has m={domain.m}$"):
        kind(*args)


def test_every_variant_emits_disjoint_bundles_inside_universe():
    mechs = [
        serial_quota((1, 1), (0, 1), LEX3),
        RoundRobin(2, 3, LEX3),
        CounterNonTruthful(2, 2, lex_class(2)),
        CounterBossy(3, 3, LEX3),
        CounterNonNeutral(3, 3, LEX3, a=2, b=0),
    ]
    for mech in mechs:
        cls = mech.domain
        for profile in product(cls.members, repeat=mech.n):
            alloc = apply(mech, profile)
            union = 0
            for b in alloc.bundles:
                assert union & b == 0
                union |= b
            assert union & ~full_mask(mech.m) == 0


# ---------------------------------------------------------------- allocations

def test_allocation_rejects_overlap():
    with pytest.raises(InvalidPartition):
        Allocation(2, (0b01, 0b01))
    with pytest.raises(InvalidPartition):
        Allocation(2, (0b100, 0b01))  # good index out of range


def test_allocation_partition_flag_and_permute():
    alloc = Allocation(3, (0b001, 0b110))
    assert alloc.is_partition
    assert not Allocation(3, (0b001, 0b010)).is_partition
    from serialquota import Permutation

    rot = Permutation((1, 2, 0))
    assert alloc.permute(rot).bundles == (0b010, 0b101)


# ---------------------------------------------------------------- cardinal layer

def test_cardinal_apply_scaling_invariance():
    mech = serial_quota((1, 2), (0, 1), additive_class(3))
    base = cardinal_apply(mech, INTRO)
    scaled = CardinalInstance.from_values(
        (tuple(3 * v for v in INTRO.valuations[0].values), INTRO.valuations[1].values)
    )
    assert cardinal_apply(mech, scaled).bundles == base.bundles


def test_cardinal_apply_single_agent_gets_all():
    mech = serial_quota((3,), (0,), additive_class(3))
    inst = CardinalInstance.from_values(((Fraction(4), Fraction(2), Fraction(1)),))
    assert cardinal_apply(mech, inst).bundles == (full_mask(3),)


def test_cardinal_instance_rejects_ties():
    with pytest.raises(TieDetected):
        CardinalInstance.from_values(((1, 2, 3), (4, 2, 1)))


def test_cardinal_instance_rejects_ragged_rows():
    with pytest.raises(ValueError, match="one universe size"):
        CardinalInstance.from_values(((4, 2), (1,)))


# ---------------------------------------------------------------- indexing

def test_profile_index_radix_arithmetic():
    cls = LEX3
    members = cls.members
    assert profile_index((members[0], members[0]), cls) == 0
    assert profile_index((members[5], members[5]), cls) == 35
    for idx in range(36):
        profile = index_to_profile(idx, cls, 2)
        assert profile_index(profile, cls) == idx


def test_profile_index_rejects_foreign_preference():
    with pytest.raises(NotInClass):
        profile_index((Lexicographic((0, 1)),), LEX3)


def test_apply_rejects_profiles_outside_domain():
    mech = serial_quota((1, 1), (0, 1), LEX3)
    with pytest.raises(DomainError):
        apply(mech, lex_profile((0, 1), (1, 0)))

"""Axiom checkers, cross-validated against from-scratch oracles.

The vectorized kernels in engine.py are the workhorses; every checker here
is re-derived with plain Python loops on small random table mechanisms so a
bug in the index gymnastics cannot hide.
"""

import gc
import tracemalloc
from fractions import Fraction
from itertools import permutations, product

import numpy as np
import pytest

from serialquota import (
    Allocation,
    CardinalInstance,
    CounterBossy,
    CounterNonNeutral,
    CounterNonTruthful,
    Lexicographic,
    Ordering,
    PropertyReport,
    RoundRobin,
    TooLarge,
    additive_class,
    apply,
    class_from_tag,
    compare,
    index_to_profile,
    is_push_up,
    lex_class,
    mask_of,
    pareto_blocking,
    replay_witness,
    serial_quota,
    strongly_desires,
    verify_blocking,
)
from serialquota import engine
from serialquota.mechanisms import SerialQuota, TableMechanism, profile_index
from serialquota.prefs import Permutation, permute_preference
from serialquota.properties import (
    CONTROL_CLAIM,
    NEUTRAL,
    NON_BOSSY,
    PARETO,
    PARTITION,
    PUSH_UP,
    TRUTHFUL,
    check,
    check_control_claim,
    check_neutral,
    check_non_bossy,
    check_pareto_efficient,
    check_partition,
    check_push_up_invariance,
    check_truthful,
)
from serialquota.search import _choice_masks, enumerate_q

LEX2 = lex_class(2)
LEX3 = lex_class(3)
LEX4 = lex_class(4)


def _all_permutations(m):
    """Every renaming of m goods: the whole group S_m, the oracle's reach."""
    return map(Permutation, permutations(range(m)))


def random_partition_table(rng, n, m, cls):
    rows = []
    for _ in range(len(cls) ** n):
        goods = rng.integers(0, n, size=m)
        bundles = [0] * n
        for g, owner in enumerate(goods):
            bundles[owner] |= 1 << g
        rows.append(tuple(bundles))
    return TableMechanism(n, m, cls, tuple(rows))


# ------------------------------------------------------------- naive oracles

def naive_truthful(mech):
    cls = mech.domain
    for profile in product(cls.members, repeat=mech.n):
        truth = apply(mech, profile)
        for i in range(mech.n):
            for lie in cls.members:
                alt = apply(mech, (*profile[:i], lie, *profile[i + 1:]))
                if alt.bundles[i] == truth.bundles[i]:
                    continue
                if compare(profile[i], alt.bundles[i], truth.bundles[i]) is Ordering.GREATER:
                    return False
    return True


def naive_non_bossy(mech):
    cls = mech.domain
    for profile in product(cls.members, repeat=mech.n):
        base = apply(mech, profile)
        for i in range(mech.n):
            for alt in cls.members:
                out = apply(mech, (*profile[:i], alt, *profile[i + 1:]))
                if out.bundles[i] == base.bundles[i] and out.bundles != base.bundles:
                    return False
    return True


def naive_neutral(mech):
    from serialquota import permute_preference

    cls = mech.domain
    for profile in product(cls.members, repeat=mech.n):
        base = apply(mech, profile)
        for pi in _all_permutations(mech.m):
            moved = apply(mech, tuple(permute_preference(p, pi) for p in profile))
            if moved.bundles != base.permute(pi).bundles:
                return False
    return True


@pytest.mark.parametrize("seed", range(12))
def test_vectorized_checkers_agree_with_naive_oracles(seed):
    rng = np.random.default_rng(seed)
    mech = random_partition_table(rng, 2, 2, LEX2)
    assert check_truthful(mech).holds == naive_truthful(mech)
    assert check_non_bossy(mech).holds == naive_non_bossy(mech)
    assert check_neutral(mech).holds == naive_neutral(mech)


def test_checkers_agree_on_known_good_mechanisms():
    for q, p in [((1, 2), (0, 1)), ((2, 1), (1, 0)), ((1, 1), (0, 1))]:
        mech = serial_quota(q, p, LEX3)
        assert naive_truthful(mech)
        assert check_truthful(mech).holds
        assert check_non_bossy(mech).holds
        assert check_neutral(mech).holds
        assert check_partition(mech).holds == (sum(q) == 3)


# ------------------------------------------------ single-agent deviations

def table_cases(n, m, cls, rng, quotas=3, mutants=3, randoms=3):
    """Quota tables, single-cell mutants of them (any assignment, partition
    or not, written at one profile) and random partition tables."""
    choices = _choice_masks(n, m, partition_only=False)
    family = enumerate_q(n, m)
    for k in rng.choice(len(family), size=min(quotas, len(family)), replace=False):
        table = engine.allocation_table(SerialQuota(n, m, cls, family[k]))
        yield table
        for _ in range(mutants):
            mutant = table.copy()
            mutant[int(rng.integers(table.shape[0]))] = choices[
                int(rng.integers(choices.shape[0]))
            ]
            yield mutant
    for _ in range(randoms):
        yield np.array(random_partition_table(rng, n, m, cls).table, dtype=np.int32)


def scalar_deviations(table, cls, n):
    """Every (profile, agent, alt, true report, true row, deviated row) in
    (profile, agent, alt) order; profiles are enumerated by their digits,
    agent 0 most significant."""
    c = len(cls)
    rows = [tuple(r) for r in table.tolist()]
    for idx, digits in enumerate(product(range(c), repeat=n)):
        for i in range(n):
            weight = c ** (n - 1 - i)
            for d in range(c):
                jdx = idx + (d - digits[i]) * weight
                yield idx, i, d, cls.members[digits[i]], rows[idx], rows[jdx]


def scalar_deviation_witnesses(table, cls, n):
    """Lowest (profile, agent, alt) breaking truthfulness, and the lowest
    breaking non-bossiness, judged by compare; None where one holds."""
    truthful = bossy = None
    for idx, i, d, pref, base, out in scalar_deviations(table, cls, n):
        if truthful is not None and bossy is not None:
            break
        if out[i] != base[i]:
            if truthful is None and compare(pref, base[i], out[i]) is Ordering.LESS:
                truthful = (idx, i, d)
        elif out != base and bossy is None:
            bossy = (idx, i, d)
    return truthful, bossy


@pytest.mark.parametrize(
    "tag,n,m,randoms",
    [("lex", 2, 3, 6), ("lex", 3, 3, 6), ("strict_monotone_all", 2, 3, 2)],
)
def test_deviation_witnesses_match_scalar_scan(tag, n, m, randoms):
    cls = class_from_tag(tag, m)
    rng = np.random.default_rng(7 * n + m)
    verdicts = []
    for table in table_cases(n, m, cls, rng, randoms=randoms):
        truthful, bossy = scalar_deviation_witnesses(table, cls, n)
        assert engine.truthful_violation(table, cls, n) == truthful
        assert engine.nonbossy_violation(table, cls, n) == bossy
        verdicts += [truthful is None, bossy is None]
    assert any(verdicts) and not all(verdicts)


def test_allocation_table_gates_profiles_before_demand_tables():
    cls = lex_class(7)  # 5040^2 profiles at n = 2
    mech = serial_quota((1, 6), (0, 1), cls)
    with pytest.raises(TooLarge, match="5040\\^2 profiles"):
        engine.allocation_table(mech)
    assert "demands" not in cls.__dict__
    # The largest size in use, lex (4,4), stays under the cap.
    assert len(lex_class(4)) ** 4 <= engine.PROFILE_CAP


@pytest.mark.parametrize(
    "tag,n,m",
    [("lex", 1, 4), ("lex", 2, 3), ("lex", 3, 3), ("lex", 2, 4), ("strict_monotone_all", 2, 3)],
)
def test_grid_allocation_table_matches_apply(tag, n, m):
    """The serial-quota table built on the pickers' sub-grids equals the
    scalar apply path at every profile, for every quota ordering."""
    cls = class_from_tag(tag, m)
    for qo in enumerate_q(n, m):
        mech = SerialQuota(n, m, cls, qo)
        table = engine.allocation_table(mech)
        assert table.dtype == np.int32 and table.shape == (len(cls) ** n, n)
        expected = [
            list(apply(mech, index_to_profile(idx, cls, n)).bundles)
            for idx in range(len(cls) ** n)
        ]
        assert table.tolist() == expected, qo


def test_deviation_index_lists_one_agents_reports():
    for c, n in [(2, 3), (3, 3), (6, 2), (4, 1), (2, 4), (3, 4)]:
        digits = np.array(list(product(range(c), repeat=n)))
        for agent in range(n):
            idx = engine.deviation_index(c, n, agent)
            assert idx.shape == (c ** (n - 1), c)
            assert sorted(idx.ravel().tolist()) == list(range(c**n))
            # With `at`, the one row holding that profile.
            for at in range(c**n):
                row = engine.deviation_index(c, n, agent, at=at)
                assert row.tolist() == idx[(idx == at).any(axis=1)].tolist()
            others = np.delete(digits, agent, axis=1)
            for r in range(idx.shape[0]):
                assert (digits[idx[r], agent] == np.arange(c)).all()
                assert (others[idx[r]] == others[idx[r, 0]]).all()
            # Rows follow the other agents' digits in mixed-radix order.
            first = others[idx[:, 0]]
            assert first.tolist() == sorted(first.tolist())


def test_lowest_deviation_is_the_lowest_profile_not_the_first_row():
    """Rows of a deviation block do not list profiles in ascending order
    (agent 0's rows step through the last agent's digit), so the lowest hit
    is found by profile, then by deviation."""
    rng = np.random.default_rng(8)
    for _ in range(300):
        rows, c = (int(x) for x in rng.integers(1, 6, size=2))
        idx = rng.permutation(rows * c).reshape(rows, c)
        viol = rng.random((rows, c, c)) < 0.1
        expected = min(
            ((int(idx[r, t]), 3, int(d)) for r, t, d in zip(*np.nonzero(viol))),
            default=None,
        )
        assert engine._lowest_deviation(viol, idx, c, 3) == expected


BLOCKED_KERNELS = (
    engine.truthful_violation,
    engine.nonbossy_violation,
    engine.push_up_violation,
    engine.control_violation,
)


def test_blocked_scans_give_the_same_witness(monkeypatch):
    """One deviation row (or one slab of a control sub-grid) per block finds
    the witness that one block finds, including witnesses that lie past the
    first block."""
    late = engine.allocation_table(serial_quota((1, 2), (0, 1), LEX3)).copy()
    late[-1] = (1, 2)  # only the last profile changes
    cases = [(2, 3, [late]), (3, 3, [])]
    for n, m, extra in cases:
        cls = lex_class(m)
        c = len(cls)
        rng = np.random.default_rng(4 * n + m)
        for table in [*table_cases(n, m, cls, rng), *extra]:
            for kernel in BLOCKED_KERNELS:
                whole = kernel(table, cls, n)
                for cells in (1, c * c + 1, 3 * c * c):
                    with monkeypatch.context() as patch:
                        patch.setattr(engine, "CELLS", cells)
                        assert kernel(table, cls, n) == whole, kernel.__name__
    c = len(LEX3)
    for kernel in BLOCKED_KERNELS[:3]:
        idx, agent, _ = kernel(late, LEX3, 2)
        rows = engine.deviation_index(c, 2, agent)
        assert not (rows[0] == idx).any(), kernel.__name__
    # Agent 0's violation scan starts at the first member desiring S.
    s, agent, _, viol = engine.control_violation(late, LEX3, 2)
    first = np.flatnonzero(engine.strong_desire_matrix(LEX3)[:, s])[0]
    assert agent == 0 and viol // c > first  # agent 0's digit at n = 2


def test_blocked_scans_stay_within_their_cells(monkeypatch):
    """At lex (2,5) the traced peak of each blocked scan stays within 16
    bytes per entry of engine.CELLS, while a whole scan's (c, c, c) rank
    gather alone is about 6.9 MB."""
    n, m = 2, 5
    cls = lex_class(m)
    c = len(cls)
    cells = 4 * c * c  # four deviation rows per block
    rng = np.random.default_rng(2)
    # A random partition table, and one that may leave goods unallocated, so
    # that the non-bossy comparison runs too.
    partition, leftovers = [
        rows[rng.integers(rows.shape[0], size=c**n)]
        for rows in (_choice_masks(n, m, partition_only=True), engine.assignment_masks(n, m))
    ]
    monkeypatch.setattr(engine, "CELLS", cells)
    for table in (partition, leftovers):
        for kernel in BLOCKED_KERNELS:
            kernel(table, cls, n)  # fill the engine's caches
            tracemalloc.start()
            try:
                kernel(table, cls, n)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 16 * cells, (kernel.__name__, peak)
    assert engine.nonbossy_violation(leftovers, cls, n) is not None


def test_checks_leave_no_profile_sized_state():
    """Checks at lex (2,5), 120^2 profiles, retain nothing of that size once
    the caches keyed by class or by (n, m) are warm: profile indices are
    computed inside each call and freed with it."""
    cls = lex_class(5)
    checks = (check_truthful, check_non_bossy, check_neutral, check_pareto_efficient)
    for check in checks:  # one agent: warms the class caches, not the (c, 2) ones
        check(serial_quota((5,), (0,), cls))
    engine.assignment_masks(2, 5)
    mech = serial_quota((2, 3), (1, 0), cls)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for check in checks:
            assert check(mech).holds
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 64 * 1024, grown


# ------------------------------------------------------ counterexample matrix

def test_counter_non_truthful_fails_exactly_truthfulness():
    mech = CounterNonTruthful(2, 2, LEX2)
    assert not check_truthful(mech).holds
    assert check_non_bossy(mech).holds
    assert check_neutral(mech).holds


def test_counter_bossy_fails_exactly_non_bossiness():
    mech = CounterBossy(3, 3, LEX3)
    assert check_truthful(mech).holds
    assert not check_non_bossy(mech).holds
    assert check_neutral(mech).holds


def test_counter_non_neutral_fails_exactly_neutrality():
    mech = CounterNonNeutral(3, 3, LEX3, a=0, b=1)
    assert check_truthful(mech).holds
    assert check_non_bossy(mech).holds
    report = check_neutral(mech)
    assert not report.holds
    # The witness names the generator (0 1), the first one that breaks.
    assert report.witness == {"profile_index": 0, "perm": [1, 0, 2]}


# ------------------------------------------------------------ neutrality

def member_action(cls, pi):
    """action[i] = index of member i's image under any renaming pi."""
    return [cls.index_of(permute_preference(p, pi)) for p in cls.members]


def full_group_neutral(table, cls, n):
    """Covariance under every one of the m! permutations, scanned directly."""
    c = len(cls)
    digits = np.array(list(product(range(c), repeat=n)))
    powers = c ** np.arange(n - 1, -1, -1)
    for pi in _all_permutations(cls.m):
        image = np.asarray(member_action(cls, pi))[digits] @ powers
        moved = np.array([pi.apply_mask(s) for s in range(1 << cls.m)])[table]
        if (table[image] != moved).any():
            return False
    return True


def relabel_orbit(table, cls, n, idx, row, perms):
    """Copy of table with pi(row) written at pi's image of profile idx."""
    out = table.copy()
    profile = index_to_profile(idx, cls, n)
    for pi in perms:
        image = profile_index(tuple(permute_preference(p, pi) for p in profile), cls)
        out[image] = [pi.apply_mask(int(b)) for b in row]
    return out


@pytest.mark.parametrize(
    "n,m,mutants", [(2, 3, 8), (3, 3, 8), (2, 4, 6), (3, 4, 6), (2, 5, 2)]
)
def test_generator_neutrality_matches_full_group(n, m, mutants):
    """Two generators decide neutrality exactly as all m! permutations do.

    Cases: quota tables, single-cell mutants, mutants relabelled over a
    whole orbit (neutral) and over the orbit under the permutations fixing
    the last good only (covariant under the swap (0 1), so only the cycle
    can expose them).
    """
    cls = lex_class(m)
    rng = np.random.default_rng(100 * n + m)
    choices = _choice_masks(n, m, partition_only=False)
    group = list(_all_permutations(m))
    fixing_last = [pi for pi in group if pi.map[-1] == m - 1]
    family = enumerate_q(n, m)
    verdicts = []
    for k in rng.choice(len(family), size=3, replace=False):
        table = engine.allocation_table(SerialQuota(n, m, cls, family[k]))
        cases = [table]
        for _ in range(mutants):
            idx = int(rng.integers(table.shape[0]))
            row = choices[int(rng.integers(choices.shape[0]))]
            single = table.copy()
            single[idx] = row
            cases.append(single)
            cases.append(relabel_orbit(table, cls, n, idx, row, group))
            cases.append(relabel_orbit(table, cls, n, idx, row, fixing_last))
        for case in cases:
            fast = engine.neutrality_violation(case, cls, n) is None
            assert fast == full_group_neutral(case, cls, n)
            verdicts.append(fast)
    assert any(verdicts) and not all(verdicts)


def test_neutrality_perms_are_the_two_generators():
    assert engine.neutrality_perms(0) == []
    assert engine.neutrality_perms(1) == []
    assert [pi.map for pi in engine.neutrality_perms(2)] == [(1, 0)]
    for m in (3, 5, 8):
        swap, cycle = engine.neutrality_perms(m)
        assert swap.map == (1, 0) + tuple(range(2, m))
        assert cycle.map == tuple(range(1, m)) + (0,)


def test_counterexamples_all_break_the_control_claim():
    for mech in (
        CounterNonTruthful(2, 2, LEX2),
        CounterBossy(3, 3, LEX3),
        CounterNonNeutral(3, 3, LEX3, a=0, b=1),
    ):
        report = check_control_claim(mech)
        assert not report.holds
        assert replay_witness(mech, report)


def test_witnesses_replay_through_pure_python():
    mech = CounterNonTruthful(2, 2, LEX2)
    report = check_truthful(mech)
    assert replay_witness(mech, report)
    bossy = CounterBossy(3, 3, LEX3)
    assert replay_witness(bossy, check_non_bossy(bossy))
    nn = CounterNonNeutral(3, 3, LEX3, a=0, b=1)
    assert replay_witness(nn, check_neutral(nn))


def test_replay_rejects_passing_reports():
    mech = serial_quota((1, 1), (0, 1), LEX2)
    with pytest.raises(ValueError):
        replay_witness(mech, check_truthful(mech))


def test_replay_rejects_false_witnesses():
    """A real partition witness replays; witnesses tampered so that they no
    longer show their violation replay False; an unknown property raises."""
    sq = serial_quota((1, 1), (0, 1), LEX2)
    wasteful = TableMechanism(2, 2, LEX2, ((0, 0),) * len(LEX2) ** 2)
    partition = check_partition(wasteful)
    assert not partition.holds
    assert replay_witness(wasteful, partition)
    assert not replay_witness(sq, partition)  # sq allocates every good there

    def tampered(report, **changes):
        return PropertyReport(
            report.property, False, {**report.witness, **changes}, report.profiles_checked
        )

    cnt = CounterNonTruthful(2, 2, LEX2)
    truthful = check_truthful(cnt)
    profile = index_to_profile(truthful.witness["profile_index"], LEX2, 2)
    own = LEX2.members.index(profile[truthful.witness["agent"]])
    assert replay_witness(cnt, truthful)
    assert not replay_witness(cnt, tampered(truthful, alt_index=own))

    # Under sq at (A, A) agent 0 gets good 0; B ranks {1} above {0}, so
    # reporting B instead is not a push-up with respect to that bundle.
    a, b = LEX2.members
    assert apply(sq, (a, a)).bundles[0] == 0b01 and not is_push_up(b, a, 0b01)
    push = PropertyReport(PUSH_UP, False, {
        "profile_index": profile_index((a, a), LEX2),
        "push_profile_index": profile_index((b, a), LEX2),
    }, 1)
    assert not replay_witness(sq, push)

    control = check_control_claim(cnt)
    assert replay_witness(cnt, control)
    s, agent = control.witness["s"], control.witness["agent"]
    profiles = [index_to_profile(idx, LEX2, 2) for idx in range(len(LEX2) ** 2)]
    undesired = next(
        idx for idx, prof in enumerate(profiles)
        if not all(strongly_desires(p, s) for p in prof)
    )
    assert not replay_witness(cnt, tampered(control, trigger_profile_index=undesired))
    # At the trigger the witness agent holds S, so no other agent does.
    assert not replay_witness(cnt, tampered(control, agent=1 - agent))
    indifferent = next(
        idx for idx, prof in enumerate(profiles) if not strongly_desires(prof[agent], s)
    )
    assert not replay_witness(cnt, tampered(control, violating_profile_index=indifferent))

    with pytest.raises(ValueError, match="unknown property"):
        replay_witness(sq, PropertyReport("anonymity", False, {"profile_index": 0}, 1))


# ------------------------------------------------------------ round robin

def test_round_robin_is_manipulable_with_four_goods():
    """With picks 0,1,0,1 a patient second picker can gain by lying."""
    mech = RoundRobin(2, 4, LEX4)
    report = check_truthful(mech)
    assert not report.holds
    assert replay_witness(mech, report)


def test_round_robin_two_goods_is_serial_quota():
    mech = RoundRobin(2, 2, LEX2)
    sq = serial_quota((1, 1), (0, 1), LEX2)
    for profile in product(LEX2.members, repeat=2):
        assert apply(mech, profile).bundles == apply(sq, profile).bundles


# ------------------------------------------------------------ pareto

def test_serial_quota_partitions_are_pareto_efficient():
    for q, p in [((1, 2), (0, 1)), ((3, 0), (0, 1)), ((1, 1, 1), (2, 0, 1))]:
        mech = serial_quota(q, p, LEX3)
        assert check_pareto_efficient(mech).holds


def test_wasteful_mechanism_is_not_pareto_efficient():
    rows = tuple((0, 0) for _ in range(len(LEX2) ** 2))
    mech = TableMechanism(2, 2, LEX2, rows)
    report = check_pareto_efficient(mech)
    assert not report.holds
    assert replay_witness(mech, report)


def first_scalar_blocker(mech):
    """(profile index, blocker) of the first profile that pareto_blocking
    finds dominated, scanning profiles in index order through apply."""
    for idx in range(len(mech.domain) ** mech.n):
        profile = index_to_profile(idx, mech.domain, mech.n)
        blocker = pareto_blocking(apply(mech, profile), profile)
        if blocker is not None:
            return idx, blocker
    return None


def pareto_cases(n, m, rng):
    """Quota tables plus mutants: random assignments at one profile, and
    rows taken from another partition quota at the same profile."""
    cls = lex_class(m)
    choices = _choice_masks(n, m, partition_only=False)
    family = enumerate_q(n, m)
    partitions = enumerate_q(n, m, partition_only=True)
    picks = sorted(set(rng.choice(len(family), size=min(4, len(family)), replace=False)))
    for k in picks:
        table = engine.allocation_table(SerialQuota(n, m, cls, family[k]))
        yield table
        for _ in range(3):
            idx = int(rng.integers(table.shape[0]))
            mutant = table.copy()
            mutant[idx] = choices[int(rng.integers(choices.shape[0]))]
            yield mutant
            other = partitions[int(rng.integers(len(partitions)))]
            swapped = table.copy()
            swapped[idx] = engine.allocation_table(SerialQuota(n, m, cls, other))[idx]
            yield swapped


@pytest.mark.parametrize("n,m", [(2, 2), (2, 3), (3, 3), (4, 2)])
def test_pareto_witness_matches_scalar_scan(n, m):
    rng = np.random.default_rng(10 * n + m)
    verdicts = []
    for table in pareto_cases(n, m, rng):
        mech = TableMechanism(n, m, lex_class(m), tuple(map(tuple, table.tolist())))
        report = check_pareto_efficient(mech)
        expected = first_scalar_blocker(mech)
        if expected is None:
            assert report.holds and report.witness is None
        else:
            idx, blocker = expected
            assert report.witness == {
                "profile_index": idx,
                "blocking_bundles": list(blocker),
            }
        verdicts.append(report.holds)
    assert any(verdicts) and not all(verdicts)


def test_pareto_blocks_give_the_same_witness(monkeypatch):
    """Blocks of a few profiles find the witness that one block finds,
    including one that lies past the first block boundary."""
    n, m = 2, 3
    cls = LEX3
    rng = np.random.default_rng(5)
    tables = list(pareto_cases(n, m, rng))
    late = engine.allocation_table(serial_quota((1, 2), (0, 1), cls)).copy()
    late[-1] = (0, 0)
    tables.append(late)
    assignments = (n + 1) ** m
    for table in tables:
        whole = engine.pareto_violation(table, cls, n)
        for rows in (1, 5):
            with monkeypatch.context() as patch:
                patch.setattr(engine, "CELLS", rows * assignments)
                assert engine.pareto_violation(table, cls, n) == whole
    monkeypatch.setattr(engine, "CELLS", 5 * assignments)
    assert engine.pareto_violation(late, cls, n)[0] == len(late) - 1


def test_intro_instance_blocked_by_bundle_swap():
    vals = ((Fraction(11), Fraction(1001, 100), Fraction(10)),
            (Fraction(10), Fraction(101, 100), Fraction(1)))
    inst = CardinalInstance.from_values(vals)
    from serialquota import cardinal_apply

    alloc = cardinal_apply(serial_quota((1, 2), (0, 1), additive_class(3)), inst)
    blockers = pareto_blocking(alloc, inst.valuations)
    assert blockers == (mask_of([1, 2]), mask_of([0]))
    assert verify_blocking(alloc, inst.valuations, blockers)


def test_verify_blocking_rejects_non_improvements():
    profile = (Lexicographic((0, 1)), Lexicographic((0, 1)))
    alloc = Allocation(2, (0b01, 0b10))
    assert not verify_blocking(alloc, profile, (0b01, 0b10))
    assert not verify_blocking(alloc, profile, (0b10, 0b01))  # first agent worse off


def test_pareto_blocking_cap():
    # 9^8 candidate assignments exceed the 10^7 scan cap
    profile = tuple(Lexicographic(tuple(range(8))) for _ in range(8))
    alloc = Allocation(8, tuple(1 << g for g in range(8)))
    with pytest.raises(TooLarge):
        pareto_blocking(alloc, profile)


def test_pareto_check_gates_the_assignment_table():
    # One good and 4000 agents: a single profile, but 4001 assignments of
    # 4000 bundles each, over the cap; the gate fires before the assignment
    # table, or the allocation table, is built.
    mech = serial_quota((1,) + (0,) * 3999, tuple(range(4000)), lex_class(1))
    with pytest.raises(TooLarge, match="assignment entries"):
        check_pareto_efficient(mech)


# ------------------------------------------------------------ control claim

def test_serial_quota_satisfies_control_claim():
    for q, p in [((1, 2), (0, 1)), ((2, 1), (1, 0))]:
        assert check_control_claim(serial_quota(q, p, LEX3)).holds


def scalar_control_witness(table, cls, n):
    """Lowest (S, agent, trigger, violation) breaking the control claim, by
    strongly_desires and the table rows: a trigger is a profile where every
    agent strongly desires S and the agent gets all of S, a violation one
    where she strongly desires S and does not."""
    rows = [tuple(r) for r in table.tolist()]
    profiles = list(product(cls.members, repeat=n))
    for s in range(1, 1 << cls.m):
        for i in range(n):
            trig = next(
                (
                    idx
                    for idx, profile in enumerate(profiles)
                    if all(strongly_desires(p, s) for p in profile)
                    and rows[idx][i] & s == s
                ),
                None,
            )
            if trig is None:
                continue
            for idx, profile in enumerate(profiles):
                if strongly_desires(profile[i], s) and rows[idx][i] & s != s:
                    return s, i, trig, idx
    return None


@pytest.mark.parametrize("n,m", [(2, 3), (3, 3)])
def test_control_witness_matches_scalar_scan(n, m):
    cls = lex_class(m)
    rng = np.random.default_rng(6 * n + m)
    verdicts = []
    for table in table_cases(n, m, cls, rng):
        expected = scalar_control_witness(table, cls, n)
        assert engine.control_violation(table, cls, n) == expected
        verdicts.append(expected is None)
    assert any(verdicts) and not all(verdicts)


def test_first_picker_controls_her_demand_sized_prefixes():
    """An agent controls S when she receives all of S at every profile where
    she strongly desires it."""
    mech = serial_quota((2, 1), (0, 1), LEX3)

    def controls(agent, s):
        return all(
            apply(mech, profile).bundles[agent] & s == s
            for profile in product(LEX3.members, repeat=2)
            if strongly_desires(profile[agent], s)
        )

    assert controls(0, mask_of([0, 1]))
    assert controls(0, mask_of([1, 2]))
    # the second picker cannot guarantee a two-good set
    assert not controls(1, mask_of([0, 1]))


# ------------------------------------------------------------ push-up

def test_push_up_invariance_for_serial_quota():
    mech = serial_quota((1, 2), (0, 1), LEX3)
    assert check_push_up_invariance(mech, trials=100, rng_seed=3).holds
    report = check(mech, [PUSH_UP])[0]
    assert report.holds and report.witness is None
    assert report.profiles_checked == len(LEX3) ** 2


def test_sampled_push_up_at_a_single_profile_with_many_agents():
    # One member, one profile: 100 agents index it without a 100-axis grid.
    mech = serial_quota((1,) + (0,) * 99, tuple(range(100)), lex_class(1))
    report = check_push_up_invariance(mech, trials=20, rng_seed=1)
    assert report.holds and report.profiles_checked == 20


@pytest.mark.parametrize("trials", [0, -5])
def test_sampled_push_up_rejects_non_positive_trials(trials):
    with pytest.raises(ValueError, match="trials"):
        check_push_up_invariance(serial_quota((1, 2), (0, 1), LEX3), trials=trials)


@pytest.mark.parametrize("tag,m", [("lex", 2), ("lex", 3), ("lex", 4), ("strict_monotone_all", 3)])
def test_push_up_matrix_matches_is_push_up(tag, m):
    cls = class_from_tag(tag, m)
    up = engine.push_up_matrix(cls)
    assert up.shape == (len(cls), 1 << m, len(cls)) and not up.flags.writeable
    for t, base in enumerate(cls.members):
        for s in range(1 << m):
            expected = [is_push_up(cand, base, s) for cand in cls.members]
            assert up[t, s].tolist() == expected


def scalar_push_up_witness(table, cls, n):
    """Lowest (profile, agent, alt) where alt is a push-up of the agent's
    report with respect to her bundle, by is_push_up, and the row moves."""
    for idx, i, d, pref, base, out in scalar_deviations(table, cls, n):
        if out != base and is_push_up(cls.members[d], pref, base[i]):
            return idx, i, d
    return None


def multi_agent_push_up_holds(table, cls, n):
    """Whether no profile's allocation moves when any set of agents push
    their reports up at once (an agent not pushed keeps her report, which
    is_push_up counts as a push-up of itself)."""
    rows = [tuple(r) for r in table.tolist()]
    for idx in range(len(rows)):
        profile = index_to_profile(idx, cls, n)
        options = [
            [q for q in cls.members if is_push_up(q, p, rows[idx][j])]
            for j, p in enumerate(profile)
        ]
        for pushed in product(*options):
            if rows[profile_index(pushed, cls)] != rows[idx]:
                return False
    return True


@pytest.mark.parametrize("n,m", [(2, 2), (2, 3), (3, 2)])
def test_push_up_kernel_matches_scalar_oracles(n, m):
    cls = lex_class(m)
    rng = np.random.default_rng(3 * n + m)
    verdicts = []
    for table in table_cases(n, m, cls, rng, quotas=4, mutants=4, randoms=4):
        expected = scalar_push_up_witness(table, cls, n)
        assert engine.push_up_violation(table, cls, n) == expected
        assert multi_agent_push_up_holds(table, cls, n) == (expected is None)
        mech = TableMechanism(n, m, cls, tuple(map(tuple, table.tolist())))
        report = check(mech, [PUSH_UP])[0]
        assert report.holds == (expected is None)
        if expected is not None:
            idx, agent, alt = expected
            pushed = list(index_to_profile(idx, cls, n))
            pushed[agent] = cls.members[alt]
            push = profile_index(tuple(pushed), cls)
            assert report.witness == {"profile_index": idx, "push_profile_index": push}
            assert replay_witness(mech, report)
        verdicts.append(report.holds)
    assert any(verdicts) and not all(verdicts)


def test_push_up_moves_allocation_for_manipulable_mechanism():
    mech = CounterNonTruthful(2, 2, LEX2)
    report = check_push_up_invariance(mech, trials=200, rng_seed=5)
    assert not report.holds
    assert set(report.witness) == {"profile_index", "push_profile_index"}
    assert replay_witness(mech, report)


def test_sampled_push_up_failures_are_exhaustive_failures_and_replay():
    """Wherever the sampled check finds a moved allocation the exhaustive
    check finds one too, and every sampled witness replays."""
    n, m = 2, 3
    rng = np.random.default_rng(11)
    failures = 0
    for table in table_cases(n, m, LEX3, rng):
        mech = TableMechanism(n, m, LEX3, tuple(map(tuple, table.tolist())))
        exhaustive = check(mech, [PUSH_UP])[0]
        for seed in range(5):
            report = check_push_up_invariance(mech, trials=50, rng_seed=seed)
            if report.holds:
                assert report.profiles_checked == 50 and report.witness is None
                continue
            assert 1 <= report.profiles_checked <= 50
            assert not exhaustive.holds
            assert replay_witness(mech, report)
            failures += 1
    assert failures


# ------------------------------------------------------------ consecutiveness

def test_identical_profiles_give_consecutive_allocations():
    """Under identical lexicographic reports each picker takes the next run
    of the common order, so any leftover goods form its last run."""
    for qo in enumerate_q(2, 3):
        mech = SerialQuota(2, 3, LEX3, qo)
        for pref in LEX3.members:
            alloc = apply(mech, (pref, pref))
            start = 0
            for agent, k in zip(qo.p, qo.q):
                assert alloc.bundles[agent] == mask_of(pref.order[start : start + k])
                start += k


# ------------------------------------------------------------ report plumbing

def test_reports_expose_counts_and_clean_witnesses():
    mech = serial_quota((1, 1), (0, 1), LEX2)
    report = check_truthful(mech)
    assert isinstance(report, PropertyReport)
    assert report.holds and report.witness is None
    assert report.profiles_checked == len(LEX2) ** 2


SINGLE_CHECKS = {
    TRUTHFUL: check_truthful,
    NON_BOSSY: check_non_bossy,
    NEUTRAL: check_neutral,
    PARTITION: check_partition,
    PARETO: check_pareto_efficient,
    CONTROL_CLAIM: check_control_claim,
}


@pytest.mark.parametrize("mech", [
    CounterNonTruthful(2, 2, LEX2),
    CounterBossy(3, 3, LEX3),
    CounterNonNeutral(3, 3, LEX3, a=0, b=1),
    serial_quota((1, 2, 1), (0, 1, 2), LEX4),
], ids=["non-truthful", "bossy", "non-neutral", "sq34"])
def test_check_matches_single_property_calls_on_one_table(mech, monkeypatch):
    singles = [fn(mech) for fn in SINGLE_CHECKS.values()]
    built = []
    table = engine.allocation_table

    def counted(m):
        built.append(m)
        return table(m)

    monkeypatch.setattr(engine, "allocation_table", counted)
    assert check(mech, list(SINGLE_CHECKS)) == singles
    assert built == [mech]


@pytest.mark.parametrize("mech,props,error,match", [
    # 5040 lex members: 5040 profiles for one agent, 5040^2 push-up pairs.
    (serial_quota((7,), (0,), lex_class(7)), [PUSH_UP], TooLarge, "push-up member pairs"),
    (serial_quota((1,) + (0,) * 3999, tuple(range(4000)), lex_class(1)), [TRUTHFUL, PARETO],
     TooLarge, "assignment entries"),
    (serial_quota((1, 2), (0, 1), LEX3), [TRUTHFUL, "anonymity"], ValueError,
     r"unknown properties \['anonymity'\]; choose from \['control_claim', "),
], ids=["push-up", "pareto", "unknown"])
def test_check_refuses_before_building_the_allocation_table(mech, props, error, match, monkeypatch):
    def refuse(mech):
        raise AssertionError("allocation table built before a refusal")

    monkeypatch.setattr(engine, "allocation_table", refuse)
    with pytest.raises(error, match=match):
        check(mech, props)


def test_truthful_witness_indices_decode():
    mech = CounterNonTruthful(2, 2, LEX2)
    report = check_truthful(mech)
    w = report.witness
    profile = index_to_profile(w["profile_index"], LEX2, 2)
    lie = LEX2.members[w["alt_index"]]
    truth = apply(mech, profile)
    bent = apply(mech, (*profile[: w["agent"]], lie, *profile[w["agent"] + 1:]))
    agent = w["agent"]
    assert compare(profile[agent], bent.bundles[agent], truth.bundles[agent]) is Ordering.GREATER

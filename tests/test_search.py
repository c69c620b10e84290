"""Characterization machinery: the canonical quota family, recognition,
exhaustive table enumeration at (2,2), and mutation falsification.

Frozen family sizes were derived by hand from the counting identity
|Q(n,m)| = sum over k of m!/(m-k)! restricted compositions; the partition
column is the compositions of m into at most n positive parts times the
arrangements of their owners.
"""

import pytest

from serialquota import (
    CounterNonTruthful,
    QuotaOrdering,
    TooLarge,
    enumerate_q,
    lex_class,
    recognize_serial_quota,
    serial_quota,
    strict_monotone_class,
    verify_characterization,
)
from serialquota.mechanisms import SerialQuota, TableMechanism, apply
from serialquota.search import (
    VERDICT_COUNTEREXAMPLE,
    VERDICT_EQUAL,
    mutate_with_log,
)

FAMILY_SIZES = {
    # (n, m): (all pairs, partition pairs)
    (2, 2): (7, 4),
    (2, 3): (13, 6),
    (2, 4): (21, 8),
    (3, 3): (34, 21),
    (3, 4): (73, 39),
}


@pytest.mark.parametrize("nm,expected", sorted(FAMILY_SIZES.items()))
def test_quota_family_sizes(nm, expected):
    n, m = nm
    assert len(enumerate_q(n, m)) == expected[0]
    assert len(enumerate_q(n, m, partition_only=True)) == expected[1]


def test_enumerate_q_two_by_two_partition_listing():
    pairs = [(qo.q, qo.p) for qo in enumerate_q(2, 2, partition_only=True)]
    assert pairs == [
        ((1, 1), (0, 1)),
        ((1, 1), (1, 0)),
        ((2, 0), (0, 1)),
        ((2, 0), (1, 0)),
    ]


def test_enumerate_q_entries_are_canonical_and_unique():
    for n, m in FAMILY_SIZES:
        family = enumerate_q(n, m)
        assert len(set(family)) == len(family)
        for qo in family:
            assert QuotaOrdering(qo.q, qo.p) == qo  # canonical by construction
            assert sum(qo.q) <= m


def test_recognition_round_trips_every_canonical_pair():
    cls = lex_class(3)
    for qo in enumerate_q(2, 3):
        mech = SerialQuota(2, 3, cls, qo)
        assert recognize_serial_quota(mech) == qo


def test_recognition_canonicalizes_raw_input():
    mech = serial_quota((0, 2), (0, 1), lex_class(3))
    assert recognize_serial_quota(mech) == QuotaOrdering((2, 0), (1, 0))


def test_recognition_rejects_non_quota_mechanisms():
    assert recognize_serial_quota(CounterNonTruthful(2, 2, lex_class(2))) is None


def test_table_disguise_is_still_recognized():
    cls = lex_class(2)
    sq = serial_quota((1, 1), (1, 0), cls)
    from itertools import product

    rows = tuple(
        apply(sq, profile).bundles for profile in product(cls.members, repeat=2)
    )
    disguised = TableMechanism(2, 2, cls, rows)
    assert recognize_serial_quota(disguised) == QuotaOrdering((1, 1), (1, 0))


def test_characterization_at_two_by_two_partition():
    for cls in (lex_class(2), strict_monotone_class(2)):
        report = verify_characterization(2, 2, cls, partition_only=True)
        assert report.verdict == VERDICT_EQUAL
        assert len(report.satisfying) == 4
        assert set(report.recognized) == set(enumerate_q(2, 2, partition_only=True))
        assert report.counterexample is None
        assert report.tables_enumerated == 4**4


def test_characterization_with_unallocated_goods():
    report = verify_characterization(2, 2, lex_class(2), partition_only=False)
    assert report.verdict == VERDICT_EQUAL
    assert len(report.satisfying) == 7
    assert set(report.recognized) == set(enumerate_q(2, 2))
    assert report.tables_enumerated == 9**4  # 3^2 choices with a "nobody" option


def test_characterization_cap():
    with pytest.raises(TooLarge):
        verify_characterization(2, 3, lex_class(3))


def test_mutants_always_break_an_axiom():
    report, _ = mutate_with_log(QuotaOrdering((1, 2), (0, 1)), lex_class(3), 300, seed=3)
    assert report.holds
    assert report.profiles_checked == 300
    assert report.witness is None


def test_mutation_log_replays_by_hand():
    """Rebuild each logged mutant and confirm the logged axiom fails with the
    witness its property checker reports."""
    from serialquota import (
        check_neutral,
        check_non_bossy,
        check_truthful,
    )

    cls = lex_class(3)
    base = QuotaOrdering((2, 1), (1, 0))
    report, log = mutate_with_log(base, cls, 25, seed=11, log_size=25)
    assert report.holds and len(log) == 25
    sq = serial_quota(base.q, base.p, cls)
    from itertools import product

    rows = [
        apply(sq, profile).bundles for profile in product(cls.members, repeat=2)
    ]
    checkers = {
        "truthful": check_truthful,
        "non_bossy": check_non_bossy,
        "neutral": check_neutral,
    }
    for entry in log:
        mutated = list(rows)
        mutated[entry["profile_index"]] = tuple(entry["replacement"])
        mutant = TableMechanism(2, 3, cls, tuple(mutated))
        assert mutated[entry["profile_index"]] != rows[entry["profile_index"]]
        check = checkers[entry["failed_axiom"]](mutant)
        assert not check.holds
        assert entry["axiom_witness"] == check.witness


def test_mutation_requires_partition_base():
    with pytest.raises(ValueError):
        mutate_with_log(QuotaOrdering((1, 1), (0, 1)), lex_class(3), 10)


@pytest.mark.parametrize("trials", [0, -5])
def test_mutation_rejects_non_positive_trials(trials):
    with pytest.raises(ValueError, match="trials"):
        mutate_with_log(QuotaOrdering((1, 2), (0, 1)), lex_class(3), trials)


def test_mutation_deterministic_per_seed():
    base = QuotaOrdering((1, 2), (0, 1))
    _, log_a = mutate_with_log(base, lex_class(3), 40, seed=9, log_size=40)
    _, log_b = mutate_with_log(base, lex_class(3), 40, seed=9, log_size=40)
    assert log_a == log_b


def test_verdict_constants():
    assert VERDICT_EQUAL == "sets-equal"
    assert VERDICT_COUNTEREXAMPLE == "counterexample-found"

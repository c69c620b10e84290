"""Characterization machinery: the canonical quota family, recognition,
the exhaustive profile search against a brute-force product oracle, and
mutation falsification.

Frozen family sizes were derived by hand from the counting identity
|Q(n,m)| = sum over k of m!/(m-k)! restricted compositions; the partition
column is the compositions of m into at most n positive parts times the
arrangements of their owners.
"""

from itertools import product

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
from serialquota import search
from serialquota.engine import neutrality_perms
from serialquota.mechanisms import SerialQuota, TableMechanism, apply
from serialquota.prefs import class_from_tag
from serialquota.properties import first_axiom_violation
from serialquota.search import (
    VERDICT_COUNTEREXAMPLE,
    VERDICT_EQUAL,
    _choice_masks,
    mutate_with_log,
    search_tables,
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


def test_characterization_cap(monkeypatch):
    report = verify_characterization(2, 3, lex_class(3))
    assert report.verdict == VERDICT_EQUAL
    assert len(report.satisfying) == 6

    # 48^3 = 110,592 profiles are refused before the search runs.
    def no_search(*args):
        raise AssertionError("the search ran")

    monkeypatch.setattr(search, "search_tables", no_search)
    with pytest.raises(TooLarge, match="48\\^3 profiles exceed .* cap"):
        verify_characterization(3, 3, strict_monotone_class(3))
    # 5040 profiles, but 5040 * (128 + 128) rank masks at (1,7) allocation.
    with pytest.raises(TooLarge, match="rank masks exceed .* cap"):
        verify_characterization(1, 7, lex_class(7), partition_only=False)
    monkeypatch.undo()
    with pytest.raises(TooLarge, match="node cap"):
        verify_characterization(3, 3, lex_class(3), partition_only=False)


# (n, m, tag, partition_only, survivors, nodes): sizes the product loop's
# 10^7-table cap refused.
SEARCH_VERDICTS = [
    (2, 3, "lex", True, 6, 388),
    (2, 3, "lex", False, 13, 2698),
    (3, 3, "lex", True, 21, 67742),
    (2, 4, "lex", True, 8, 34546),
    (2, 3, "strict_monotone_all", True, 6, 33331),
]


@pytest.mark.parametrize("n,m,tag,partition_only,survivors,nodes", SEARCH_VERDICTS)
def test_search_verdicts_past_the_product_cap(n, m, tag, partition_only, survivors, nodes):
    report = verify_characterization(n, m, class_from_tag(tag, m), partition_only)
    assert report.verdict == VERDICT_EQUAL
    assert len(report.satisfying) == len(report.family) == survivors
    assert report.nodes == nodes
    assert report.prunes > 0


def _oracle_sizes(limit=10**4):
    """Every (n <= 3, m <= 3, class, mode) whose product loop runs at most
    `limit` tables."""
    out = []
    for n, m, tag, partition_only in product(
        (1, 2, 3), (1, 2, 3), ("lex", "strict_monotone_all"), (True, False)
    ):
        choices = (n if partition_only else n + 1) ** m
        profiles = len(class_from_tag(tag, m)) ** n
        if choices ** profiles <= limit:
            out.append((n, m, tag, partition_only))
    return out


@pytest.mark.parametrize("n,m,tag,partition_only", _oracle_sizes())
def test_search_matches_the_product_oracle(n, m, tag, partition_only):
    """The search's complete tables, before the final axiom check, are
    exactly the tables a product loop over every table keeps, in its order."""
    cls = class_from_tag(tag, m)
    choices = _choice_masks(n, m, partition_only)
    oracle = [
        list(rows)
        for rows in product(range(len(choices)), repeat=len(cls) ** n)
        if first_axiom_violation(choices[list(rows)], cls, n) is None
    ]
    found, _, _ = search_tables(n, cls, choices)
    assert found == oracle
    report = verify_characterization(n, m, cls, partition_only)
    tables = [tuple(map(tuple, choices[rows].tolist())) for rows in oracle]
    assert [mech.table for mech in report.satisfying] == tables


@pytest.mark.parametrize("tag,m", [("lex", 2), ("lex", 3), ("lex", 4),
                                   ("strict_monotone_all", 3)])
def test_no_member_is_fixed_by_a_neutrality_generator(tag, m):
    """Why the search has no unary neutral constraint: no profile is its
    own image, because no member is."""
    cls = class_from_tag(tag, m)
    for pi in neutrality_perms(m):
        assert all(image != i for i, image in enumerate(cls.perm_action(pi)))


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

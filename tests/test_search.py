"""Characterization machinery: the canonical quota family, the exhaustive
profile search against a brute-force product oracle, and mutation
falsification.

Frozen family sizes were derived by hand from the counting identity
|Q(n,m)| = sum over k of m!/(m-k)! restricted compositions; the partition
column is the compositions of m into at most n positive parts times the
arrangements of their owners.
"""

from itertools import product

import numpy as np
import pytest

from serialquota import (
    QuotaOrdering,
    TooLarge,
    enumerate_q,
    lex_class,
    serial_quota,
    strict_monotone_class,
    verify_characterization,
)
from serialquota import engine, search
from serialquota.engine import neutrality_perms
from serialquota.mechanisms import (
    CounterBossy,
    SerialQuota,
    TableMechanism,
    apply,
    index_to_profile,
    profile_index,
)
from serialquota.prefs import all_permutations, class_from_tag, permute_preference
from serialquota.properties import check, first_axiom_violation
from serialquota.search import (
    VERDICT_COUNTEREXAMPLE,
    VERDICT_EQUAL,
    _choice_masks,
    mutate_with_log,
    search_tables,
)
from serialquota.serialize import characterization_to_json

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

    # 48^4 = 5,308,416 profiles are refused before the search runs.
    def no_search(*args):
        raise AssertionError("the search ran")

    monkeypatch.setattr(search, "search_tables", no_search)
    with pytest.raises(TooLarge, match="48\\^4 profiles exceed .* cap"):
        verify_characterization(4, 3, strict_monotone_class(3))
    # 5040 profiles, but 5040 * (128 + 128) rank masks at (1,7) allocation.
    with pytest.raises(TooLarge, match="rank masks exceed .* cap"):
        verify_characterization(1, 7, lex_class(7), partition_only=False)
    # 48^3 profiles pass, but 21 (34) distinct family allocations at profile
    # 0 times 48^3 profiles pass the node cap in partition (allocation) mode.
    for partition_only, nodes in ((True, 21 * 48**3), (False, 34 * 48**3)):
        with pytest.raises(TooLarge, match=f"family alone needs {nodes} search "
                                           "nodes, over the 1000000-node cap"):
            verify_characterization(3, 3, strict_monotone_class(3), partition_only)
    monkeypatch.undo()
    # (2,3) lex allocation needs 1345 nodes; a lowered cap stops it early.
    monkeypatch.setattr(search, "NODE_CAP", 1000)
    with pytest.raises(TooLarge, match="1000-node cap"):
        verify_characterization(2, 3, lex_class(3), partition_only=False)


def test_survivor_outside_the_family_is_the_counterexample(monkeypatch):
    """A family missing one pair leaves that pair's table unmatched: it is
    the counterexample, and the JSON report lists every survivor."""
    cls = lex_class(2)
    family = enumerate_q(2, 2, partition_only=True)
    dropped = family[1]
    monkeypatch.setattr(search, "enumerate_q", lambda *args: family[:1] + family[2:])
    report = verify_characterization(2, 2, cls, partition_only=True)
    assert report.verdict == VERDICT_COUNTEREXAMPLE
    table = engine.allocation_table(SerialQuota(2, 2, cls, dropped))
    assert report.counterexample.table == tuple(map(tuple, table.tolist()))
    assert dropped not in report.recognized and len(report.recognized) == 3
    payload = characterization_to_json(report)
    assert payload["verdict"] == VERDICT_COUNTEREXAMPLE
    assert payload["counterexample"]["alloc"] == table.tolist()
    assert len(payload["satisfying_tables"]) == 4


# (n, m, tag, partition_only, survivors, nodes): sizes the product loop's
# 10^7-table cap refused.
SEARCH_VERDICTS = [
    (2, 3, "lex", True, 6, 307),
    (2, 3, "lex", False, 13, 1345),
    (3, 3, "lex", True, 21, 26203),
    (2, 4, "lex", True, 8, 9630),
    (2, 3, "strict_monotone_all", True, 6, 24405),
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
    """The orbit walk never finds a profile to be its own generator image,
    because no member is."""
    cls = class_from_tag(tag, m)
    for pi in neutrality_perms(m):
        assert all(image != i for i, image in enumerate(cls.perm_action(pi)))


@pytest.mark.parametrize("tag,m", [("lex", 2), ("lex", 3), ("lex", 4),
                                   ("strict_monotone_all", 3)])
def test_permutations_act_freely_on_members(tag, m):
    """Why a profile outside its orbit's lowest index has exactly one
    candidate: no permutation but the identity fixes any member, so none
    fixes any profile, and each orbit has m! profiles reached by distinct
    permutations."""
    cls = class_from_tag(tag, m)
    identity = tuple(range(m))
    for pi in all_permutations(m):
        if pi.map != identity:
            assert all(image != i for i, image in enumerate(cls.perm_action(pi)))


def test_mutants_always_break_an_axiom():
    report, _ = mutate_with_log(QuotaOrdering((1, 2), (0, 1)), lex_class(3), 300, seed=3)
    assert report.holds
    assert report.profiles_checked == 300
    assert report.witness is None


def test_mutation_log_replays_by_hand():
    """Rebuild each logged mutant and confirm the logged axiom fails with the
    witness its property check reports."""
    cls = lex_class(3)
    base = QuotaOrdering((2, 1), (1, 0))
    report, log = mutate_with_log(base, cls, 25, seed=11, log_size=25)
    assert report.holds and len(log) == 25
    sq = serial_quota(base.q, base.p, cls)
    rows = [
        apply(sq, profile).bundles for profile in product(cls.members, repeat=2)
    ]
    for entry in log:
        mutated = list(rows)
        mutated[entry["profile_index"]] = tuple(entry["replacement"])
        mutant = TableMechanism(2, 3, cls, tuple(mutated))
        assert mutated[entry["profile_index"]] != rows[entry["profile_index"]]
        (report,) = check(mutant, [entry["failed_axiom"]])
        assert not report.holds
        assert entry["axiom_witness"] == report.witness


def _mutants(n, m, tag, quotas=None, sample=None):
    """Yield (cls, table, p): a serial-quota partition table with profile p
    overwritten by another partition; the old row is put back when the
    consumer asks for the next mutant.

    Without `sample`, every mutant of every base (of one base per quota
    vector in `quotas`, when given); with it, `sample` seeded mutants.
    Every base is asserted to break no axiom under the full scan.
    """
    cls = class_from_tag(tag, m)
    choices = _choice_masks(n, m, partition_only=True)
    wanted = None if quotas is None else set(quotas)
    bases = []
    for qo in enumerate_q(n, m, partition_only=True):
        if wanted is not None:
            if qo.q not in wanted:
                continue
            wanted.remove(qo.q)
        table = engine.allocation_table(SerialQuota(n, m, cls, qo))
        assert first_axiom_violation(table, cls, n) is None
        bases.append(table)
    assert not wanted
    if sample is None:
        cells = [(t, p, row) for t in bases for p in range(t.shape[0]) for row in choices]
    else:
        rng = np.random.default_rng(5)
        cells = [
            (t, int(rng.integers(t.shape[0])), choices[rng.integers(len(choices))])
            for t in (bases[rng.integers(len(bases))] for _ in range(sample))
        ]
    for table, p, row in cells:
        if np.array_equal(row, table[p]):
            continue
        old = table[p].copy()
        table[p] = row
        yield cls, table, p
        table[p] = old


# (n, m, tag, quota vectors, seeded sample size or None for every mutant)
LOCAL_CASES = [
    (2, 3, "lex", None, None),
    # All 21 bases x 216 profiles x 26 rows would be about 20 s of full
    # scans, so (3,3) takes one base with three pickers and one with an
    # agent who gets nothing.
    (3, 3, "lex", {(1, 1, 1), (1, 2, 0)}, None),
    (2, 4, "lex", None, 300),
    (2, 3, "strict_monotone_all", None, 150),
]


@pytest.mark.parametrize("n,m,tag,quotas,sample", LOCAL_CASES)
def test_scan_at_the_mutated_profile_matches_the_full_scan(n, m, tag, quotas, sample):
    """On single-cell mutants of serial-quota tables, first_axiom_violation
    restricted to the mutated profile gives the full scan's witness."""
    for cls, table, p in _mutants(n, m, tag, quotas, sample):
        full = first_axiom_violation(table, cls, n)
        assert full is not None
        assert first_axiom_violation(table, cls, n, at=p) == full


@pytest.mark.parametrize("n,m,quota", [(2, 3, (1, 2)), (3, 3, (1, 1, 1))])
def test_every_single_cell_mutant_breaks_neutrality_at_its_profile(n, m, quota):
    """S_m acts freely on profiles, so the mutated profile's orbit partners
    keep allocations that no longer match it: for m >= 2 no single-cell
    mutant of a neutral table is neutral."""
    count = 0
    for cls, table, p in _mutants(n, m, "lex", {quota}):
        assert engine.neutrality_violation(table, cls, n, at=p) is not None
        count += 1
    assert count == len(lex_class(m)) ** n * (len(_choice_masks(n, m, True)) - 1)


@pytest.mark.parametrize("n,m,tag", [(2, 3, "lex"), (3, 3, "lex"), (2, 4, "lex"),
                                     (2, 3, "strict_monotone_all")])
def test_each_kernel_at_the_mutated_profile_matches_its_full_scan(n, m, tag):
    """Each axiom kernel on its own, including the ones first_axiom_violation
    never reaches because an earlier axiom already failed."""
    kernels = (engine.truthful_violation, engine.nonbossy_violation,
               engine.neutrality_violation)
    for cls, table, p in _mutants(n, m, tag, sample=200):
        for kernel in kernels:
            assert kernel(table, cls, n, at=p) == kernel(table, cls, n)


def test_scan_at_a_profile_sees_only_the_pairs_that_involve_it():
    cls = lex_class(3)
    digits = np.array(list(product(range(len(cls)), repeat=3)))
    bossy = engine.allocation_table(CounterBossy(3, 3, cls))
    full = first_axiom_violation(bossy, cls, 3)
    assert full is not None
    assert first_axiom_violation(bossy, cls, 3, at=full[1]["profile_index"]) == full
    # Agent 0's report moves the others at every profile, so every local
    # scan finds a violation on one of the profile's deviation rows.
    for p in range(bossy.shape[0]):
        prop, witness = first_axiom_violation(bossy, cls, 3, at=p)
        differ = digits[witness["profile_index"]] != digits[p]
        assert prop == "non_bossy"
        assert not np.delete(differ, witness["agent"]).any()

    # One mutated cell q: a profile that shares no deviation row with q and
    # is not q's image or preimage under a generator sees no violation.
    base = QuotaOrdering((1, 2, 0), (2, 0, 1))
    table = engine.allocation_table(SerialQuota(3, 3, cls, base))
    q = 100
    table[q] = _choice_masks(3, 3, partition_only=True)[0]
    full = first_axiom_violation(table, cls, 3)
    assert full is not None
    assert first_axiom_violation(table, cls, 3, at=q) == full
    paired = {q}
    profile = index_to_profile(q, cls, 3)
    for pi in neutrality_perms(3):
        for sigma in (pi, pi.inverse()):  # q's image and preimage
            paired.add(profile_index(tuple(permute_preference(p, sigma) for p in profile), cls))
    apart = [
        p for p in range(table.shape[0])
        if (digits[p] != digits[q]).sum() >= 2 and p not in paired
    ]
    assert apart
    for p in apart:
        assert first_axiom_violation(table, cls, 3, at=p) is None


def test_mutant_passing_the_local_check_is_confirmed_by_the_full_scan(monkeypatch):
    """A local check that misses every violation still reports no survivor:
    each mutant goes on to the full scan, whose witnesses fill the log."""
    base = QuotaOrdering((2, 1), (1, 0))
    cls = lex_class(3)
    _, expected = mutate_with_log(base, cls, 30, seed=4, log_size=30)
    calls = []

    def blind_locally(table, cls, n, *, at=None):
        calls.append(at)
        return None if at is not None else first_axiom_violation(table, cls, n)

    monkeypatch.setattr(search, "first_axiom_violation", blind_locally)
    report, log = mutate_with_log(base, cls, 30, seed=4, log_size=30)
    assert report.holds and log == expected
    assert calls.count(None) == 30

    monkeypatch.setattr(search, "first_axiom_violation", lambda *a, **k: None)
    report, _ = mutate_with_log(base, cls, 30, seed=4)
    assert not report.holds and report.witness["trial"] == 0


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

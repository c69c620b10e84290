"""Fairness layer: maximin shares, EF1, the quota feasibility rule, and the
seeded integer sweeps (checked against the generic exact-rational route)."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import serialquota
from serialquota import (
    AdditiveStrict,
    CardinalInstance,
    DomainError,
    QuotaOverflow,
    SerialQuota,
    TooLarge,
    additive_class,
    cardinal_apply,
    canonicalize,
    enumerate_q,
    serial_quota,
)
from serialquota.fairness import (
    EPS,
    FairnessAudit,
    GeneratorSpec,
    bundle_value,
    check_ef1,
    ef1_audit,
    ef1_quota_feasibility,
    ef1_random_sweep,
    generate_instances,
    mms,
    rho_bound,
    rho_floor_sweep,
    rho_mms_audit,
    strict_integer_rows,
)
from serialquota.mechanisms import apply_serial_quota


def mms_two_agents_oracle(values):
    """n=2 oracle: walk all subsets, take max over min(v(S), v(rest))."""
    m = len(values)
    total = sum(values)
    best = None
    for s in range(1 << m):
        v = sum(values[g] for g in range(m) if s >> g & 1)
        low = min(v, total - v)
        if best is None or low > best:
            best = low
    return best


# ---------------------------------------------------------------- maximin share

def test_mms_examples():
    assert mms((3, 2, 1), 2) == 3
    assert mms((1, 1, 1, 1), 2) == 2
    assert mms((3, 2, 1), 1) == 6


def test_mms_against_two_agent_oracle():
    rng = np.random.default_rng(4)
    for _ in range(25):
        values = [int(v) for v in rng.integers(0, 50, size=5)]
        assert mms(values, 2) == mms_two_agents_oracle(values)


def test_mms_scale_covariant():
    values = (7, 5, 2, 1)
    assert mms([3 * v for v in values], 2) == 3 * mms(values, 2)


def test_mms_symmetric_in_goods():
    values = (9, 4, 2, 1)
    base = mms(values, 3)
    for perm in permutations(values):
        assert mms(perm, 3) == base


def test_mms_weakly_decreasing_in_agents():
    values = (9, 4, 2, 1, 1)
    shares = [mms(values, n) for n in range(1, 5)]
    assert shares == sorted(shares, reverse=True)


def test_mms_brute_force_cap():
    with pytest.raises(TooLarge):
        mms([1] * 16, 4)
    with pytest.raises(ValueError):
        mms((1, 2), 0)


def test_rho_audit_checks_the_cap_before_building_instances(monkeypatch):
    def no_instances(*args):
        raise AssertionError("instances were generated")

    monkeypatch.setattr(serialquota.fairness, "generate_instances", no_instances)
    mech = serial_quota((1, 1, 1, 13), (0, 1, 2, 3), additive_class(16))
    with pytest.raises(TooLarge, match="^178,973,355 partitions of 16 goods"):
        rho_mms_audit(mech, GeneratorSpec(4, 16))


def test_rho_audit_gates_on_the_engine_profile_cap(monkeypatch):
    # 2^3 = 8 labeled partitions, but S(3,1) + S(3,2) = 4 canonical ones.
    # The spec's 12 random values are checked against the cap it is built under.
    spec = GeneratorSpec(2, 3, count=2)
    monkeypatch.setattr(serialquota.engine, "PROFILE_CAP", 4)
    mech = serial_quota((1, 2), (0, 1), additive_class(3))
    assert rho_mms_audit(mech, spec).instances_tested == 3
    monkeypatch.setattr(serialquota.engine, "PROFILE_CAP", 3)
    with pytest.raises(TooLarge, match="^4 partitions of 3 goods into at most 2 parts"):
        rho_mms_audit(mech, spec)


def test_rho_audit_reaches_three_agents_over_sixteen_goods():
    """7,174,454 canonical partitions pass the cap that the 3^16 labeled ones
    did not; the masks are built in blocks, so the run stays small."""
    src = str(Path(serialquota.__file__).resolve().parents[1])
    code = (
        "import resource\n"
        "from serialquota import GeneratorSpec, additive_class, rho_bound, rho_mms_audit,"
        " serial_quota\n"
        "mech = serial_quota((1, 1, 14), (0, 1, 2), additive_class(16))\n"
        "audit = rho_mms_audit(mech, GeneratorSpec(3, 16, count=1))\n"
        "print(audit.instances_tested, audit.worst_ratio >= rho_bound(3, 16))\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // 1024)\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    verdict, peak_mb = done.stdout.splitlines()
    assert verdict == "2 True"
    assert int(peak_mb) < 250


def test_bundle_value():
    assert bundle_value((4, 2, 1), 0b101) == 5
    assert bundle_value((4, 2, 1), 0) == 0


# ---------------------------------------------------------------- EF1 check

def test_ef1_holds_for_unit_quotas_on_identical_goods():
    mech = serial_quota((1, 1, 2), (0, 1, 2), additive_class(4))
    inst = ef1_audit(mech, GeneratorSpec(3, 4, ("identical",))).instance(0)
    assert check_ef1(cardinal_apply(mech, inst), inst) is None


def test_ef1_violation_when_an_early_quota_is_two():
    mech = serial_quota((2, 1), (0, 1), additive_class(3))
    inst = targeted(mech)[0]
    assert check_ef1(cardinal_apply(mech, inst), inst) == {"envious": 1, "envied": 0}


def test_ef1_empty_bundle_never_envied():
    from serialquota import Allocation, Lexicographic

    alloc = Allocation(2, (0, 0b1))
    profile = (Lexicographic((0, 1)), Lexicographic((0, 1)))
    assert check_ef1(alloc, profile) is None


def test_ef1_single_agent_trivially_holds():
    from serialquota import Allocation

    inst = CardinalInstance.from_values(((4, 2, 1),))
    assert check_ef1(Allocation(3, (0b111,)), inst) is None


# ---------------------------------------------------------------- feasibility

def test_feasibility_rule_examples():
    assert ef1_quota_feasibility((1, 1, 2))
    assert not ef1_quota_feasibility((2, 1))
    assert not ef1_quota_feasibility((1, 0, 2))
    assert ef1_quota_feasibility((1, 1, 1))
    assert ef1_quota_feasibility((1, 1, 0))
    assert not ef1_quota_feasibility((1, 3))
    assert ef1_quota_feasibility((5,))
    assert ef1_quota_feasibility(())
    with pytest.raises(ValueError):
        ef1_quota_feasibility((1, -1))


# ---------------------------------------------------------------- generators

def targeted(mech):
    """The targeted family's instances, built from the audit's integer rows."""
    audit = ef1_audit(mech, GeneratorSpec(mech.n, mech.m, ("targeted",)))
    return [audit.instance(k) for k in range(audit.instances_tested)]


def test_identical_instance_is_strict_and_near_uniform():
    spec = GeneratorSpec(2, 4, ("identical",))
    assert spec.identical_values.tolist() == [[[10**6 + 2**g for g in range(4)]] * 2]
    inst = rho_mms_audit(serial_quota((1, 3), (0, 1), additive_class(4)), spec).instance(0)
    row = inst.valuations[0].values
    assert row == tuple(1 + EPS * 2**g for g in range(4))
    assert inst.valuations[0] == inst.valuations[1]


def test_targeted_instances_cover_each_early_big_quota():
    mech = serial_quota((2, 2, 1), (0, 1, 2), additive_class(5))
    witnesses = targeted(mech)
    assert len(witnesses) == 2  # positions 0 and 1 both have quota 2
    for inst in witnesses:
        assert check_ef1(cardinal_apply(mech, inst), inst) is not None


def test_targeted_instance_makes_the_last_picker_envious():
    """The special row leaves the last picker with eps-value goods, so she
    still envies the target bundle after dropping its best good."""
    mech = serial_quota((2, 1), (0, 1), additive_class(3))
    inst = targeted(mech)[0]
    alloc = cardinal_apply(mech, inst)
    last = mech.quota.p[-1]
    target = alloc.bundles[mech.quota.p[0]]
    vals = inst.valuations[last]
    own = bundle_value(vals, alloc.bundles[last])
    worst_case = min(
        bundle_value(vals, target & ~(1 << g))
        for g in range(3)
        if target >> g & 1
    )
    assert worst_case > own


def test_targeted_instances_empty_for_feasible_quotas():
    mech = serial_quota((1, 1, 2), (0, 1, 2), additive_class(4))
    values, scales = generate_instances(mech, GeneratorSpec(3, 4, ("targeted",)))
    assert values.shape == (0, 3, 4) and scales.shape == (0, 3)


def test_random_instances_deterministic_and_strict():
    """Equal specs give equal rows; another seed gives others."""
    spec = GeneratorSpec(2, 4, count=10, seed=9)
    a = spec.random_values
    assert spec.random_values is a  # drawn once per spec
    assert (GeneratorSpec(2, 4, count=10, seed=9).random_values == a).all()
    assert (GeneratorSpec(2, 4, ("random",), count=10, seed=9).random_values == a).all()
    assert a.shape == (10, 2, 4) and a.dtype == np.int64
    assert (GeneratorSpec(2, 4, count=10, seed=10).random_values != a).any()
    assert all(distinct_subset_sums(row) for row in a.reshape(20, 4))


def same_audit(a, b) -> bool:
    return (
        (a.mechanism, a.worst_ratio, a.ef1_violations) == (b.mechanism, b.worst_ratio, b.ef1_violations)
        and np.array_equal(a.values, b.values)
        and np.array_equal(a.scales, b.scales)
    )


def test_a_spec_draws_once(monkeypatch):
    """Audits on one spec share its draw: two EF1 audits and an MMS audit
    call strict_integer_rows once between them, and give the reports a
    fresh spec gives."""
    calls = []
    draw = serialquota.fairness.strict_integer_rows

    def counted(*args):
        calls.append(args[1:])
        return draw(*args)

    monkeypatch.setattr(serialquota.fairness, "strict_integer_rows", counted)
    spec = GeneratorSpec(3, 5, count=30, seed=4)
    dirty = serial_quota((2, 2, 1), (0, 1, 2), additive_class(5))
    clean = serial_quota((1, 1, 3), (0, 1, 2), additive_class(5))
    audits = [ef1_audit(dirty, spec), ef1_audit(clean, spec), rho_mms_audit(clean, spec)]
    assert calls == [(90, 5)]
    fresh = [ef1_audit(dirty, GeneratorSpec(3, 5, count=30, seed=4)),
             ef1_audit(clean, GeneratorSpec(3, 5, count=30, seed=4)),
             rho_mms_audit(clean, GeneratorSpec(3, 5, count=30, seed=4))]
    assert all(map(same_audit, audits, fresh))
    assert len(calls) == 4


def test_generator_spec_rejects_unknown_family():
    with pytest.raises(ValueError):
        GeneratorSpec(2, 3, families=("identical", "adversarial"))


def test_generate_instances_respects_family_list():
    mech = serial_quota((1, 2), (0, 1), additive_class(3))
    spec = GeneratorSpec(2, 3, families=("identical", "random"), count=5, seed=0)
    values, scales = generate_instances(mech, spec)
    assert values.shape == (6, 2, 3)  # one identical + five random
    assert scales.tolist() == [[10**6, 10**6]] + [[1, 1]] * 5
    assert (values[1:] == spec.random_values).all()


# ---------------------------------------------------------------- audits

def test_rho_audit_ratio_capped_at_one():
    mech = serial_quota((1, 2), (0, 1), additive_class(3))
    audit = rho_mms_audit(mech, GeneratorSpec(2, 3, families=("identical",)))
    assert isinstance(audit, FairnessAudit)
    assert audit.worst_ratio == 1


def test_rho_audit_identical_instance_matches_bound_closely():
    mech = serial_quota((1, 3), (0, 1), additive_class(4))
    audit = rho_mms_audit(mech, GeneratorSpec(2, 4, families=("identical",)))
    bound = rho_bound(2, 4)
    assert audit.worst_ratio >= bound
    assert abs(audit.worst_ratio - bound) / bound <= Fraction(1, 1000)


def test_ef1_audit_clean_vs_dirty():
    clean = serial_quota((1, 1, 2), (0, 1, 2), additive_class(4))
    spec = GeneratorSpec(3, 4, count=50, seed=21)
    assert ef1_audit(clean, spec).ef1_violations == ()
    dirty = serial_quota((2, 1), (0, 1), additive_class(3))
    audit = ef1_audit(dirty, GeneratorSpec(2, 3, count=50, seed=21))
    assert audit.ef1_violations
    k, i, j = audit.ef1_violations[0]
    inst = audit.instance(k)
    assert check_ef1(cardinal_apply(dirty, inst), inst) == {"envious": i, "envied": j}


def exact_audits(mech, spec):
    """Both audits recomputed per instance in exact rationals."""
    values, scales = generate_instances(mech, spec)
    instances = [
        CardinalInstance.from_values([[Fraction(v, s) for v in row] for row, s in zip(rows, ss)])
        for rows, ss in zip(values.tolist(), scales.tolist())
    ]
    worst, violations = None, []
    for k, inst in enumerate(instances):
        alloc = cardinal_apply(mech, inst)
        for i, valuation in enumerate(inst.valuations):
            share = mms(valuation, inst.n)
            got = bundle_value(valuation, alloc.bundles[i])
            ratio = Fraction(1) if share == 0 else min(Fraction(1), got / share)
            worst = ratio if worst is None else min(worst, ratio)
        witness = check_ef1(alloc, inst)
        if witness is not None:
            violations.append((k, witness["envious"], witness["envied"]))
    return worst, tuple(violations), len(instances)


def test_audits_match_exact_recomputation():
    """Every canonical vector at n <= 3, m <= 4 on all three families; the
    identical and targeted rows are fractions, so LCM scaling is covered."""
    checked = 0
    for n in (1, 2, 3):
        for m in range(1, 5):
            spec = GeneratorSpec(n, m, count=6, seed=30 + 10 * n + m)
            for qo in enumerate_q(n, m):
                mech = SerialQuota(n, m, additive_class(m), qo)
                worst, violations, tested = exact_audits(mech, spec)
                rho = rho_mms_audit(mech, spec)
                ef1 = ef1_audit(mech, spec)
                assert (rho.instances_tested, rho.worst_ratio) == (tested, worst)
                assert rho.ef1_violations == ()
                assert (ef1.instances_tested, ef1.worst_ratio) == (tested, None)
                assert ef1.ef1_violations == violations
                checked += 1
    assert checked > 100


def test_audits_reject_instances_of_another_size():
    mech = serial_quota((1, 2), (0, 1), additive_class(3))
    with pytest.raises(DomainError):
        rho_mms_audit(mech, GeneratorSpec(3, 3, families=("random",), count=2))
    with pytest.raises(DomainError):
        ef1_audit(mech, GeneratorSpec(2, 4, families=("identical",)))


def test_generator_spec_rejects_bad_sizes():
    with pytest.raises(ValueError):
        GeneratorSpec(0, 3)
    with pytest.raises(ValueError):
        GeneratorSpec(2, 17)
    with pytest.raises(ValueError, match="got n=2, m=-1"):
        GeneratorSpec(2, -1)


@pytest.mark.parametrize("audit", [rho_mms_audit, ef1_audit])
def test_audits_check_the_spec_size_before_building_instances(audit, monkeypatch):
    def no_instances(*args):
        raise AssertionError("instances were generated")

    monkeypatch.setattr(serialquota.fairness, "strict_integer_rows", no_instances)
    monkeypatch.setattr(serialquota.fairness, "_targeted_values", no_instances)
    mech = serial_quota((2, 1), (0, 1), additive_class(3))
    with pytest.raises(DomainError, match="spec is \\(2,16\\), mechanism is \\(2,3\\)"):
        audit(mech, GeneratorSpec(2, 16, count=1000))


def test_generator_spec_rejects_a_repeated_family_and_a_negative_seed():
    # A repeated family would count the same seeded instances twice.
    with pytest.raises(ValueError, match="instance families repeated: random"):
        GeneratorSpec(2, 3, families=("random", "identical", "random"))
    with pytest.raises(ValueError, match="need seed >= 0, got seed=-1"):
        GeneratorSpec(2, 3, seed=-1)


# ---------------------------------------------------------------- integer sweeps

def test_strict_integer_rows_have_distinct_subset_sums():
    rng = np.random.default_rng(0)
    rows = strict_integer_rows(rng, 200, 5)
    assert rows.shape == (200, 5)
    for row in rows[:50]:
        sums = set()
        for s in range(1 << 5):
            sums.add(sum(int(row[g]) for g in range(5) if s >> g & 1))
        assert len(sums) == 1 << 5


def distinct_subset_sums(row) -> bool:
    sums = {sum(int(row[g]) for g in range(len(row)) if s >> g & 1) for s in range(1 << len(row))}
    return len(sums) == 1 << len(row)


def test_strict_integer_rows_break_ties_without_drawing_again():
    """Untied rows are the first draw; a tied row becomes first * 10^6 + 2^g
    (first + eps * 2^g scaled by 1/eps) and nothing more is drawn."""
    rows, m = 200, 6
    first = np.random.default_rng(3).integers(1, 1001, size=(rows, m))
    rng = np.random.default_rng(3)
    out = strict_integer_rows(rng, rows, m)
    tied = [not distinct_subset_sums(row) for row in first]
    assert 0 < sum(tied) < rows
    for row, draw, was_tied in zip(out, first, tied):
        if was_tied:
            assert row.tolist() == [int(v) * 10**6 + 2**g for g, v in enumerate(draw)]
            assert distinct_subset_sums(row)
        else:
            assert row.tolist() == draw.tolist()
    follow = np.random.default_rng(3)
    follow.integers(1, 1001, size=(rows, m))
    assert rng.integers(1 << 30) == follow.integers(1 << 30)


@pytest.mark.parametrize("rows", [0, 1, 200])
def test_strict_integer_rows_are_the_same_in_smaller_chunks(rows, monkeypatch):
    """Ties are found in chunks of about engine.CELLS subset sums; the rows
    do not depend on the chunk size."""
    m = 6
    whole = strict_integer_rows(np.random.default_rng(3), rows, m)
    chunks = []

    def counted(block):
        chunks.append(block.shape[0])
        return serialquota.prefs.tied_rows(block)

    monkeypatch.setattr(serialquota.fairness, "tied_rows", counted)
    monkeypatch.setattr(serialquota.engine, "CELLS", 7 << m)
    out = strict_integer_rows(np.random.default_rng(3), rows, m)
    assert out.shape == (rows, m)
    assert out.tolist() == whole.tolist()
    assert sum(chunks) == rows and max(chunks, default=0) <= 7
    assert len(chunks) == -(-rows // 7)


@pytest.mark.parametrize("m", [13, 14, 16])
def test_strict_integer_rows_skip_the_tie_check_when_every_row_ties(m, monkeypatch):
    """From m = 14 on, 2^m subset sums within [0, 1000 m] must tie, so the
    rows are the draw with every row broken, exactly the rows `tied_rows`
    flags, and `tied_rows` is not called; at m = 13 it still is."""
    rows = 5
    first = np.random.default_rng(4).integers(1, 1001, size=(rows, m))
    tied = serialquota.prefs.tied_rows(first)
    expected = first.copy()
    expected[tied] = first[tied] * 10**6 + (1 << np.arange(m))
    calls = []

    def counted(block):
        calls.append(len(block))
        return serialquota.prefs.tied_rows(block)

    monkeypatch.setattr(serialquota.fairness, "tied_rows", counted)
    out = strict_integer_rows(np.random.default_rng(4), rows, m)
    assert out.tolist() == expected.tolist()
    assert tied.all() or m < 14
    assert sum(calls) == (rows if m == 13 else 0)


def test_random_instances_are_the_generator_rows():
    n, m, count, seed = 2, 6, 50, 5
    rows = strict_integer_rows(np.random.default_rng(seed), count * n, m)
    spec = GeneratorSpec(n, m, ("random",), count, seed)
    assert spec.random_values.tolist() == rows.reshape(count, n, m).tolist()
    audit = ef1_audit(serial_quota((1, 5), (0, 1), additive_class(m)), spec)
    assert audit.values.tolist() == rows.reshape(count, n, m).tolist()
    assert (audit.scales == 1).all()
    assert [v.values for k in range(count) for v in audit.instance(k).valuations] == [
        tuple(int(v) for v in row) for row in rows
    ]
    assert (rows > 1000).any()  # some rows had ties to break


@given(st.lists(st.lists(st.fractions(1, 60, max_denominator=12), min_size=3, max_size=3),
                min_size=1, max_size=4))
def test_integer_values_match_lcm_scaling(rows):
    """The stored integer rows are each row scaled by the LCM of its denominators."""
    try:
        inst = CardinalInstance.from_values(rows)
    except serialquota.TieDetected:
        return
    expected = []
    for row in rows:
        scale = math.lcm(*(v.denominator for v in row))
        expected.append([int(v * scale) for v in row])
    assert [list(valuation.row) for valuation in inst.valuations] == expected


def test_quota_sweep_matches_generic_application():
    """The argsort-top-k fast path agrees with apply_serial_quota."""
    rng = np.random.default_rng(7)
    vals = strict_integer_rows(rng, 60, 4).reshape(20, 3, 4)
    quota = canonicalize((1, 1, 2), (2, 0, 1), 4)
    from serialquota.fairness import _apply_quota_int

    fast = _apply_quota_int(quota.q, quota.p, vals)
    for t in range(20):
        inst = CardinalInstance.from_values([tuple(int(v) for v in r) for r in vals[t]])
        slow = apply_serial_quota(quota, inst.valuations, 4)
        assert tuple(int(b) for b in fast[t]) == slow.bundles


def test_mms_batch_matches_generic(monkeypatch):
    rng = np.random.default_rng(8)
    rows = strict_integer_rows(rng, 30, 4)
    from serialquota import engine
    from serialquota.fairness import _mms_int_batch

    fast = _mms_int_batch(rows, 2)
    whole3 = _mms_int_batch(rows, 3)
    for t in range(30):
        assert int(fast[t]) == mms([int(v) for v in rows[t]], 2)
    # Blocks of one partition each give the same shares.
    monkeypatch.setattr(engine, "CELLS", 10)
    assert (_mms_int_batch(rows, 2) == fast).all()
    assert (_mms_int_batch(rows, 3) == whole3).all()


def stirling2(m, k):
    """Partitions of m labeled goods into exactly k nonempty parts."""
    table = [[1]]
    for i in range(1, m + 1):
        prev = table[-1] + [0]
        table.append([0] + [j * prev[j] + prev[j - 1] for j in range(1, i + 1)])
    return table[m][k] if k <= m else 0


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_partition_masks_list_each_unordered_split_once(n):
    from serialquota.fairness import _partition_blocks

    for m in range(0, 8):
        masks = np.concatenate(list(_partition_blocks(n, m)))
        assert masks.shape == (sum(stirling2(m, k) for k in range(n + 1)), n)
        for row in masks.tolist():
            assert sum(row) == (1 << m) - 1  # the parts are disjoint and cover every good
            assert all(a & b == 0 for i, a in enumerate(row) for b in row[i + 1:])
        splits = {tuple(sorted(row)) for row in masks.tolist()}
        assert len(splits) == len(masks)  # no mask relabels another


def test_mms_batch_matches_the_fraction_oracle():
    """Raw rows with zeros and ties at every n <= 4, m <= 7, including m < n,
    m = 0 and an empty batch, against the labeled-partition loop of `mms`."""
    from serialquota.fairness import _mms_int_batch

    rng = np.random.default_rng(19)
    for n in range(1, 5):
        assert _mms_int_batch(np.zeros((0, 3), dtype=np.int64), n).shape == (0,)
        for m in range(0, 8):
            rows = np.vstack([
                np.zeros((1, m), dtype=np.int64),
                np.full((1, m), 7, dtype=np.int64),
                rng.integers(0, 4, size=(2, m)),
                rng.integers(0, 1000, size=(1, m)),
            ])
            shares = _mms_int_batch(rows, n)
            assert shares.tolist() == [mms(row, n) for row in rows.tolist()], (n, m)


def test_mms_batch_blocks_rows_and_partitions(monkeypatch):
    from serialquota import engine
    from serialquota.fairness import _mms_int_batch, _partition_blocks

    rows = np.random.default_rng(20).integers(0, 50, size=(7, 5))
    whole = _mms_int_batch(rows, 3)
    # 2 rows per block (4 blocks); the 41 partitions come in blocks of at
    # most 21 (64 entries), each split again into 32-partition minima.
    monkeypatch.setattr(engine, "CELLS", 64)
    sizes = [len(b) for b in _partition_blocks(3, 5)]
    assert sum(sizes) == 41 and len(sizes) > 1 and max(sizes) <= 21
    assert (_mms_int_batch(rows, 3) == whole).all()
    assert whole.tolist() == [mms(row, 3) for row in rows.tolist()]


@pytest.mark.parametrize("n,m", [(2, 9), (3, 8), (4, 7), (5, 6)])
def test_partition_blocks_stay_within_cells(n, m, monkeypatch):
    """Blocks hold at most engine.CELLS entries and together list the same
    partitions as one unblocked list, and give the same shares."""
    from serialquota import engine
    from serialquota.fairness import _mms_int_batch, _partition_blocks

    rows = np.random.default_rng(n * m).integers(0, 90, size=(5, m))
    (whole,) = _partition_blocks(n, m)
    shares = _mms_int_batch(rows, n)
    monkeypatch.setattr(engine, "CELLS", 40)
    blocks = list(_partition_blocks(n, m))
    assert len(blocks) > 2
    assert all(block.size <= 40 for block in blocks)
    assert sorted(np.concatenate(blocks).tolist()) == sorted(whole.tolist())
    assert (_mms_int_batch(rows, n) == shares).all()


@pytest.mark.parametrize("n,m,count", [(3, 6, 122), (2, 8, 128), (3, 8, 1094)])
def test_small_partition_lists_stay_one_block(n, m, count):
    from serialquota.fairness import _partition_blocks

    assert [len(block) for block in _partition_blocks(n, m)] == [count]


def test_rho_floor_sweep_agrees_with_exact_recomputation():
    holds, worst, first = rho_floor_sweep(2, 4, 40, seed=14)
    assert holds and first is None
    rng = np.random.default_rng(14)
    vals = strict_integer_rows(rng, 80, 4).reshape(40, 2, 4)
    mech = serial_quota((1, 3), (0, 1), additive_class(4))
    ratios = []
    for t in range(40):
        inst = CardinalInstance.from_values([tuple(int(v) for v in r) for r in vals[t]])
        alloc = cardinal_apply(mech, inst)
        for i in range(2):
            share = mms(inst.valuations[i], 2)
            got = bundle_value(inst.valuations[i], alloc.bundles[i])
            ratios.append(min(Fraction(1), got / share))
    assert worst == min(ratios)
    assert worst >= rho_bound(2, 4)


def test_ef1_random_sweep_matches_check_ef1():
    quota = canonicalize((2, 1), (0, 1), 3)
    count_bad, witness = ef1_random_sweep(quota, 3, 60, seed=5)
    assert count_bad > 0
    inst, i, j = witness
    mech = serial_quota(quota.q, quota.p, additive_class(3))
    assert check_ef1(cardinal_apply(mech, inst), inst) == {"envious": i, "envied": j}

    clean_quota = canonicalize((1, 1, 1), (0, 1, 2), 3)
    assert ef1_random_sweep(clean_quota, 3, 60, seed=5) == (0, None)


def test_ef1_random_sweep_is_the_random_audit():
    quota = canonicalize((2, 1, 1), (0, 2, 1), 4)
    count, (inst, i, j) = ef1_random_sweep(quota, 4, 50, seed=6)
    mech = serial_quota(quota.q, quota.p, additive_class(4))
    audit = ef1_audit(mech, GeneratorSpec(3, 4, ("random",), 50, 6))
    k, envious, envied = audit.ef1_violations[0]
    assert count == len(audit.ef1_violations) > 1
    assert (inst, i, j) == (audit.instance(k), envious, envied)


def test_audits_build_no_additive_strict(monkeypatch):
    """The audits score the int64 rows as drawn: no AdditiveStrict is built,
    so no row is tie-checked again.  Replaying instance k builds its n."""
    checked = []
    tied = serialquota.prefs.tied_rows

    def counted(rows):
        checked.append(len(rows))
        return tied(rows)

    monkeypatch.setattr(serialquota.prefs, "tied_rows", counted)
    spec = GeneratorSpec(3, 5, count=40, seed=2)
    for q in ((2, 2, 1), (1, 1, 3)):
        mech = serial_quota(q, (0, 1, 2), additive_class(5))
        assert rho_mms_audit(mech, spec).instances_tested == ef1_audit(mech, spec).instances_tested
    assert checked == []
    ef1_audit(mech, spec).instance(0)
    assert checked == [1, 1, 1]


@pytest.mark.parametrize("family", ["identical", "targeted", "random"])
def test_every_violation_replays_through_audit_instance(family):
    replayed = 0
    for q, p, m in (((2, 2, 1), (0, 1, 2), 5), ((2, 1), (1, 0), 3), ((3, 1), (0, 1), 4),
                    ((1, 2, 1), (2, 0, 1), 4), ((1, 1, 2), (0, 1, 2), 4)):
        mech = serial_quota(q, p, additive_class(m))
        audit = ef1_audit(mech, GeneratorSpec(mech.n, m, (family,), count=30, seed=11))
        for k, i, j in audit.ef1_violations:
            inst = audit.instance(k)
            assert check_ef1(cardinal_apply(mech, inst), inst) == {
                "envious": i, "envied": j,
            }
            replayed += 1
    assert replayed > 0


def test_generator_spec_refuses_a_huge_random_draw(monkeypatch):
    def no_draw(*args):
        raise AssertionError("rows were drawn")

    monkeypatch.setattr(serialquota.fairness, "strict_integer_rows", no_draw)
    with pytest.raises(TooLarge, match="^count 1,000,000,000,000 draws 8,000,000,000,000 "
                                       "random values, above the 10,000,000 cap$"):
        GeneratorSpec(2, 4, count=10**12)
    assert GeneratorSpec(2, 4, ("identical", "targeted"), count=10**12).count == 10**12
    monkeypatch.setattr(serialquota.engine, "PROFILE_CAP", 40)
    assert GeneratorSpec(2, 4, ("random",), count=5).count == 5
    with pytest.raises(TooLarge, match="^count 6 draws 48 random values"):
        GeneratorSpec(2, 4, ("random",), count=6)
    with pytest.raises(TooLarge, match="^count 41 draws 41 random values"):
        GeneratorSpec(1, 0, ("random",), count=41)


@pytest.mark.parametrize("args, error", [
    ((2, 20, 5, 0), "got n=2, m=20"),  # 4 of 400 rows stay tied at m = 20
    ((2, 4, -1, 0), "need count >= 0, got count=-1"),
    ((2, 4, 5, -1), "need seed >= 0, got seed=-1"),
])
def test_sweeps_check_their_draw_through_the_spec(args, error):
    n, m, count, seed = args
    with pytest.raises(ValueError, match=error):
        rho_floor_sweep(n, m, count, seed)
    quota = canonicalize((1,) * (n - 1) + (m - n + 1,), tuple(range(n)), m)
    with pytest.raises(ValueError, match=error):
        ef1_random_sweep(quota, m, count, seed)


def test_ef1_sweep_refuses_a_quota_that_does_not_fit_m():
    quota = canonicalize((3, 3), (0, 1), 6)
    with pytest.raises(QuotaOverflow, match="quotas sum to 6 > m=2"):
        ef1_random_sweep(quota, 2, 10, 0)


def test_targeted_bundles_are_what_the_quota_gives_on_the_base_profile():
    """Every agent reporting the shared descending row, position pos gets the
    goods sum(q[:pos]) .. sum(q[:pos+1]) - 1, which the special row values
    at 1 or more and every other good below 1."""
    checked = 0
    for n in range(2, 5):
        for m in range(1, 9):
            for qo in enumerate_q(n, m):
                mech = SerialQuota(n, m, additive_class(m), qo)
                positions = [pos for pos in range(n - 1) if qo.q[pos] >= 2]
                values, scales = generate_instances(mech, GeneratorSpec(n, m, ("targeted",)))
                assert len(values) == len(positions)
                for pos, rows, row_scales in zip(positions, values.tolist(), scales.tolist()):
                    base = AdditiveStrict(tuple(rows[qo.p[0]]), row_scales[qo.p[0]])
                    special, scale = rows[qo.p[-1]], row_scales[qo.p[-1]]
                    target = sum(1 << g for g, v in enumerate(special) if v >= scale)
                    alloc = cardinal_apply(mech, CardinalInstance((base,) * n))
                    assert alloc.bundles[qo.p[pos]] == target, (qo, pos)
                    checked += 1
    assert checked == 12292


def test_rho_floor_sweep_finishes_where_every_row_ties():
    # From m = 14 on, 2^m subsets share at most 1000 m + 1 sums, so every
    # drawn row ties; a generator that redraws never returns.
    src = str(Path(serialquota.__file__).resolve().parents[1])
    code = "from serialquota.fairness import rho_floor_sweep; print(rho_floor_sweep(2, 14, 1, 0)[0])"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    assert done.stdout == "True\n"


# ---------------------------------------------------------------- bound formula

def test_rho_bound_values():
    assert rho_bound(2, 4) == Fraction(1, 2)
    assert rho_bound(2, 6) == Fraction(1, 3)
    assert rho_bound(3, 6) == Fraction(1, 2)
    assert rho_bound(1, 5) == Fraction(1, 3)
    assert rho_bound(2, 2) == 1
    with pytest.raises(ValueError):
        rho_bound(3, 2)


@settings(max_examples=60)
@given(st.integers(1, 6), st.integers(0, 6))
def test_rho_bound_formula(n, extra):
    m = n + extra
    assert rho_bound(n, m) == Fraction(1, (m - n + 2) // 2)

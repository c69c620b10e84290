"""Desk-scale verification scenarios.

Each criterion is a zero-argument callable returning (passed, detail).  The
test suite asserts them one by one and the CLI `reproduce-paper` bundle runs
them in sequence; heavyweight intermediate results are cached at module level
so both entry points share one computation per process.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

import numpy as np

from . import engine
from .fairness import (
    GeneratorSpec,
    check_ef1,
    ef1_audit,
    ef1_quota_feasibility,
    ef1_random_sweep,
    rho_bound,
    rho_floor_sweep,
    rho_mms_audit,
    strict_integer_rows,
)
from .mechanisms import (
    CardinalInstance,
    CounterBossy,
    CounterNonNeutral,
    CounterNonTruthful,
    RoundRobin,
    SerialQuota,
    TableMechanism,
    canonicalize,
    cardinal_apply,
    serial_quota,
)
from .prefs import (
    AdditiveStrict,
    additive_class,
    lex_class,
    strict_monotone_class,
)
from .properties import (
    AXIOMS,
    CONTROL_CLAIM,
    NEUTRAL,
    NON_BOSSY,
    PARETO,
    PUSH_UP,
    TRUTHFUL,
    PropertyReport,
    check,
    pareto_blocking,
    replay_witness,
    verify_blocking,
)
from .search import enumerate_q, mutate_with_log, verify_characterization

AXIOM_SIZES_LEX = ((2, 2), (2, 3), (2, 4), (3, 3), (3, 4))


def _sweep(sizes, props, partition_only: bool = False) -> str | tuple[int, int]:
    """Check props on every canonical serial-quota mechanism at each
    (n, m, cls) in sizes, one `check` call (one table) per mechanism.
    Returns the first failing report as a detail line, or the numbers of
    mechanisms and profiles checked."""
    mechs = profiles = 0
    for n, m, cls in sizes:
        for qo in enumerate_q(n, m, partition_only):
            reports = check(SerialQuota(n, m, cls, qo), props)
            for report in reports:
                if not report.holds:
                    return (
                        f"{report.property} failed for q={qo.q} p={qo.p} over "
                        f"{cls.tag} at ({n},{m}): {report.witness}"
                    )
            mechs += 1
            profiles += reports[0].profiles_checked
    return mechs, profiles


def ac1() -> tuple[bool, str]:
    """Every canonical serial-quota mechanism passes the three axioms."""
    sizes = [(n, m, lex_class(m)) for n, m in AXIOM_SIZES_LEX]
    sizes.append((2, 3, strict_monotone_class(3)))
    swept = _sweep(sizes, AXIOMS)
    if isinstance(swept, str):
        return False, swept
    return True, f"{swept[0]} mechanisms x 3 axioms, all pass"


def ac2() -> tuple[bool, str]:
    """All 256 partition tables at (2,2): exactly the 4 quota mechanisms survive."""
    report = verify_characterization(2, 2, lex_class(2), partition_only=True)
    ok = (
        report.verdict == "sets-equal"
        and len(report.satisfying) == 4
        and len(report.family) == 4
    )
    return ok, (
        f"verdict={report.verdict}, {len(report.satisfying)} of "
        f"{report.tables_enumerated} tables satisfy the axioms"
    )


@cache
def _mutation_runs():
    runs = []
    for (n, m), total, seed in (((2, 3), 1020, 11), ((3, 3), 504, 12)):
        cls = lex_class(m)
        pairs = enumerate_q(n, m, partition_only=True)
        per = -(-total // len(pairs))
        for k, qo in enumerate(pairs):
            report, log = mutate_with_log(
                qo, cls, per, seed=seed * 1000 + k, log_size=2
            )
            runs.append((n, m, cls, qo, per, report, log))
    return runs


def ac3() -> tuple[bool, str]:
    """Single-cell mutants of serial-quota tables all break an axiom."""
    total = 0
    for n, m, cls, qo, per, report, _log in _mutation_runs():
        total += per
        if not report.holds:
            return False, (
                f"mutant survived at ({n},{m}) q={qo.q} p={qo.p}: {report.witness}"
            )
    return True, f"{total} mutants across (2,3) and (3,3), zero survivors"


@cache
def _intro_case():
    vals = (
        (Fraction(11), Fraction(1001, 100), Fraction(10)),
        (Fraction(10), Fraction(101, 100), Fraction(1)),
    )
    inst = CardinalInstance.from_values(vals)
    mech = serial_quota((1, 2), (0, 1), additive_class(3))
    alloc = cardinal_apply(mech, inst)
    blocking = pareto_blocking(alloc, inst.valuations)
    return inst, alloc, blocking


def ac4() -> tuple[bool, str]:
    """Serial-quota partition mechanisms are Pareto-efficient; the two-agent
    motivating instance is not, blocked by swapping the bundles."""
    sizes = [(n, m, lex_class(m)) for n in (1, 2, 3) for m in range(1, 5)]
    swept = _sweep(sizes, [PARETO], partition_only=True)
    if isinstance(swept, str):
        return False, swept
    inst, alloc, blocking = _intro_case()
    if alloc.bundles != (0b001, 0b110):
        return False, f"unexpected intro allocation {alloc.bundles}"
    if blocking != (0b110, 0b001):
        return False, f"intro instance blocking mismatch: {blocking}"
    if not verify_blocking(alloc, inst.valuations, blocking):
        return False, "intro blocking failed re-verification"
    return True, (
        f"{swept[0]} partition mechanisms efficient; intro instance blocked "
        f"by the bundle swap"
    )


@cache
def _counterexample_reports():
    out = {}
    cnt = CounterNonTruthful(2, 2, lex_class(2))
    cb = CounterBossy(3, 3, lex_class(3))
    cnn = CounterNonNeutral(3, 3, lex_class(3), 0, 1)
    for name, mech, broken in (
        ("counter_non_truthful", cnt, TRUTHFUL),
        ("counter_bossy", cb, NON_BOSSY),
        ("counter_non_neutral", cnn, NEUTRAL),
    ):
        reports = {r.property: r for r in check(mech, (*AXIOMS, CONTROL_CLAIM))}
        out[name] = (mech, broken, reports)
    return out


def ac5() -> tuple[bool, str]:
    """Control claim holds for all quota mechanisms at (3,3) and fails, with
    witnesses, for each counterexample; each counterexample breaks exactly its
    designated axiom."""
    swept = _sweep([(3, 3, lex_class(3))], [CONTROL_CLAIM])
    if isinstance(swept, str):
        return False, swept
    for name, (_mech, broken, reports) in _counterexample_reports().items():
        if reports[CONTROL_CLAIM].holds:
            return False, f"{name} unexpectedly satisfies the control claim"
        for axiom in AXIOMS:
            expected = axiom != broken
            if reports[axiom].holds != expected:
                return False, (
                    f"{name}: {axiom} holds={reports[axiom].holds}, "
                    f"expected {expected}"
                )
    return True, (
        f"{swept[0]} quota mechanisms satisfy the control claim; all three "
        f"counterexamples refuted with witnesses"
    )


def ac6() -> tuple[bool, str]:
    """The (1,...,1,m-n+1) quota meets the maximin floor on 10^4 random
    instances and is tight on the near-identical instance."""
    details = []
    for n, m in ((2, 4), (2, 6), (3, 6)):
        bound = rho_bound(n, m)
        q = (1,) * (n - 1) + (m - n + 1,)
        mech = serial_quota(q, tuple(range(n)), additive_class(m))
        audit = rho_mms_audit(mech, GeneratorSpec(n, m, families=("identical",)))
        rel = abs(audit.worst_ratio - bound) / bound
        if rel > Fraction(1, 1000):
            return False, (
                f"tightness off at ({n},{m}): worst={audit.worst_ratio} "
                f"vs bound={bound}"
            )
        holds, worst, first = rho_floor_sweep(n, m, 10_000, seed=600 + 10 * n + m)
        if not holds:
            return False, (
                f"floor broken at ({n},{m}): worst={worst}, instance={first}"
            )
        details.append(f"({n},{m}): bound={bound}, random worst={float(worst):.4f}")
    return True, "; ".join(details)


@cache
def _ef1_equivalence():
    results = []
    for n in (1, 2, 3):
        for m in range(1, 6):
            domain = additive_class(m)
            spec = GeneratorSpec(n, m, count=100, seed=700 + 10 * n + m)
            for qo in enumerate_q(n, m):
                mech = SerialQuota(n, m, domain, qo)
                audit = ef1_audit(mech, spec)
                feasible = ef1_quota_feasibility(qo.q)
                clean = len(audit.ef1_violations) == 0
                results.append((n, m, qo, mech, feasible, audit, clean == feasible))
    return results


def ac7() -> tuple[bool, str]:
    """Adversarial EF1 audits agree with quota feasibility for every canonical
    vector at n <= 3, m <= 5; the maximal feasible vector survives 10^4
    random instances."""
    results = _ef1_equivalence()
    for n, m, qo, _mech, feasible, audit, ok in results:
        if not ok:
            return False, (
                f"audit/feasibility mismatch at ({n},{m}) q={qo.q} p={qo.p}: "
                f"feasible={feasible}, violations={len(audit.ef1_violations)}"
            )
    quota = canonicalize((1, 1, 2), (0, 1, 2), 5)
    count, first = ef1_random_sweep(quota, 5, 10_000, seed=77)
    if count:
        return False, f"(1,1,2) violated EF1 on {count} random instances: {first}"
    return True, (
        f"{len(results)} quota vectors match feasibility; (1,1,2) clean on "
        f"10^4 random instances"
    )


def ac8() -> tuple[bool, str]:
    """Push-up reports never move the allocation: the exhaustive push-up
    check at every profile of every quota mechanism at (2,3) and (3,3).
    Single-agent push-ups decide multi-agent ones (`engine.push_up_violation`)."""
    swept = _sweep([(n, m, lex_class(m)) for n, m in ((2, 3), (3, 3))], [PUSH_UP])
    if isinstance(swept, str):
        return False, swept
    return True, (
        f"{swept[0]} quota mechanisms at (2,3) and (3,3): no push-up moves the "
        f"allocation at any of {swept[1]} profiles"
    )


def ac9() -> tuple[bool, str]:
    """Cardinally different but ordinally equal valuations allocate identically."""
    rng = np.random.default_rng(90)
    mechs = [
        serial_quota((1, 1, 3), (0, 1, 2), additive_class(5)),
        serial_quota((1, 3), (0, 1), additive_class(4)),
        RoundRobin(3, 5, additive_class(5)),
    ]
    pairs = 0
    for mech in mechs:
        n, m = mech.n, mech.m
        for t in range(334):
            inst1 = CardinalInstance.from_values(strict_integer_rows(rng, n, m).tolist())
            if t % 2 == 0:
                c = Fraction(int(rng.integers(1, 50)), int(rng.integers(1, 50)))
                other = [tuple(c * v for v in val.values) for val in inst1.valuations]
            else:
                other = [_perturb_row(val, rng) for val in inst1.valuations]
            inst2 = CardinalInstance.from_values(other)
            for a, b in zip(inst1.valuations, inst2.valuations):
                if a.rank != b.rank:
                    return False, "transform changed the induced preference"
            if cardinal_apply(mech, inst1) != cardinal_apply(mech, inst2):
                return False, (
                    f"allocation moved under ordinally equal valuations: "
                    f"{inst1} vs {inst2}"
                )
            pairs += 1
    return True, f"{pairs} ordinally equal pairs, identical allocations"


def _perturb_row(val: AdditiveStrict, rng) -> tuple[Fraction, ...]:
    """Shift each value by less than half the smallest subset-sum gap so the
    subset ranking cannot change."""
    m = val.m
    gap = Fraction(int(np.diff(np.sort(val.subset_sums())).min()), val.scale)
    return tuple(
        v + gap * int(rng.integers(0, 1000)) / (1000 * 4 * m) for v in val.values
    )


def ac10() -> tuple[bool, str]:
    """Every failure witness from criteria 2-7 replays standalone."""
    replayed = 0
    for n, m, cls, qo, _per, _report, log in _mutation_runs():
        sq = SerialQuota(n, m, cls, qo)
        base = [tuple(row) for row in engine.allocation_table(sq).tolist()]
        for entry in log:
            table = base.copy()
            table[entry["profile_index"]] = tuple(entry["replacement"])
            mutant = TableMechanism(n, m, cls, tuple(table))
            report = PropertyReport(
                entry["failed_axiom"], False, entry["axiom_witness"], 0
            )
            if not replay_witness(mutant, report):
                return False, f"mutation witness failed replay: {entry}"
            replayed += 1
    for name, (mech, broken, reports) in _counterexample_reports().items():
        for key in (CONTROL_CLAIM, broken):
            if not replay_witness(mech, reports[key]):
                return False, f"{name} {key} witness failed replay"
            replayed += 1
    inst, alloc, blocking = _intro_case()
    if not verify_blocking(alloc, inst.valuations, blocking):
        return False, "intro blocking witness failed replay"
    replayed += 1
    built = {}  # each distinct instance is built and tie-checked once
    for n, m, qo, mech, _feasible, audit, _ok in _ef1_equivalence():
        for k, i, j in audit.ef1_violations:
            key = (n, m, audit.values[k].tobytes(), audit.scales[k].tobytes())
            if key not in built:
                built[key] = audit.instance(k)
            vinst = built[key]
            alloc = cardinal_apply(mech, vinst)
            if check_ef1(alloc, vinst).witness != {"envious": i, "envied": j}:
                return False, (
                    f"EF1 witness failed replay at ({n},{m}) q={qo.q}: "
                    f"agents {i}->{j}"
                )
            replayed += 1
    if replayed == 0:
        return False, "no witnesses were produced to replay"
    return True, f"{replayed} witnesses replayed, all confirmed"


def ac11() -> tuple[bool, str]:
    """Exhaustive search past the product loop's reach: at (2,3) and (3,3)
    lex in both modes, (2,3) strict_monotone_all allocation and (2,4) lex
    allocation, exactly the quota family survives."""
    parts = []
    for n, m, cls, partition_only in (
        (2, 3, lex_class(3), True),
        (2, 3, lex_class(3), False),
        (3, 3, lex_class(3), True),
        (2, 3, strict_monotone_class(3), False),
        (3, 3, lex_class(3), False),
        (2, 4, lex_class(4), False),
    ):
        report = verify_characterization(n, m, cls, partition_only)
        mode = f"{cls.tag} {'partition' if partition_only else 'allocation'}"
        if report.verdict != "sets-equal" or len(report.satisfying) != len(report.family):
            return False, (
                f"({n},{m}) {mode}: verdict={report.verdict}, "
                f"{len(report.satisfying)} satisfying vs family {len(report.family)}"
            )
        parts.append(f"({n},{m}) {mode} {len(report.satisfying)} in {report.nodes} nodes")
    return True, "sets-equal at " + ", ".join(parts)


CRITERIA = (
    ("AC1", "axioms hold for every quota mechanism (exhaustive)", ac1),
    ("AC2", "only quota mechanisms satisfy the axioms at (2,2)", ac2),
    ("AC3", "single-cell mutants always break an axiom", ac3),
    ("AC4", "Pareto efficiency, plus the inefficient motivating instance", ac4),
    ("AC5", "control claim: proved for quota mechanisms, refuted for counterexamples", ac5),
    ("AC6", "maximin floor and tightness for (1,...,1,m-n+1)", ac6),
    ("AC7", "EF1 audit matches quota feasibility", ac7),
    ("AC8", "push-up reports never move the allocation", ac8),
    ("AC9", "cardinal wrapper depends only on induced preferences", ac9),
    ("AC10", "all emitted witnesses replay standalone", ac10),
    ("AC11", "only quota mechanisms satisfy the axioms at (2,3), (3,3) and (2,4)", ac11),
)


@dataclass(frozen=True)
class Outcome:
    name: str
    title: str
    passed: bool
    detail: str
    seconds: float


def run_criterion(name: str, title: str, fn) -> Outcome:
    start = time.perf_counter()
    try:
        passed, detail = fn()
    except Exception as exc:  # surface the failure, never hide it
        passed, detail = False, f"raised {type(exc).__name__}: {exc}"
    return Outcome(name, title, passed, detail, time.perf_counter() - start)


def run_all() -> list[Outcome]:
    return [run_criterion(name, title, fn) for name, title, fn in CRITERIA]

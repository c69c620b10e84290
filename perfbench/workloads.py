"""The three workloads: their seeded item lists, how one verdict runs, and the
answer the paper proves for each verdict.

A workload is a fixed list of items.  One item is one verdict: one call into
the workload's top-level public function (for `reverse_search`, together with
the replay of the witnesses it logged).  Every seeded draw comes from the
single `--seed` through `derive`, so the same seed gives the same items.

Library functions are looked up on their module at call time, so the
tracer's wrappers (installed at those attributes) see every call.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

WORKLOADS = ("forward_axioms", "reverse_search", "fairness_audit")

# Reverse direction: the enumeration gate `scripts/characterize.py` applies.
ENUMERATION_CAP = 10**7
PUSH_UP_TRIALS = 100

SIZES: dict[str, dict[str, Any]] = {
    "full": {
        "forward_all": ((3, 4), (2, 5)),
        "forward_subset": ((4, 4), 1),
        "sweep_max": (3, 3),
        # (n, m, calls on seeded partition bases, trials per call, witnesses logged per call)
        "mutation": ((3, 4, 24, 3, 1), (2, 5, 12, 2, 1), (4, 4, 1, 2, 1)),
        "mms": ((3, 6, (3, 1, 2)), (2, 8, (2, 6))),
        "mms_count": 20,
        "ef1": (3, 5),
        "ef1_count": 20,
        # (n, m, calls, instances per call): several calls per size keep the
        # tail percentile inside a group of similar verdicts
        "floor": ((3, 6, 4, 500), (3, 8, 4, 50)),
        "ef1_random": ((1, 1, 2), 5, 2, 5000),
    },
    "tiny": {
        "forward_all": ((2, 3),),
        "forward_subset": ((3, 3), 2),
        "sweep_max": (2, 2),
        "mutation": ((2, 3, 2, 3, 2), (3, 3, 1, 2, 1)),
        "mms": ((2, 4, (2, 2)),),
        "mms_count": 5,
        "ef1": (2, 4),
        "ef1_count": 5,
        "floor": ((2, 4, 1, 100),),
        "ef1_random": ((1, 2), 3, 1, 200),
    },
}


def derive(seed: int, label: str) -> int:
    """Independent 32-bit seed for one named draw of one run."""
    return random.Random(f"serialquota-bench:{seed}:{label}").randrange(2**32)


@dataclass
class Item:
    """One verdict: `run()` returns the library's answer, `score(result)`
    returns None when it matches the paper's answer or a mismatch message,
    and `payload(result)` builds the JSON report `--out` would write.
    `kind` names the function the verdict calls and its (n, m); see
    `interleave`."""

    kind: str
    label: str
    run: Callable[[], Any]
    score: Callable[[Any], str | None]
    payload: Callable[[Any], dict]


def rho_floor(n: int, m: int) -> Fraction:
    """Maximin guarantee of the (1, ..., 1, m-n+1) quota: 1/floor((m-n+2)/2)."""
    return Fraction(1, (m - n + 2) // 2)


def ef1_feasible(q) -> bool:
    """The paper's EF1 rule: no quota before the last exceeds 1, and the last
    reaches 2 only when every earlier quota is exactly 1."""
    head, last = tuple(q[:-1]), q[-1]
    if any(x > 1 for x in head):
        return False
    return last <= 1 or (last == 2 and all(x == 1 for x in head))


def dumps(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)


# ---------------------------------------------------------------- set-up


def classes_for(workload: str, size: str, sq) -> dict:
    """The preference classes a workload uses, keyed by (tag, m)."""
    cfg = SIZES[size]
    keys: set[tuple[str, int]] = set()
    if workload == "forward_axioms":
        for n, m in cfg["forward_all"] + (cfg["forward_subset"][0],):
            keys.add(("lex", m))
        keys.update({("lex", 2), ("lex", 3)})
    elif workload == "reverse_search":
        for m in range(1, cfg["sweep_max"][1] + 1):
            keys.update({("lex", m), ("strict_monotone_all", m)})
        for n, m, *_ in cfg["mutation"]:
            keys.add(("lex", m))
    else:
        return {}
    out = {}
    for tag, m in sorted(keys):
        out[(tag, m)] = sq.prefs.class_from_tag(tag, m)
    return out


def build_tables(classes: dict, sq, span) -> None:
    """Fill the engine's per-class caches that set-up pays for."""
    for cls in classes.values():
        for fn in ("rank_matrix", "demand_tables", "strong_desire_matrix"):
            with span("engine.tables"):
                getattr(sq.engine, fn)(cls)


# ---------------------------------------------------------------- forward


def forward_items(seed: int, size: str, sq, classes: dict, mislabel: bool) -> list[Item]:
    cfg = SIZES[size]
    mechs = []  # (label, mechanism, expected outcome per check)

    def quota_expect(n, m, qo):
        exp = {
            "check_truthful": True,
            "check_non_bossy": True,
            "check_neutral": True,
            "check_partition": sum(qo.q) == m,
            "check_control_claim": True,
            "check_push_up_invariance": True,
        }
        if (n, m) in cfg["forward_all"] and sum(qo.q) == m:
            exp["check_pareto_efficient"] = True
        return exp

    def add_quota(n, m, qo):
        mech = sq.SerialQuota(n, m, classes[("lex", m)], qo)
        mechs.append((f"sq{n}{m} q={qo.q} p={qo.p}", mech, quota_expect(n, m, qo)))

    for n, m in cfg["forward_all"]:
        for qo in sq.search.enumerate_q(n, m):
            add_quota(n, m, qo)
    (n, m), k = cfg["forward_subset"]
    family = sq.search.enumerate_q(n, m)
    for i in sorted(random.Random(derive(seed, "forward-subset")).sample(range(len(family)), k)):
        add_quota(n, m, family[i])

    lex2, lex3 = classes[("lex", 2)], classes[("lex", 3)]
    counters = (
        ("counter_non_truthful", sq.CounterNonTruthful(2, 2, lex2), "check_truthful", False),
        ("counter_bossy", sq.CounterBossy(3, 3, lex3), "check_non_bossy", False),
        ("counter_non_neutral", sq.CounterNonNeutral(3, 3, lex3, 0, 1), "check_neutral", True),
    )
    for label, mech, broken, push_up_holds in counters:
        exp = {
            "check_truthful": True,
            "check_non_bossy": True,
            "check_neutral": True,
            "check_partition": True,
            "check_control_claim": False,
            # From the exhaustive check: the two counterexamples that break
            # truthfulness or non-bossiness move allocations under push-ups,
            # and a sampled trial finds that with probability >= 1/2, so 100
            # trials miss it with probability below 1e-30.
            "check_push_up_invariance": push_up_holds,
        }
        exp[broken] = False
        if mislabel and label == "counter_non_truthful":
            exp[broken] = True
        mechs.append((label, mech, exp))

    items = []
    for label, mech, expect in mechs:
        for check, want in expect.items():
            items.append(_axiom_item(sq, label, mech, check, want, seed))
    return items


def _axiom_item(sq, label, mech, check, want, seed) -> Item:
    P = sq.properties
    if check == "check_push_up_invariance":
        rng_seed = derive(seed, f"push-up:{label}")

        def run():
            return getattr(P, check)(mech, trials=PUSH_UP_TRIALS, rng_seed=rng_seed)
    else:

        def run():
            return getattr(P, check)(mech)

    def score(report):
        if report.holds != want:
            return f"{label} {check}: holds={report.holds}, paper says {want}"
        return None

    def payload(report):
        return {
            "mechanism": sq.serialize.mechanism_to_json(mech),
            "reports": [sq.serialize.report_to_json(report)],
        }

    return Item(f"{check} n={mech.n} m={mech.m}", f"{label} {check}", run, score, payload)


# ---------------------------------------------------------------- reverse


def reverse_items(seed: int, size: str, sq, classes: dict) -> list[Item]:
    cfg = SIZES[size]
    max_n, max_m = cfg["sweep_max"]
    items = []
    for n in range(1, max_n + 1):
        for m in range(1, max_m + 1):
            for tag in ("lex", "strict_monotone_all"):
                cls = classes[(tag, m)]
                for partition_only in (True, False):
                    choices = (n if partition_only else n + 1) ** m
                    if not _under_cap(choices, len(cls) ** n):
                        continue
                    items.append(_verify_item(sq, n, m, cls, partition_only))
    for n, m, calls, trials, log_size in cfg["mutation"]:
        cls = classes[("lex", m)]
        family = sq.search.enumerate_q(n, m, partition_only=True)
        pick = random.Random(derive(seed, f"mutation-bases:{n}{m}"))
        for call in range(calls):
            base = family[pick.randrange(len(family))]
            mseed = derive(seed, f"mutation:{n}{m}:{call}")
            items.append(_mutation_item(sq, n, m, cls, base, trials, mseed, log_size))
    return items


def _under_cap(choices: int, profiles: int) -> bool:
    """choices ** profiles <= ENUMERATION_CAP, without building huge ints."""
    if choices <= 1:
        return True
    return profiles < ENUMERATION_CAP.bit_length() and choices**profiles <= ENUMERATION_CAP


def _verify_item(sq, n, m, cls, partition_only) -> Item:
    mode = "partition" if partition_only else "allocation"
    label = f"verify n={n} m={m} {cls.tag} {mode}"

    def run():
        return sq.search.verify_characterization(n, m, cls, partition_only)

    def score(report):
        if report.verdict != "sets-equal" or len(report.satisfying) != len(report.family):
            return (
                f"{label}: verdict={report.verdict}, {len(report.satisfying)} "
                f"satisfying vs family {len(report.family)}"
            )
        return None

    return Item("verify", label, run, score, sq.serialize.characterization_to_json)


def _mutation_item(sq, n, m, cls, base, trials, mseed, log_size) -> Item:
    label = f"mutate n={n} m={m} q={base.q} p={base.p}"
    P = sq.properties

    def run():
        report, log = sq.search.mutate_with_log(base, cls, trials, mseed, log_size)
        replayed = []
        if log:
            sq_mech = sq.SerialQuota(n, m, cls, base)
            rows = list(map(tuple, sq.engine.allocation_table(sq_mech).tolist()))
            for entry in log:
                mutant_rows = list(rows)
                mutant_rows[entry["profile_index"]] = tuple(entry["replacement"])
                mutant = sq.TableMechanism(n, m, cls, tuple(mutant_rows))
                claim = P.PropertyReport(entry["failed_axiom"], False, entry["axiom_witness"], 0)
                replayed.append(P.replay_witness(mutant, claim))
        return report, log, replayed

    def score(result):
        report, log, replayed = result
        if not report.holds:
            return f"{label}: a mutant survived: {report.witness}"
        if len(log) != min(trials, log_size):
            return f"{label}: logged {len(log)} witnesses, expected {min(trials, log_size)}"
        if not all(replayed):
            return f"{label}: {replayed.count(False)} witnesses failed replay"
        return None

    def payload(result):
        report, log, _ = result
        out = sq.serialize.report_to_json(report)
        out["log"] = log
        return out

    return Item(f"mutate n={n} m={m}", label, run, score, payload)


# ---------------------------------------------------------------- fairness


def fairness_items(seed: int, size: str, sq) -> list[Item]:
    cfg = SIZES[size]
    F = sq.fairness
    items = []
    for n, m, other in cfg["mms"]:
        guarantee = (1,) * (n - 1) + (m - n + 1,)
        spec = F.GeneratorSpec(n, m, count=cfg["mms_count"], seed=derive(seed, f"mms:{n}{m}"))
        identical = F.GeneratorSpec(n, m, families=("identical",))
        items.append(_mms_item(sq, n, m, guarantee, spec, "floor"))
        items.append(_mms_item(sq, n, m, guarantee, identical, "tight"))
        items.append(_mms_item(sq, n, m, other, spec, "below"))
    n, m = cfg["ef1"]
    spec = F.GeneratorSpec(n, m, count=cfg["ef1_count"], seed=derive(seed, f"ef1:{n}{m}"))
    for qo in sq.search.enumerate_q(n, m):
        items.append(_ef1_item(sq, n, m, qo, spec))
    for n, m, calls, count in cfg["floor"]:
        for call in range(calls):
            items.append(_floor_item(sq, n, m, count, derive(seed, f"floor:{n}{m}:{call}")))
    q, m, calls, count = cfg["ef1_random"]
    for call in range(calls):
        items.append(_ef1_random_item(sq, q, m, count, derive(seed, f"ef1-random:{call}")))
    return items


def _mms_item(sq, n, m, q, spec, claim) -> Item:
    """claim: 'floor' (worst >= bound), 'tight' (within 1/1000 of the bound
    on the identical instance) or 'below' (a vector whose first picker takes
    at least n goods: on the targeted instance the last picker values only
    those goods, has a maximin share of at least the smallest of them and
    receives goods worth eps each, so the ratio falls below the bound)."""
    F = sq.fairness
    mech = sq.serial_quota(q, tuple(range(n)), sq.prefs.additive_class(m))
    bound = rho_floor(n, m)
    label = f"mms {claim} n={n} m={m} q={q}"

    def run():
        return F.rho_mms_audit(mech, spec)

    def score(audit):
        worst = audit.worst_ratio
        ok = {
            "floor": worst >= bound,
            "tight": abs(worst - bound) / bound <= Fraction(1, 1000),
            "below": worst < bound,
        }[claim]
        return None if ok else f"{label}: worst ratio {worst} vs bound {bound}"

    def payload(audit):
        out = sq.serialize.audit_to_json(audit)
        out["floor"] = sq.serialize.fraction_to_json(bound)
        return out

    return Item(f"mms n={n} m={m}", label, run, score, payload)


def _ef1_item(sq, n, m, qo, spec) -> Item:
    F = sq.fairness
    mech = sq.SerialQuota(n, m, sq.prefs.additive_class(m), qo)
    feasible = ef1_feasible(qo.q)
    label = f"ef1 n={n} m={m} q={qo.q} p={qo.p}"

    def run():
        return F.ef1_audit(mech, spec)

    def score(audit):
        clean = not audit.ef1_violations
        if clean != feasible:
            return f"{label}: {len(audit.ef1_violations)} violations, feasible={feasible}"
        return None

    def payload(audit):
        out = sq.serialize.audit_to_json(audit)
        out["feasible"] = feasible
        return out

    return Item("ef1", label, run, score, payload)


def _floor_item(sq, n, m, count, fseed) -> Item:
    bound = rho_floor(n, m)
    label = f"rho_floor_sweep n={n} m={m} count={count}"

    def run():
        return sq.fairness.rho_floor_sweep(n, m, count, fseed)

    def score(result):
        holds, worst, _ = result
        if not holds or worst < bound:
            return f"{label}: holds={holds}, worst {worst} vs bound {bound}"
        return None

    def payload(result):
        holds, worst, first = result
        return {
            "holds": holds,
            "worst_ratio": sq.serialize.fraction_to_json(worst),
            "first_violation": None if first is None else sq.serialize.instance_to_json(first),
        }

    return Item(f"floor n={n} m={m}", label, run, score, payload)


def _ef1_random_item(sq, q, m, count, fseed) -> Item:
    quota = sq.canonicalize(q, tuple(range(len(q))), m)
    label = f"ef1_random_sweep q={q} m={m} count={count}"

    def run():
        return sq.fairness.ef1_random_sweep(quota, m, count, fseed)

    def score(result):
        violations, _ = result
        return None if violations == 0 else f"{label}: {violations} EF1 violations"

    def payload(result):
        violations, first = result
        return {
            "violations": violations,
            "first": None
            if first is None
            else {"instance": sq.serialize.instance_to_json(first[0]), "envious": first[1], "envied": first[2]},
        }

    return Item("ef1_random", label, run, score, payload)


def interleave(items: list[Item]) -> list[Item]:
    """Spread each kind of verdict evenly over the pass.

    The j-th of the k items of one kind goes to position (j + 1/2) / k, ties
    kept in build order.  The host's speed drifts within a pass; with each
    kind spread over the whole pass, a per-pass median or percentile blends
    that drift the way `wall_s` does, instead of catching it at one moment.
    The lazy caches hold every key a workload uses, so the order changes
    only which verdict fills a cache, not how much work a pass does.
    """
    total = Counter(item.kind for item in items)
    seen: Counter = Counter()
    keyed = []
    for idx, item in enumerate(items):
        keyed.append(((seen[item.kind] + 0.5) / total[item.kind], idx, item))
        seen[item.kind] += 1
    return [item for _pos, _idx, item in sorted(keyed)]


def items_for(workload: str, seed: int, size: str, sq, classes: dict, mislabel: bool) -> list[Item]:
    if workload == "forward_axioms":
        items = forward_items(seed, size, sq, classes, mislabel)
    elif workload == "reverse_search":
        items = reverse_items(seed, size, sq, classes)
    else:
        items = fairness_items(seed, size, sq)
    return interleave(items)

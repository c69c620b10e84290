"""Axiom checkers: truthfulness, non-bossiness, neutrality, efficiency, control.

`check(mech, props)` is the one route to a property report.  It refuses an
unknown property and any property whose own table would pass its cap before
it builds the mechanism's allocation table, then builds that table once,
scans it for each property with the vectorized kernels in `engine` and
reports the lowest-indexed violation as a witness of plain ints, so reports
serialize directly and can be replayed through the pure-Python
`mechanisms.apply` path by `replay_witness` without touching numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Any

import numpy as np

from . import engine
from .mechanisms import Allocation, Mechanism, apply, index_to_profile
from .prefs import (
    Ordering,
    Permutation,
    PreferenceClass,
    compare,
    is_push_up,
    permute_preference,
    strongly_desires,
)

TRUTHFUL = "truthful"
NON_BOSSY = "non_bossy"
NEUTRAL = "neutral"
PARTITION = "partition"
PARETO = "pareto_efficient"
PUSH_UP = "push_up_invariance"
CONTROL_CLAIM = "control_claim"

AXIOMS = (TRUTHFUL, NON_BOSSY, NEUTRAL)
_KERNELS = {
    TRUTHFUL: "truthful_violation",
    NON_BOSSY: "nonbossy_violation",
    NEUTRAL: "neutrality_violation",
    PARTITION: "partition_violation",
    PARETO: "pareto_violation",
    PUSH_UP: "push_up_violation",
    CONTROL_CLAIM: "control_violation",
}

@dataclass(frozen=True)
class PropertyReport:
    """Outcome of one property check.  profiles_checked counts what the check
    covered: profiles for an exhaustive axiom check, sampled pairs for the
    sampled push-up check, mutants for mutation falsification and 1 for
    `fairness.check_ef1` on one allocation.  Fairness audits return a
    `fairness.FairnessAudit` instead."""

    property: str
    holds: bool
    witness: dict[str, Any] | None
    profiles_checked: int


def _witness(
    prop: str, table: np.ndarray, cls: PreferenceClass, n: int, at: int | None = None
) -> dict[str, Any] | None:
    """The lowest-indexed violation of one property in an allocation table,
    as a witness of plain ints, or None when the property holds.  `at`
    restricts a characterization axiom's kernel to the violations that
    involve that profile.

    Kernels are looked up on `engine` at each call, so wrappers installed on
    that module after import see every call.
    """
    kernel = getattr(engine, _KERNELS[prop])
    hit = kernel(table, cls, n) if at is None else kernel(table, cls, n, at=at)
    if hit is None:
        return None
    if prop == PARTITION:
        idx, union = hit
        return {"profile_index": idx, "union": union}
    if prop == PUSH_UP:
        idx, agent, alt = hit
        c = len(cls)
        w = c ** (n - 1 - agent)  # agent's digit weight
        push = idx + (alt - idx // w % c) * w
        return {"profile_index": idx, "push_profile_index": push}
    if prop in (TRUTHFUL, NON_BOSSY):
        idx, agent, alt = hit
        witness = {"profile_index": idx, "agent": agent, "alt_index": alt}
        if prop == TRUTHFUL:
            witness["true_bundle"] = int(table[idx, agent])
        return witness
    if prop == NEUTRAL:
        idx, pos = hit
        return {"profile_index": idx, "perm": list(cls.generators[pos][0].map)}
    if prop == PARETO:
        idx, bundles = hit
        return {"profile_index": idx, "blocking_bundles": list(bundles)}
    s, agent, trig, viol = hit
    return {
        "s": s,
        "agent": agent,
        "trigger_profile_index": trig,
        "violating_profile_index": viol,
    }


def check(mech: Mechanism, props) -> list[PropertyReport]:
    """One report per property in props, in order, from one allocation
    table: the table is built once and each property's kernel scans it.
    Every report counts the table's profiles.

    Nothing is built for a check that cannot be decided: an unknown
    property raises ValueError, and the push-up and Pareto gates, which do
    not depend on the profiles, run before the allocation table is built
    (the push-up one building the class's cached table).
    """
    props = list(props)
    unknown = [prop for prop in props if prop not in _KERNELS]
    if unknown:
        raise ValueError(f"unknown properties {unknown}; choose from {sorted(_KERNELS)}")
    cls = mech.domain
    if PUSH_UP in props:
        engine.push_up_matrix(cls)
    if PARETO in props:
        engine.assignment_count(mech.n, cls.m)
    table = engine.allocation_table(mech)
    reports = []
    for prop in props:
        witness = _witness(prop, table, mech.domain, mech.n)
        reports.append(PropertyReport(prop, witness is None, witness, table.shape[0]))
    return reports


def first_axiom_violation(
    table: np.ndarray, cls: PreferenceClass, n: int, *, at: int | None = None
) -> tuple[str, dict[str, Any]] | None:
    """The first characterization axiom the table breaks, tried in the order
    truthful, non-bossy, neutral, with its witness; None if all three hold.

    With `at`, only the pairs of profiles that involve profile `at` are
    scanned: its deviation row for each agent, and `at` with its image and
    preimage under each neutrality generator.  When the table breaks no
    axiom away from `at` (a valid table with `at` overwritten), every
    violation involves `at`, so the answer is the full scan's.
    """
    for prop in AXIOMS:
        witness = _witness(prop, table, cls, n, at)
        if witness is not None:
            return prop, witness
    return None


# perfbench's forward_axioms workload calls each single-property wrapper by name.
def check_truthful(mech: Mechanism) -> PropertyReport:
    """No agent can strictly gain by misreporting, at any profile."""
    return check(mech, [TRUTHFUL])[0]


def check_non_bossy(mech: Mechanism) -> PropertyReport:
    """No report change can move others' bundles while one's own stays fixed."""
    return check(mech, [NON_BOSSY])[0]


def check_neutral(mech: Mechanism) -> PropertyReport:
    """Relabeling goods commutes with the mechanism.

    Exact at every m: the check covers every profile under the two
    generators of S_m held by `cls.generators`, and covariance under
    generators is covariance under the whole group.  A witness names the
    generator that breaks.
    """
    return check(mech, [NEUTRAL])[0]


def check_partition(mech: Mechanism) -> PropertyReport:
    """Every good is allocated at every profile."""
    return check(mech, [PARTITION])[0]


def check_pareto_efficient(mech: Mechanism) -> PropertyReport:
    """No reassignment of goods weakly improves all agents and strictly one.

    Compares against every one of the (n+1)^m labeled assignments (a good may
    also be left unallocated), so it certifies efficiency among all feasible
    allocations, not just partitions.  Raises TooLarge when the profiles
    pass PROFILE_CAP (`engine.allocation_table`) or the assignments' bundle
    table, (n+1)^m rows of n, would (`engine.assignment_count`): under the
    profile cap that only happens with one member, at m = 1.
    """
    return check(mech, [PARETO])[0]


def check_control_claim(mech: Mechanism) -> PropertyReport:
    """Control transfers from one profile to all: if some profile has every
    agent strongly desiring S and agent i receiving all of S, then i must
    receive all of S whenever she strongly desires it."""
    return check(mech, [CONTROL_CLAIM])[0]


def check_push_up_invariance(
    mech: Mechanism,
    trials: int = 200,
    rng_seed: int = 0,
) -> PropertyReport:
    """Allocation is unchanged when agents push their own bundles up, sampled.

    A push-up of agent i's report keeps everything she ranked weakly below
    her assigned bundle weakly below it.  Each trial draws a uniform profile
    and, per agent, a uniform in-class push-up; all trials are drawn in one
    batch, and the first one that moves the allocation is the witness.
    profiles_checked counts the pairs up to and including the witness, or
    every pair when none moves.  No reported verdict rests on it, since
    `check(mech, [PUSH_UP])` decides every profile; perfbench's
    `forward_axioms` workload times it by name.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    cls = mech.domain
    up = engine.push_up_matrix(cls)
    table = engine.allocation_table(mech)
    c = len(cls)
    n = mech.n
    weights = c ** np.arange(n - 1, -1, -1)  # agent i's digit weighs c^(n-1-i)
    rng = np.random.default_rng(rng_seed)
    digits = rng.integers(0, c, size=(trials, n))
    idx = digits @ weights
    bundles = table[idx]
    cands = up[digits, bundles]  # [trial, agent, member]
    # The largest uniform key among the candidates picks one of them uniformly.
    pushed = np.where(cands, rng.random(cands.shape), -1.0).argmax(axis=2)
    jdx = pushed @ weights
    moved = np.flatnonzero((table[jdx] != bundles).any(axis=1))
    if not moved.size:
        return PropertyReport(PUSH_UP, True, None, trials)
    k = int(moved[0])
    witness = {"profile_index": int(idx[k]), "push_profile_index": int(jdx[k])}
    return PropertyReport(PUSH_UP, False, witness, k + 1)


def verify_blocking(alloc: Allocation, profile, bundles) -> bool:
    """Whether the proposed bundles weakly improve on alloc for everyone and
    strictly for someone, judged by compare alone."""
    weak, strict = True, False
    for j, new in enumerate(bundles):
        if new == alloc.bundles[j]:
            continue
        if compare(profile[j], alloc.bundles[j], new) is Ordering.LESS:
            strict = True
        else:
            weak = False
    return weak and strict


def pareto_blocking(alloc: Allocation, profile) -> tuple[int, ...] | None:
    """Lowest-indexed feasible reallocation Pareto-dominating alloc, or None.

    Scans all (n+1)^m labeled assignments (goods may stay unallocated) as
    owner tuples, good 0 most significant and owner n meaning nobody: the
    order and the cap (`engine.assignment_count`) of the engine's table.  So
    it works for a single allocation/profile pair without a mechanism.
    """
    n = alloc.n
    m = alloc.m
    if len(profile) != n:
        raise ValueError("profile/allocation size mismatch")
    engine.assignment_count(n, m)
    for owners in product(range(n + 1), repeat=m):
        bundles = tuple(sum(1 << g for g, o in enumerate(owners) if o == j) for j in range(n))
        if verify_blocking(alloc, profile, bundles):
            return bundles
    return None


def replay_witness(mech: Mechanism, report: PropertyReport) -> bool:
    """Re-derive a failure witness through the scalar apply path.

    Returns True when the witness indeed demonstrates the violation the
    report claims; a report whose property holds has nothing to replay and
    raises ValueError.
    """
    if report.holds or report.witness is None:
        raise ValueError("nothing to replay: property holds")
    w = report.witness
    cls = mech.domain
    n = mech.n
    prop = report.property
    if "profile_index" in w:  # every witness but the control claim's
        profile = index_to_profile(w["profile_index"], cls, n)
    if prop in (TRUTHFUL, NON_BOSSY):
        i = w["agent"]
        deviated = list(profile)
        deviated[i] = cls.members[w["alt_index"]]
        before = apply(mech, profile)
        after = apply(mech, tuple(deviated))
        if prop == TRUTHFUL:
            if after.bundles[i] == before.bundles[i]:
                return False
            return (
                compare(profile[i], before.bundles[i], after.bundles[i])
                is Ordering.LESS
            )
        return after.bundles[i] == before.bundles[i] and after != before
    if prop == NEUTRAL:
        pi = Permutation(tuple(w["perm"]))
        renamed = tuple(permute_preference(p, pi) for p in profile)
        return apply(mech, renamed) != apply(mech, profile).permute(pi)
    if prop == PARTITION:
        return not apply(mech, profile).is_partition
    if prop == PARETO:
        cur = apply(mech, profile)
        return verify_blocking(cur, profile, w["blocking_bundles"])
    if prop == PUSH_UP:
        pushed = index_to_profile(w["push_profile_index"], cls, n)
        before = apply(mech, profile)
        for j in range(n):
            if not is_push_up(pushed[j], profile[j], before.bundles[j]):
                return False
        return apply(mech, pushed) != before
    if prop == CONTROL_CLAIM:
        s, i = w["s"], w["agent"]
        trig = index_to_profile(w["trigger_profile_index"], cls, n)
        viol = index_to_profile(w["violating_profile_index"], cls, n)
        if not all(strongly_desires(p, s) for p in trig):
            return False
        if apply(mech, trig).bundles[i] & s != s:
            return False
        if not strongly_desires(viol[i], s):
            return False
        return apply(mech, viol).bundles[i] & s != s
    raise ValueError(f"unknown property {prop!r}")


"""Axiom checkers: truthfulness, non-bossiness, neutrality, efficiency, control.

Each check_* function scans every profile over the mechanism's preference
class via the vectorized tables in `engine` and reports the lowest-indexed
violation as a witness of plain ints, so reports serialize directly and can
be replayed through the pure-Python `mechanisms.apply` path by
`replay_witness` without touching numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations, product
from typing import Any

import numpy as np

from . import engine
from .errors import NotEnumerable, TooLarge, UnsupportedPreference
from .mechanisms import Allocation, Mechanism, apply, index_to_profile
from .prefs import (
    Lexicographic,
    Ordering,
    Permutation,
    Preference,
    PreferenceClass,
    compare,
    full_mask,
    goods_of,
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
    PARETO: "pareto_violation",
    PUSH_UP: "push_up_violation",
    CONTROL_CLAIM: "control_violation",
}

PARETO_MAX_AGENTS = 3
PARETO_MAX_GOODS = 6


@dataclass(frozen=True)
class PropertyReport:
    """Outcome of one axiom check over the full profile space."""

    property: str
    holds: bool
    witness: dict[str, Any] | None
    profiles_checked: int


@dataclass(frozen=True)
class TradingCycle:
    """agents[j] passes goods[j] to agents[(j+1) % k]; every trader strictly gains."""

    agents: tuple[int, ...]
    goods: tuple[int, ...]


def _require_enumerable(mech: Mechanism) -> int:
    if not mech.domain.enumerable:
        raise NotEnumerable(f"domain {mech.domain.tag} cannot be enumerated")
    return len(mech.domain) ** mech.n


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
    if prop == PARTITION:
        idx = engine.partition_violation(table, cls.m)
        if idx is None:
            return None
        return {"profile_index": idx, "union": int(np.bitwise_or.reduce(table[idx]))}
    kernel = getattr(engine, _KERNELS[prop])
    hit = kernel(table, cls, n) if at is None else kernel(table, cls, n, at=at)
    if hit is None:
        return None
    if prop == PUSH_UP:
        idx, agent, alt = hit
        c = len(cls)
        digit = int(engine.digit_array(c, n)[idx, agent])
        push = idx + (alt - digit) * int(engine.radix_powers(c, n)[agent])
        return {"profile_index": idx, "push_profile_index": push}
    if prop in (TRUTHFUL, NON_BOSSY):
        idx, agent, alt = hit
        witness = {"profile_index": idx, "agent": agent, "alt_index": alt}
        if prop == TRUTHFUL:
            witness["true_bundle"] = int(table[idx, agent])
        return witness
    if prop == NEUTRAL:
        idx, pos = hit
        pi = engine.neutrality_perms(cls.m)[pos]
        return {"profile_index": idx, "perm": list(pi.map)}
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


def _check(prop: str, mech: Mechanism) -> PropertyReport:
    total = _require_enumerable(mech)
    witness = _witness(prop, engine.allocation_table(mech), mech.domain, mech.n)
    return PropertyReport(prop, witness is None, witness, total)


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


def check_truthful(mech: Mechanism) -> PropertyReport:
    """No agent can strictly gain by misreporting, at any profile."""
    return _check(TRUTHFUL, mech)


def check_non_bossy(mech: Mechanism) -> PropertyReport:
    """No report change can move others' bundles while one's own stays fixed."""
    return _check(NON_BOSSY, mech)


def check_neutral(mech: Mechanism) -> PropertyReport:
    """Relabeling goods commutes with the mechanism.

    Exact at every m: the check covers every profile under the two
    generators of S_m from `engine.neutrality_perms`, and covariance under
    generators is covariance under the whole group.  A witness names the
    generator that breaks.
    """
    return _check(NEUTRAL, mech)


def check_partition(mech: Mechanism) -> PropertyReport:
    """Every good is allocated at every profile."""
    return _check(PARTITION, mech)


def check_pareto_efficient(mech: Mechanism) -> PropertyReport:
    """No reassignment of goods weakly improves all agents and strictly one.

    Compares against every one of the (n+1)^m labeled assignments (a good may
    also be left unallocated), so it certifies efficiency among all feasible
    allocations, not just partitions.
    """
    if mech.n > PARETO_MAX_AGENTS or mech.m > PARETO_MAX_GOODS:
        raise TooLarge(
            f"pareto scan needs n <= {PARETO_MAX_AGENTS}, m <= {PARETO_MAX_GOODS}"
        )
    return _check(PARETO, mech)


def check_control_claim(mech: Mechanism) -> PropertyReport:
    """Control transfers from one profile to all: if some profile has every
    agent strongly desiring S and agent i receiving all of S, then i must
    receive all of S whenever she strongly desires it."""
    return _check(CONTROL_CLAIM, mech)


def controls(mech: Mechanism, agent: int, s: int) -> bool:
    """Agent receives all of s at every profile where she strongly desires it."""
    if not 0 <= agent < mech.n:
        raise ValueError(f"agent {agent} out of range")
    cls = mech.domain
    _require_enumerable(mech)
    table = engine.allocation_table(mech)
    digits = engine.digit_array(len(cls), mech.n)
    desire = engine.strong_desire_matrix(cls)[:, s]
    relevant = desire[digits[:, agent]]
    holds = (table[relevant, agent] & s) == s
    return bool(holds.all())


def find_improving_cycle(alloc: Allocation, profile) -> TradingCycle | None:
    """First single-good trading cycle all of whose participants strictly gain.

    Cycles are scanned by size, then lexicographically by agent tuple (the
    smallest participant first) and good tuple; each trader gives one good
    from her bundle to the next trader.  Intended for n <= 5.
    """
    n = alloc.n
    if len(profile) != n:
        raise ValueError("profile/allocation size mismatch")
    for size in range(2, n + 1):
        for subset in combinations(range(n), size):
            if any(alloc.bundles[a] == 0 for a in subset):
                continue
            for tail in permutations(subset[1:]):
                agents = (subset[0],) + tail
                pools = [goods_of(alloc.bundles[a]) for a in agents]
                for goods in product(*pools):
                    ok = True
                    for j, a in enumerate(agents):
                        given = 1 << goods[j]
                        received = 1 << goods[j - 1]
                        new = (alloc.bundles[a] & ~given) | received
                        if compare(profile[a], alloc.bundles[a], new) is not Ordering.LESS:
                            ok = False
                            break
                    if ok:
                        return TradingCycle(agents, goods)
    return None


def check_push_up_invariance(
    mech: Mechanism,
    trials: int = 200,
    rng_seed: int = 0,
) -> PropertyReport:
    """Allocation is unchanged when agents push their own bundles up, sampled.

    A push-up of agent i's report keeps everything she ranked weakly below
    her assigned bundle weakly below it.  Each trial draws a random profile
    and a random in-class push-up per agent; profiles_checked counts the
    pairs drawn.  `check_push_up_exhaustive` covers every profile.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    cls = mech.domain
    _require_enumerable(mech)
    c = len(cls)
    n = mech.n
    table = engine.allocation_table(mech)
    up = engine.push_up_matrix(cls)
    powers = engine.radix_powers(c, n)
    checked = 0
    witness = None
    rng = np.random.default_rng(rng_seed)
    for _ in range(trials):
        digits = rng.integers(0, c, size=n)
        idx = int(digits @ powers)
        bundles = table[idx]
        alt = []
        for j in range(n):
            cands = np.flatnonzero(up[digits[j], bundles[j]])
            alt.append(cands[int(rng.integers(0, len(cands)))])
        checked += 1
        jdx = int(np.array(alt) @ powers)
        if not np.array_equal(table[jdx], bundles):
            witness = {"profile_index": idx, "push_profile_index": jdx}
            break
    return PropertyReport(PUSH_UP, witness is None, witness, checked)


def check_push_up_exhaustive(mech: Mechanism) -> PropertyReport:
    """Push-up invariance at every profile, for every in-class push-up of
    every agent's report.

    Pushing up one agent at a time is enough (see
    `engine.push_up_violation`); a witness pushes up one agent.
    """
    return _check(PUSH_UP, mech)


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

    Scans all (n+1)^m labeled assignments (goods may stay unallocated), so it
    works for a single allocation/profile pair without a mechanism.
    """
    n = alloc.n
    m = alloc.m
    if len(profile) != n:
        raise ValueError("profile/allocation size mismatch")
    if (n + 1) ** m > 10**7:
        raise TooLarge(f"(n+1)^m = {(n + 1) ** m} assignments exceed the scan cap")
    for row in engine.assignment_masks(n, m):
        bundles = tuple(int(b) for b in row)
        if verify_blocking(alloc, profile, bundles):
            return bundles
    return None


def check_consecutive(alloc: Allocation, pref: Preference) -> bool:
    """Bundles occupy disjoint consecutive runs of the lexicographic order,
    with any unallocated goods forming the trailing run."""
    if not isinstance(pref, Lexicographic):
        raise UnsupportedPreference("consecutiveness is defined for lexicographic orders")
    pos = {g: i for i, g in enumerate(pref.order)}
    m = pref.m
    blocks = list(alloc.bundles)
    for mask in blocks:
        ps = sorted(pos[g] for g in goods_of(mask))
        if ps and ps != list(range(ps[0], ps[-1] + 1)):
            return False
    rest = full_mask(m) & ~alloc.union
    ps = sorted(pos[g] for g in goods_of(rest))
    if ps and ps != list(range(m - len(ps), m)):
        return False
    return True


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
    if prop in (TRUTHFUL, NON_BOSSY):
        profile = index_to_profile(w["profile_index"], cls, n)
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
        profile = index_to_profile(w["profile_index"], cls, n)
        pi = Permutation(tuple(w["perm"]))
        renamed = tuple(permute_preference(p, pi) for p in profile)
        return apply(mech, renamed) != apply(mech, profile).permute(pi)
    if prop == PARTITION:
        profile = index_to_profile(w["profile_index"], cls, n)
        return not apply(mech, profile).is_partition
    if prop == PARETO:
        profile = index_to_profile(w["profile_index"], cls, n)
        cur = apply(mech, profile)
        return verify_blocking(cur, profile, w["blocking_bundles"])
    if prop == PUSH_UP:
        profile = index_to_profile(w["profile_index"], cls, n)
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


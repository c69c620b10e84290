"""Vectorized profile tables used by the axiom checkers.

A mechanism over an enumerable class with C members and n agents is fully
described by its allocation table: an array of shape (C^n, n) whose row at a
profile index holds each agent's bundle bitmask.  The checkers in
`properties` scan these tables with numpy; witnesses they find are re-derived
and re-played through the pure-Python apply path.

Profile indexing is mixed-radix with agent 0 as the most significant digit,
matching `mechanisms.profile_index`: numpy's C-order ravel of a (C,)*n grid,
agent i's digit weighing C^(n-1-i).  Kernels compute the profile indices
they need inside each call and read the tables each class holds; the one
cache here, `assignment_masks`, is keyed by (n, m), so no C^n-sized array
outlives a check.
"""

from __future__ import annotations

from functools import lru_cache
from operator import attrgetter

import numpy as np

from . import mechanisms as mech_mod
from .errors import TooLarge
from .mechanisms import Mechanism, SerialQuota, TableMechanism
from .prefs import (
    PreferenceClass,
    full_mask,
    neutrality_perms,  # noqa: F401  read as engine.neutrality_perms by perfbench
)

PROFILE_CAP = 10**7
# Blocked scans size their blocks so that one block's intermediate holds at
# most about this many entries; read at call time, so tests can lower it.
CELLS = 1 << 22


# Readers of a class's tables that perfbench's set-up calls by name.
rank_matrix = attrgetter("ranks")
demand_tables = attrgetter("demands")
strong_desire_matrix = attrgetter("strong_desire")


def allocation_table(mech: Mechanism) -> np.ndarray:
    """Bundle bitmask per (profile index, agent); shape (C^n, n).

    Raises TooLarge above PROFILE_CAP profiles, before any table is built.
    """
    cls = mech.domain
    c = len(cls)
    n = mech.n
    if mech_mod.profiles_exceed(c, n, PROFILE_CAP):
        raise TooLarge(f"{c}^{n} profiles exceed the {PROFILE_CAP}-profile cap")
    if isinstance(mech, TableMechanism):
        return np.array(mech.table, dtype=np.int32)
    if isinstance(mech, SerialQuota):
        return _serial_quota_grid(mech, c, n).reshape(c**n, n)
    out = np.zeros((c**n, n), dtype=np.int32)
    for idx in range(c**n):
        profile = mech_mod.index_to_profile(idx, cls, n)
        out[idx] = mech_mod.apply(mech, profile).bundles
    return out


def _report_axes(c: int, n: int) -> int:
    """Report axes of a profile grid: one per agent, or a single one when
    the class has one member, so that a one-profile grid stays within
    numpy's 64 axes whatever n is."""
    return n if c > 1 else 1


def _serial_quota_grid(mech: SerialQuota, c: int, n: int) -> np.ndarray:
    """The serial-quota table as a (c,)*axes + (n,) grid (`_report_axes`).

    The t-th picker's bundle depends only on her report and the earlier
    pickers', so it is computed on their c^(t+1) sub-grid (axes in picking
    order), with the pool they left carried forward, and then broadcast over
    the reports of everyone else.
    """
    dt = mech.domain.demands
    dims = _report_axes(c, n)
    out = np.zeros((c,) * dims + (n,), dtype=np.int32)
    remaining = np.array(full_mask(mech.m), dtype=np.int32)  # pool on the pickers' grid
    pickers: list[int] = []
    for k, agent in zip(mech.quota.q, mech.quota.p):
        if k == 0:
            break  # zero quotas form a suffix: those agents get nothing
        got = dt[k][np.arange(c), remaining[..., None]]  # new last axis: agent's report
        pickers.append(agent)
        order = np.argsort(pickers)
        shape = [c if a in pickers else 1 for a in range(dims)]
        out[..., agent] = got.transpose(order).reshape(shape)
        remaining = remaining[..., None] & ~got
    return out


def deviation_index(c: int, n: int, agent: int, at: int | None = None) -> np.ndarray:
    """idx[r, d] = index of the profile whose other agents' digits encode r
    (mixed radix, lowest agent most significant) and whose `agent` digit is
    d; shape (c^(n-1), c).  Row r lists every report `agent` can make while
    the others stay fixed.  With `at`, only the row holding profile `at`;
    shape (1, c)."""
    w = c ** (n - 1 - agent)  # agent's digit weight
    if at is not None:
        lo = at - at // w % c * w  # `at` with agent's digit set to 0
        return np.arange(lo, lo + w * c, w)[None, :]
    r = np.arange(c ** (n - 1))
    return (r // w * (w * c) + r % w)[:, None] + np.arange(0, w * c, w)


def _deviation_blocks(c: int, n: int, agent: int, at: int | None) -> list[np.ndarray]:
    """deviation_index(c, n, agent, at) in blocks of rows small enough that a
    (rows, c, c) comparison holds at most CELLS entries (one row at least)."""
    idx = deviation_index(c, n, agent, at)
    step = max(1, CELLS // (c * c))
    return [idx[lo : lo + step] for lo in range(0, idx.shape[0], step)]


def _columns_move(table: np.ndarray, idx: np.ndarray, cols) -> np.ndarray:
    """moved[r, t, d]: some column in cols (at least one) differs between
    profiles idx[r, t] and idx[r, d]."""
    moved = None
    for j in cols:
        b = table[:, j][idx]
        diff = b[:, :, None] != b[:, None, :]
        if moved is None:
            moved = diff
        else:
            moved |= diff
    return moved


def _lowest_deviation(viol: np.ndarray, idx: np.ndarray, c: int, agent: int):
    """Lowest (profile, agent, alt) over viol[r, t, d], the profile being
    idx[r, t] and alt the deviation d; None when nothing is set."""
    if not viol.any():
        return None
    # Each profile appears once in idx, so the lowest one fixes (r, t).
    hit = np.flatnonzero(viol.any(axis=2))
    r, t = divmod(int(hit[np.argmin(idx.ravel()[hit])]), c)
    return int(idx[r, t]), agent, int(np.argmax(viol[r, t]))


def truthful_violation(
    table: np.ndarray, cls: PreferenceClass, n: int, *, at: int | None = None
):
    """Lowest (profile_idx, agent, alt_member) where the deviation strictly gains.

    Each agent's deviation rows are scanned in blocks (`_deviation_blocks`).
    A row holds a gain iff some report t ranks a bundle of the row's menu,
    its distinct bundles, above t's own; that test costs O(u*c) for a menu
    of u bundles, and only the rows that pass it are compared report by
    report.  With `at`, only each agent's deviation row holding profile
    `at` is scanned; those rows hold every violation that involves `at`.
    """
    c = len(cls)
    size = 1 << cls.m
    by_subset = np.full((size + 1, c), -1, dtype=np.int32)  # [s, t]: t's rank of s
    by_subset[:size] = cls.ranks.T  # row `size` pads short menus
    diag = np.arange(c)
    hits = []
    for i in range(n):
        for idx in _deviation_blocks(c, n, i, at):
            if at is None:
                idx = idx[_gaining_rows(table[:, i][idx], by_subset)]
            rt = by_subset[table[:, i][idx]]  # [r, d, t]: t's rank of d's bundle
            gain = rt > rt[:, diag, diag][:, None, :]
            hits.append(_lowest_deviation(gain.transpose(0, 2, 1), idx, c, i))
    return min(filter(None, hits), default=None)


def _gaining_rows(b: np.ndarray, by_subset: np.ndarray) -> np.ndarray:
    """Rows r of b[r, d], one agent's bundle when she reports d, where some
    report t ranks a bundle of the row's menu (its distinct bundles) above
    b[r, t]; by_subset[s, t] is t's rank of s, and its last row (-1) pads
    the menus of rows with fewer distinct bundles."""
    pad = by_subset.shape[0] - 1
    menu = np.sort(b, axis=1)
    new = menu[:, 1:] != menu[:, :-1]
    menu[:, 1:][~new] = pad
    menu.sort(axis=1)
    best = by_subset[menu[:, : 1 + int(new.sum(axis=1).max())]].max(axis=1)  # [r, t]
    return np.flatnonzero((best > by_subset[b, np.arange(b.shape[1])]).any(axis=1))


def nonbossy_violation(
    table: np.ndarray, cls: PreferenceClass, n: int, *, at: int | None = None
):
    """Lowest (profile_idx, agent, alt_member) where own bundle holds but
    others move; with `at`, only on each agent's deviation row holding it.

    Each agent's deviation rows are scanned in blocks (`_deviation_blocks`).
    Sorted by the agent's own bundle, a row is bossy iff two neighbours with
    the same own bundle differ in another agent's bundle; only the rows that
    are get the report-by-report comparison.
    """
    if n < 2:
        return None  # no one else to move
    c = len(cls)
    hits = []
    for i in range(n):
        others = [j for j in range(n) if j != i]
        for idx in _deviation_blocks(c, n, i, at):
            if at is None:
                idx = idx[_bossy_rows(table, idx, i, others)]
            b = table[:, i][idx]
            viol = b[:, :, None] == b[:, None, :]
            viol &= _columns_move(table, idx, others)
            hits.append(_lowest_deviation(viol, idx, c, i))
    return min(filter(None, hits), default=None)


def _bossy_rows(table: np.ndarray, idx: np.ndarray, agent: int, others) -> np.ndarray:
    """Rows of idx, deviation rows of `agent`, on which two reports give her
    the same bundle but some agent in others a different one: sorted by her
    own bundle, two neighbours with the same own bundle differ elsewhere."""
    ranked = np.take_along_axis(idx, np.argsort(table[:, agent][idx], axis=1), axis=1)
    own = table[:, agent][ranked]
    moved = np.zeros(own[:, 1:].shape, dtype=bool)
    for j in others:
        b = table[:, j][ranked]
        moved |= b[:, 1:] != b[:, :-1]
    return np.flatnonzero((moved & (own[:, 1:] == own[:, :-1])).any(axis=1))


def push_up_matrix(cls: PreferenceClass) -> np.ndarray:
    """cls.push_up, or TooLarge above PROFILE_CAP member pairs before it is built."""
    c = len(cls)
    if c * c > PROFILE_CAP:
        raise TooLarge(f"{c}^2 push-up member pairs exceed the {PROFILE_CAP} cap")
    return cls.push_up


def push_up_violation(table: np.ndarray, cls: PreferenceClass, n: int):
    """Lowest (profile_idx, agent, alt_member) where the agent pushes her
    bundle up (alt_member is a push-up of her report with respect to it)
    and the allocation moves.  Deviation rows are scanned in blocks
    (`_deviation_blocks`).

    Single-agent push-ups decide push-up invariance exactly: if none moves
    the allocation, pushing up several agents at once moves nothing either,
    since the agents can be pushed up one at a time and every step keeps
    the allocation, hence each bundle the later push-ups refer to.
    """
    c = len(cls)
    up = push_up_matrix(cls)
    diag = np.arange(c)
    hits = []
    for i in range(n):
        for idx in _deviation_blocks(c, n, i, None):
            viol = up[diag, table[:, i][idx]] & _columns_move(table, idx, range(n))
            hits.append(_lowest_deviation(viol, idx, c, i))
    return min(filter(None, hits), default=None)


def _renamed(idx: int, image, c: int, n: int) -> int:
    """Index of the profile whose members are image[member] of profile idx's."""
    out = 0
    for k in range(n - 1, -1, -1):
        out = out * c + image[idx // c**k % c]
    return out


def neutrality_violation(
    table: np.ndarray, cls: PreferenceClass, n: int, *, at: int | None = None
):
    """Lowest (profile_idx, perm_position) where renaming goods breaks covariance.

    perm_position indexes cls.generators.  The full scan gathers the table
    at every profile's image by taking each agent's axis of the (c,)*n +
    (n,) grid through the generator's action on members.  With `at`, only
    profile `at` and its preimage under each generator are checked: the
    pairs of (profile, image) that involve `at`, both found through the
    cached action and its inverse.
    """
    c = len(cls)
    best = None
    for pos, (pi, action, inverse) in enumerate(cls.generators):
        if at is None:
            rows = slice(None)  # a view: the full scan copies nothing extra
            image = table.reshape((c,) * n + (n,))
            for k in range(n):
                image = np.take(image, action, axis=k)
            image = image.reshape(table.shape)
        else:  # at's pair with its image, and its preimage's pair with it
            pairs = sorted({(at, _renamed(at, action, c, n)), (_renamed(at, inverse, c, n), at)})
            rows = [p for p, _ in pairs]
            image = table[[q for _, q in pairs]]
        bad = np.flatnonzero((image != pi.mask_image[table[rows]]).any(axis=1))
        if bad.size:
            cand = (int(bad[0] if at is None else rows[bad[0]]), pos)
            if best is None or cand < best:
                best = cand
    return best


def partition_violation(table: np.ndarray, cls: PreferenceClass, n: int):
    """Lowest (profile_idx, union) whose bundles leave some good unallocated,
    union being the goods they cover."""
    union = np.bitwise_or.reduce(table, axis=1)
    bad = np.flatnonzero(union != full_mask(cls.m))
    return (int(bad[0]), int(union[bad[0]])) if bad.size else None


@lru_cache(maxsize=None)
def assignment_masks(n: int, m: int) -> np.ndarray:
    """All (n+1)^m ways to give each good to an agent or to nobody.

    Row a, column j: bundle bitmask of agent j under assignment a; owner n
    means unallocated.  Assignments are ordered with good 0 most significant.
    Raises TooLarge above PROFILE_CAP entries, before building anything.
    """
    count = (n + 1) ** m
    if count * n > PROFILE_CAP:
        raise TooLarge(f"{count * n} assignment entries exceed the {PROFILE_CAP} cap")
    out = np.zeros((count, n), dtype=np.int32)
    for g in range(m):
        owner = np.arange(count) // (n + 1) ** (m - 1 - g) % (n + 1)
        for j in range(n):
            out[:, j] |= (owner == j) << g
    out.setflags(write=False)
    return out


def pareto_violation(table: np.ndarray, cls: PreferenceClass, n: int):
    """Lowest (profile_idx, blocking bundle tuple); blocker has lowest assignment index.

    Whether an assignment is weakly or strictly better for agent j depends only
    on (member, current bundle), so each distinct pair gets one packed bit row
    over all assignments (bit a set: assignment a is weakly, resp. strictly,
    better).  A profile's blockers are the AND of its agents' weak rows and
    the OR of their strict rows.  Profiles are taken in blocks whose rank
    comparisons hold at most CELLS entries.
    """
    c = len(cls)
    m = cls.m
    ranks = cls.ranks
    am = assignment_masks(n, m)
    step = max(1, CELLS // am.shape[0])
    for lo in range(0, table.shape[0], step):
        profiles = np.arange(lo, min(lo + step, table.shape[0]))
        weak = strict = None
        for j in range(n):
            digit = profiles // c ** (n - 1 - j) % c  # agent j's member
            keys, inv = np.unique(digit << m | table[lo : lo + step, j], return_inverse=True)
            member = keys >> m
            alt = ranks[member[:, None], am[None, :, j]]  # (keys, assignments)
            cur = ranks[member, keys & ((1 << m) - 1)][:, None]
            w = np.packbits(alt >= cur, axis=1)[inv]
            s = np.packbits(alt > cur, axis=1)[inv]
            if weak is None:
                weak, strict = w, s
            else:
                weak &= w
                strict |= s
        weak &= strict
        rows = np.flatnonzero(weak.any(axis=1))
        if rows.size:
            row = weak[rows[0]]
            k = int(np.flatnonzero(row)[0])
            # packbits is big-endian: assignment 8k + t sits at bit 7 - t of byte k.
            a = 8 * k + 8 - int(row[k]).bit_length()
            return lo + int(rows[0]), tuple(int(x) for x in am[a])
    return None


def _lowest_on_subgrid(col: np.ndarray, axes, hit) -> int | None:
    """Lowest profile index on the sub-grid np.ix_(*axes) of col, one
    agent's bundles as a (c,)*n grid, whose bundle satisfies hit; None if
    none does.  Each axis index ascends, so the sub-grid lists profiles in
    ascending order.  The sub-grid is gathered whole: it holds at most one
    table column, and the table is already in memory."""
    block = col[np.ix_(*axes)]
    flat = np.flatnonzero(hit(block))
    if not flat.size:
        return None
    pos = np.unravel_index(flat[0], block.shape)
    return int(np.ravel_multi_index([a[k] for a, k in zip(axes, pos)], col.shape))


def control_violation(table: np.ndarray, cls: PreferenceClass, n: int):
    """Lowest (S, agent, trigger_idx, violating_idx) breaking the control claim.

    For each S, let D be the members that strongly desire it.  Agent i's
    triggers are the profiles on the D^n sub-grid where she gets all of S,
    and her violations those with her report in D where she does not; both
    are scanned in ascending profile order (`_lowest_on_subgrid`).
    """
    c = len(cls)
    sd = cls.strong_desire
    every = np.arange(c)
    dims = _report_axes(c, n)
    cols = [table[:, i].reshape((c,) * dims) for i in range(n)]
    for s in range(1, 1 << cls.m):
        desire = np.flatnonzero(sd[:, s])
        if not desire.size:
            continue
        for i, col in enumerate(cols):
            trig = _lowest_on_subgrid(col, [desire] * dims, lambda b: (b & s) == s)
            if trig is None:
                continue
            axes = [desire if k == i else every for k in range(dims)]
            viol = _lowest_on_subgrid(col, axes, lambda b: (b & s) != s)
            if viol is not None:
                return s, i, trig, viol
    return None

"""Vectorized profile tables used by the axiom checkers.

A mechanism over an enumerable class with C members and n agents is fully
described by its allocation table: an array of shape (C^n, n) whose row at a
profile index holds each agent's bundle bitmask.  The checkers in
`properties` scan these tables with numpy; witnesses they find are re-derived
and re-played through the pure-Python apply path.

Profile indexing is mixed-radix with agent 0 as the most significant digit,
matching `mechanisms.profile_index`: numpy's C-order ravel of a (C,)*n grid,
agent i's digit weighing C^(n-1-i).  Kernels compute the profile indices
and assignments they need inside each call and read the tables each class
holds; nothing here is cached, so no array outlives a check.
"""

from __future__ import annotations

from itertools import product
from operator import attrgetter

import numpy as np

from .errors import TooLarge
from .mechanisms import (
    CounterBossy,
    CounterNonNeutral,
    CounterNonTruthful,
    Mechanism,
    RoundRobin,
    SerialQuota,
    TableMechanism,
    profiles_exceed,
)
from .prefs import (
    PreferenceClass,
    full_mask,
    neutrality_perms,  # noqa: F401  read as engine.neutrality_perms by perfbench
    rank_dtype,
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

    Raises TooLarge above PROFILE_CAP profiles, before any table is built,
    and TypeError for an unknown mechanism variant.
    """
    cls = mech.domain
    c = len(cls)
    n = mech.n
    if profiles_exceed(c, n, PROFILE_CAP):
        raise TooLarge(f"{c}^{n} profiles exceed the {PROFILE_CAP}-profile cap")
    if isinstance(mech, TableMechanism):
        return np.array(mech.table, dtype=np.int32)
    return _report_grid(mech, c, n).reshape(c**n, n)


def _report_axes(c: int, n: int) -> int:
    """Report axes of a profile grid: one per agent, or a single one when
    the class has one member, so that a one-profile grid stays within
    numpy's 64 axes whatever n is."""
    return n if c > 1 else 1


def _report_grid(mech: Mechanism, c: int, n: int) -> np.ndarray:
    """The table of a rule-defined mechanism as a (c,)*axes + (n,) grid
    (`_report_axes`).

    Each variant but the non-truthful one, which gives everything to agent
    0 on the grid's diagonal and to agent 1 elsewhere, is a sequence of
    picks: an agent takes the k-demand of her report from the pool the
    earlier picks left (`cls.demands`).  A pick is a gather on the sub-grid
    of her report and of the reports that pool depends on, each report on
    its own axis, broadcast over the reports of everyone else.
    """
    dt = mech.domain.demands
    dims = _report_axes(c, n)
    univ = full_mask(mech.m)
    out = np.zeros((c,) * dims + (n,), dtype=np.int32)

    def pick(agent: int, pool, k: int = 1) -> np.ndarray:
        report = np.arange(c).reshape([c if a == agent else 1 for a in range(dims)])
        return dt[k][report, pool]

    if isinstance(mech, SerialQuota):
        pool = univ
        for k, agent in zip(mech.quota.q, mech.quota.p):
            if k == 0:
                break  # zero quotas form a suffix: those agents get nothing
            out[..., agent] = got = pick(agent, pool, k)
            pool = pool & ~got
    elif isinstance(mech, RoundRobin):
        pool = univ
        for turn in range(mech.m):
            got = pick(turn % n, pool)
            out[..., turn % n] |= got
            pool = pool & ~got
    elif isinstance(mech, CounterNonTruthful):
        out[..., 1] = univ
        same = (np.arange(c),) * dims
        out[(*same, 0)] = univ
        out[(*same, 1)] = 0
    elif isinstance(mech, CounterBossy):
        top = pick(0, univ)
        out[..., 1] = top
        out[..., 2] = univ & ~top
    elif isinstance(mech, CounterNonNeutral):
        x = pick(0, univ & ~(1 << mech.a))
        rest = univ & ~x
        y1, y2 = pick(1, rest), pick(2, rest)
        second = x == 1 << mech.b  # agent 1 picks second, else agent 2
        out[..., 0] = x
        out[..., 1] = np.where(second, y1, rest & ~y2)
        out[..., 2] = np.where(second, rest & ~y1, y2)
    else:
        raise TypeError(f"unknown mechanism variant {type(mech).__name__}")
    return out


def deviation_index(c: int, n: int, agent: int, at: int) -> np.ndarray:
    """`agent`'s deviation row (`_deviation_blocks`) holding profile `at`; shape (1, c)."""
    w = c ** (n - 1 - agent)  # agent's digit weight
    lo = at - at // w % c * w  # `at` with agent's digit set to 0
    return np.arange(lo, lo + w * c, w)[None, :]


def _deviation_blocks(c: int, n: int, agent: int):
    """`agent`'s deviation rows, in blocks whose (rows, c, c) comparisons
    hold at most CELLS entries (one row at least).  Row r lists the
    profiles r // w * w * c + r % w + d * w of her reports d, w being her
    digit weight, so the others' digits encode r.  A block is computed
    from its own range of r."""
    w, rows = c ** (n - 1 - agent), c ** (n - 1)
    step = max(1, CELLS // (c * c))
    for lo in range(0, rows, step):
        r = np.arange(lo, min(lo + step, rows))
        yield (r // w * (w * c) + r % w)[:, None] + np.arange(0, w * c, w)


def _gather(table: np.ndarray, rows: np.ndarray, j: int) -> np.ndarray:
    """table[:, j] at the profiles whose row offsets (profile * n) are rows:
    one take on the flat view of the table, from its element j on.  A take
    from the strided column itself would first copy the whole column, so a
    scan at one profile (`at=`) stays O(rows) only this way.  The method
    form skips np.take's dispatch, most of a one-row gather's cost."""
    return table.ravel()[j:].take(rows)


def _columns_move(table: np.ndarray, rows: np.ndarray, cols) -> np.ndarray:
    """moved[r, t, d]: some column in cols differs between the profiles at
    row offsets rows[r, t] and rows[r, d] (`_gather`)."""
    moved = np.zeros(rows.shape + rows.shape[-1:], dtype=bool)
    for j in cols:
        b = _gather(table, rows, j)
        moved |= b[:, :, None] != b[:, None, :]
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


def _deviation_scan(c: int, n: int, at: int | None, flag, test):
    """Lowest (profile, agent, alt) where test(idx * n, agent)[r, t, d]
    holds on an agent's deviation rows idx, both tests reading row offsets
    (`_gather`): in each block (`_deviation_blocks`), on the rows that
    flag(idx * n, agent) marks, a superset of those with a hit; with `at`,
    on the one row holding `at`.  It keeps the lowest hit, and stops an
    agent's scan at a block whose first profile, its lowest, is above."""
    best = None
    for i in range(n):
        for idx in _deviation_blocks(c, n, i) if at is None else (deviation_index(c, n, i, at),):
            if best is not None and best[0] < idx[0, 0]:
                break
            if at is None and not (idx := idx[flag(idx * n, i)]).size:
                continue
            hit = _lowest_deviation(test(idx * n, i), idx, c, i)
            if hit is not None and (best is None or hit < best):
                best = hit
    return best


def _rows_with_hits(hits: np.ndarray) -> np.ndarray:
    """Whether each row of a 2-D boolean array holds a True: whether any of
    its flat hits falls in the row, counted by np.bincount.  One pass over
    the flat array, far faster than any(axis=1) over short rows."""
    rows = np.flatnonzero(hits) // max(1, hits.shape[1])
    return np.bincount(rows, minlength=hits.shape[0]) > 0


def truthful_violation(
    table: np.ndarray, cls: PreferenceClass, n: int, *, at: int | None = None
):
    """Lowest (profile_idx, agent, alt_member) where the deviation strictly gains.

    A deviation row holds a gain iff some report t prefers a bundle of the
    row's menu, its distinct bundles, to t's own (`_gaining_rows`); that
    test costs O(u*c) for a menu of u bundles, and only the rows that pass
    it are compared report by report (`_deviation_scan`).  With `at`, only
    each agent's deviation row holding profile `at` is scanned; those rows
    hold every violation that involves `at`.
    """
    c = len(cls)
    by_rank = np.ascontiguousarray(cls.ranks.T)  # [s, t]: t's rank of s
    key = _menu_keys(cls) if at is None else None  # only the full scan's menu test reads keys

    def gains(rows, i):
        rt = by_rank.take(_gather(table, rows, i), axis=0)  # [r, d, t]: t's rank of d's bundle
        return (rt > rt.diagonal(0, 1, 2)[:, None, :]).transpose(0, 2, 1)

    return _deviation_scan(c, n, at, lambda rows, i: _gaining_rows(table, rows, i, key), gains)


def _menu_keys(cls: PreferenceClass) -> np.ndarray:
    """key[s, t]: member t's rank of subset s above the m bits of s, so keys
    follow t's order, as ranks do, and the largest of a set names t's best
    subset in its low bits; shape (2^m + 1, C).  Row 2^m (-1) pads menus."""
    m = cls.m
    key = np.full(((1 << m) + 1, len(cls)), -1, dtype=np.int32)
    key[:-1] = cls.ranks.T
    key[:-1] <<= m
    key[:-1] |= np.arange(1 << m, dtype=np.int32)[:, None]
    return key


def _gaining_rows(table: np.ndarray, rows: np.ndarray, agent: int, key: np.ndarray) -> np.ndarray:
    """Whether each of `agent`'s deviation rows, at row offsets rows
    (`_gather`), gains: some report t prefers a bundle of the row's menu
    (her distinct bundles b[r, d]) to b[r, t].  key is `_menu_keys`, whose
    last row pads the menus of rows with fewer distinct bundles.  The
    menu's largest key per report, the maximum of one row gather of key
    per menu column, names t's best bundle of the menu in its low bits:
    the row gains iff that bundle is not b[r, t]."""
    b = _gather(table, rows, agent)
    pad = key.shape[0] - 1
    menu = np.sort(b, axis=1)
    new = menu[:, 1:] != menu[:, :-1]
    menu[:, 1:][~new] = pad
    menu.sort(axis=1)
    best = key.take(menu[:, 0], axis=0)  # [r, t]
    for k in range(1, 1 + int(new.sum(axis=1).max())):
        np.maximum(best, key.take(menu[:, k], axis=0), out=best)
    best &= pad - 1
    return _rows_with_hits(best != b)


def nonbossy_violation(
    table: np.ndarray, cls: PreferenceClass, n: int, *, at: int | None = None
):
    """Lowest (profile_idx, agent, alt_member) where own bundle holds but
    others move; with `at`, only on each agent's deviation row holding it.

    Sorted by the agent's own bundle, a deviation row is bossy iff two
    neighbours with the same own bundle differ in another agent's bundle
    (`_bossy_rows`); only the rows that are get the report-by-report
    comparison (`_deviation_scan`).
    """

    def bossy(rows, i):
        b = _gather(table, rows, i)
        others = (*range(i), *range(i + 1, n))
        return (b[:, :, None] == b[:, None, :]) & _columns_move(table, rows, others)

    return _deviation_scan(len(cls), n, at, lambda rows, i: _bossy_rows(table, rows, i), bossy)


def _bossy_rows(table: np.ndarray, rows: np.ndarray, agent: int) -> np.ndarray:
    """Whether each of `agent`'s deviation rows, at row offsets rows
    (`_gather`), has two reports giving her the same bundle but another
    agent a different one: sorted by her own bundle, two neighbours with
    the same own bundle differ elsewhere.  The sort is applied by flat
    takes, of her bundles and of rows, at a stable argsort plus each row's
    start; the sorted row offsets then read the other agents' bundles."""
    n = table.shape[1]
    own = _gather(table, rows, agent)
    order = np.argsort(own, axis=1, kind="stable")
    order += np.arange(0, own.size, own.shape[1])[:, None]
    own = own.take(order)
    ranked = rows.take(order)
    del order  # its 8 bytes per entry, freed before the other agents are read
    moved = np.zeros(own[:, 1:].shape, dtype=bool)
    for j in (*range(agent), *range(agent + 1, n)):
        b = _gather(table, ranked, j)
        moved |= b[:, 1:] != b[:, :-1]
    moved &= own[:, 1:] == own[:, :-1]
    return _rows_with_hits(moved)


def push_up_matrix(cls: PreferenceClass) -> np.ndarray:
    """cls.push_up, or TooLarge above PROFILE_CAP member pairs before it is built."""
    c = len(cls)
    if c * c > PROFILE_CAP:
        raise TooLarge(f"{c}^2 push-up member pairs exceed the {PROFILE_CAP} cap")
    return cls.push_up


def push_up_violation(table: np.ndarray, cls: PreferenceClass, n: int):
    """Lowest (profile_idx, agent, alt_member) where the agent pushes her
    bundle up (alt_member is a push-up of her report with respect to it)
    and the allocation moves.

    Single-agent push-ups decide push-up invariance exactly: if none moves
    the allocation, pushing up several agents at once moves nothing either,
    since the agents can be pushed up one at a time and every step keeps
    the allocation, hence each bundle the later push-ups refer to.

    Only deviation rows that gain (`_gaining_rows`) or are bossy
    (`_bossy_rows`) can hold one.  Let report d push up report t w.r.t.
    t's bundle s on a row with neither.  With strict ranks, no gain at t
    puts d's bundle in t's weak lower set of s.  That set lies in d's, so
    d's bundle ranks no higher than s under d.  No gain at d forces
    equality, and non-bossiness then fixes the row.
    """
    c = len(cls)
    up, key, diag = push_up_matrix(cls), _menu_keys(cls), np.arange(c)

    def pushed_and_moved(rows, i):
        return up[diag, _gather(table, rows, i)] & _columns_move(table, rows, range(n))

    def flag(rows, i):
        return _gaining_rows(table, rows, i, key) | _bossy_rows(table, rows, i)

    return _deviation_scan(c, n, None, flag, pushed_and_moved)


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

    perm_position indexes cls.generators.  The full scan compares, for every
    profile, each agent's bundle at the profile's image with her renamed
    bundle (`_covariance_breaks`).  With `at`, only profile `at` and its
    preimage under each generator are checked: the pairs of (profile,
    image) that involve `at`, both found through the cached action and its
    inverse, their rows compared as Python ints (a two-row numpy gather
    costs more than the comparison).
    """
    c = len(cls)
    best = None
    for pos, (pi, action, inverse) in enumerate(cls.generators):
        if at is None:
            bad = _covariance_breaks(table, pi.mask_image, action, c, n)
        else:  # at's pair with its image, and its preimage's pair with it
            renamed = pi.mask_image
            pairs = sorted({(at, _renamed(at, action, c, n)), (_renamed(at, inverse, c, n), at)})
            bad = [
                p for p, q in pairs if [renamed[b] for b in table[p].tolist()] != table[q].tolist()
            ]
        if len(bad) and (best is None or (int(bad[0]), pos) < best):
            best = int(bad[0]), pos
    return best


def _covariance_breaks(
    table: np.ndarray, renamed: np.ndarray, action, c: int, n: int
) -> list[int]:
    """[p] for the lowest profile p whose image under a generator (members
    mapped by action, bundles by renamed) does not get p's bundles renamed;
    [] when there is none.

    A block's image row offsets (`_gather`) are a broadcast sum over the
    grid axes of action[d] * n * c^(n-1-k), agent k reporting member d: the
    earlier agents' terms per grid row, from its digits, then one axis per
    later agent.  Each agent's column is gathered at the images and
    compared with np.take of renamed at her column; the agents'
    mismatches are OR-ed column by column, in blocks of grid rows
    (`_grid_blocks`).  A profile holds about 25 bytes while its block is
    scanned, its 8-byte image offset, a gathered and a renamed bundle and
    np.take's 8-byte copy of its bundle, so a block holds at most
    CELLS // 2 profiles.
    """
    moved = [np.array(action) * (n * c ** (n - 1 - k)) for k in range(n)]
    head, _, blocks = _grid_blocks(c, n, max(1, CELLS // 2))  # profiles per block
    for rows, digits in blocks:
        image = np.zeros(digits.shape[1], dtype=np.intp)
        for k, d in enumerate(digits):
            image += moved[k][d]
        for k in range(head, n):
            image = (image[:, None] + moved[k]).reshape(-1)
        block = table[rows]
        bad = _gather(table, image, 0) != renamed.take(block[:, 0])
        for j in range(1, n):
            bad |= _gather(table, image, j) != renamed.take(block[:, j])
        hit = np.flatnonzero(bad)
        if hit.size:
            return [rows.start + int(hit[0])]
    return []


def _grid_blocks(c: int, n: int, step: int):
    """(head, span, blocks): blocks of whole grid rows, at most `step`
    profiles (one grid row at least).  A grid row is the span = c^(n-head)
    profiles of the last agents' reports, as many agents as fit.  A block
    is (its profiles' slice, the head agents' digits per grid row)."""
    head, span = n, 1
    while head and span * c <= step:
        head, span = head - 1, span * c
    per_block, weights = max(1, step // span), c ** np.arange(head - 1, -1, -1)[:, None]
    grid = (np.arange(lo, min(lo + per_block, c**head)) for lo in range(0, c**head, per_block))
    return head, span, ((slice(h[0] * span, (h[-1] + 1) * span), h // weights % c) for h in grid)


def partition_violation(table: np.ndarray, cls: PreferenceClass, n: int):
    """Lowest (profile_idx, union) whose bundles leave some good unallocated,
    union being the goods they cover."""
    union = np.zeros(table.shape[0], dtype=table.dtype)
    for j in range(n):  # column by column: a reduce over the short axis is slower
        union |= table[:, j]
    bad = np.flatnonzero(union != full_mask(cls.m))
    return (int(bad[0]), int(union[bad[0]])) if bad.size else None


def assignment_count(n: int, m: int) -> int:
    """(n+1)^m, the assignments of m goods to n agents or nobody; TooLarge
    when their bundle table, (n+1)^m rows of n, passes PROFILE_CAP entries."""
    count = (n + 1) ** m
    if count * n > PROFILE_CAP:
        raise TooLarge(f"{count * n} assignment entries exceed the {PROFILE_CAP} cap")
    return count


def assignment_masks(n: int, m: int) -> np.ndarray:
    """All (n+1)^m ways to give each good to an agent or to nobody.

    Row a, column j: bundle bitmask of agent j under assignment a; owner n
    means unallocated.  Assignments are ordered with good 0 most significant.
    Raises TooLarge (`assignment_count`) before building anything.
    """
    count = assignment_count(n, m)
    owner = np.eye(n + 1, n, dtype=np.int32)  # row o: o's one-hot column, nobody's zero
    grid = sum(  # good g's owner on axis g, its bit added to that agent's column
        ((owner << g).reshape((1,) * g + (n + 1,) + (1,) * (m - 1 - g) + (n,)) for g in range(m)),
        np.zeros((n + 1,) * m + (n,), dtype=np.int32),
    )
    return grid.reshape(count, n)


def pareto_violation(table: np.ndarray, cls: PreferenceClass, n: int):
    """Lowest (profile_idx, blocking bundle tuple); blocker has lowest assignment index.

    Whether an assignment is weakly or strictly better for agent j depends only
    on (member, current bundle), so each distinct pair gets one bit row over
    all assignments (bit a set: assignment a is weakly, resp. strictly,
    better), packed and padded to whole 64-bit words.  A profile's blockers
    are the AND of its agents' weak rows and the OR of their strict rows,
    taken word by word.  Profiles are taken in blocks whose rank comparisons
    hold at most CELLS entries.  Within a block a pair is keyed by the
    agent's digit offset, modulo c, from the block's first profile and by
    the bundle, so its dense key table holds at most about CELLS + 2^(m+1)
    entries whatever c * 2^m is.
    """
    c = len(cls)
    m = cls.m
    ranks = cls.ranks
    am = assignment_masks(n, m)
    count = am.shape[0]
    width = -(-count // 8)  # packbits' bytes per row
    step = max(1, CELLS // count)
    for lo in range(0, table.shape[0], step):
        hi = min(lo + step, table.shape[0])
        profiles = np.arange(lo, hi)
        for j in range(n):
            weight = c ** (n - 1 - j)  # agent j's digit weight
            first = lo // weight  # the digit run holding the block's first profile
            span = min(c, (hi - 1) // weight - first + 1)  # digits the block holds
            key = (profiles // weight - first) % c << m | table[lo:hi, j]
            present = np.zeros(span << m, dtype=bool)
            present[key] = True
            keys = np.flatnonzero(present)
            lookup = np.empty(span << m, dtype=np.int32)
            lookup[keys] = np.arange(keys.size, dtype=np.int32)
            # Each digit's ranks of every assignment's bundle, read once: a
            # column gather over the block's members, then rows per key.
            member = (first + np.arange(span)) % c
            offset = keys >> m
            by_offset = np.take(np.take(ranks, member, axis=0), am[:, j], axis=1)
            alt = np.take(by_offset, offset, axis=0)
            cur = ranks[member[offset], keys & full_mask(m)][:, None]
            packed = np.zeros((2, keys.size, 8 * -(-width // 8)), dtype=np.uint8)  # whole words
            packed[0, :, :width] = np.packbits(alt >= cur, axis=1)
            packed[1, :, :width] = np.packbits(alt > cur, axis=1)
            inv = lookup[key]
            w, s = (np.take(rows, inv, axis=0) for rows in packed.view(np.int64))
            if j == 0:
                weak, strict = w, s
            else:
                weak &= w
                strict |= s
        weak &= strict
        blocked = weak[:, 0].copy()
        for word in range(1, weak.shape[1]):  # OR the word columns: faster than any(axis=1)
            blocked |= weak[:, word]
        rows = np.flatnonzero(blocked)
        if rows.size:
            row = weak[rows[0]].view(np.uint8)  # the packed bytes, in packbits' order
            k = int(np.flatnonzero(row)[0])
            # packbits is big-endian: assignment 8k + t sits at bit 7 - t of byte k.
            a = 8 * k + 8 - int(row[k]).bit_length()
            return lo + int(rows[0]), tuple(int(x) for x in am[a])
    return None


def _lowest_on_subgrid(col: np.ndarray, axes, hit) -> int | None:
    """Lowest profile index on the sub-grid np.ix_(*axes) of col, one
    agent's bundles as a (c,)*n grid, whose bundle satisfies hit; None if
    none does.  Each axis index ascends, so the sub-grid lists profiles in
    ascending order.  It is gathered in slabs, one per index tuple of its
    leading axes and in that order, up to the first slab with a hit.  A
    slab's gather broadcasts one 8-byte index per entry and axis; it holds
    at most about CELLS bytes of them, or one line of the last axis."""
    lead, size = len(axes) - 1, len(axes[-1])
    while lead and 8 * len(axes) * size * len(axes[lead - 1]) <= CELLS:
        lead -= 1
        size *= len(axes[lead])
    for head in product(*axes[:lead]):
        found = hit(col[head][np.ix_(*axes[lead:])])
        if found.any():
            pos = np.unravel_index(found.argmax(), found.shape)
            idx = [*head, *(a[k] for a, k in zip(axes[lead:], pos))]
            return int(np.ravel_multi_index(idx, col.shape))
    return None


def _bit_rows(bits: np.ndarray) -> np.ndarray:
    """The rows of bits, shape (rows, 2^m), packed little-endian into words:
    bit s of a row is bit s % w of its word s // w, w bits wide.  A row of
    at most 64 bits is one word of the narrowest unsigned type holding it
    (uint8 up to m = 3, then uint16, uint32, uint64); longer rows are
    64-bit words."""
    size = min(max(1, bits.shape[1] // 8), 8)
    return np.packbits(bits, axis=1, bitorder="little").view(f"<u{size}")


def _or_rows(words: np.ndarray) -> np.ndarray:
    """OR of the rows of words, shape (rows, w), one word column at a time:
    numpy reduces a column far faster than axis 0 of a narrow 2-D array."""
    return np.array([np.bitwise_or.reduce(col) for col in words.T], dtype=words.dtype)


def control_violation(table: np.ndarray, cls: PreferenceClass, n: int):
    """Lowest (S, agent, trigger_idx, violating_idx) breaking the control claim.

    Agent i breaks it on S when she gets all of S at a profile where every
    agent strongly desires S (a trigger) and misses part of S at a profile
    where she strongly desires it (a violation).  Subsets S are bits
    (`_bit_rows`): one row per member (bit S: she strongly desires S) and
    one per bundle b (bit S: S inside b).  One pass over the profiles ORs,
    for each agent, (every agent's desire row AND her bundle's row) into her
    trigger bits and (her desire row AND NOT her bundle's row) into her
    violation bits.  The lowest S set in both, then the lowest agent, is the
    pair that a loop over S and then over the agents meets first; only for
    it are the trigger and the violating profile looked up, each the lowest
    on its sub-grid of the members desiring S (`_lowest_on_subgrid`).

    Profiles are scanned in blocks of about CELLS bytes: one 8-byte bundle
    index and two word rows per profile.  A block is whole rows of the grid
    of the last agents' reports, so their desire rows are broadcast, not
    gathered, and an agent's bundle rows are ANDed per report before they
    meet that report's desire row.
    """
    c = len(cls)
    desire = _bit_rows(cls.strong_desire)
    subsets = np.arange(1 << cls.m, dtype=rank_dtype(cls.m))
    within = _bit_rows((subsets & ~subsets[:, None]) == 0)  # [b, S]: S inside b
    words = desire.shape[1]
    step = max(1, CELLS // (8 + 2 * desire[0].nbytes))  # profiles per block
    head, span, blocks = _grid_blocks(c, n, step)
    every_tail = np.full((span, words), np.iinfo(desire.dtype).max, dtype=desire.dtype)
    for j in range(head, n):
        every_tail.reshape(-1, c, c ** (n - 1 - j), words)[...] &= desire[:, None]
    hits = np.zeros((2, n, words), dtype=desire.dtype)  # [trigger, violation][agent]
    for rows, digits in blocks:
        head_desire = [desire[d] for d in digits]
        every = every_tail
        for wanted in head_desire:
            every = every & wanted[:, None]
        every = every.reshape(-1, words)
        block = table[rows]
        for i in range(n):
            # np.take is several times slower on a strided int32 index.
            held = np.take(within, block[:, i].astype(np.intp), axis=0)
            if i < head:  # one report per grid row
                kept = np.bitwise_and.reduce(held.reshape(-1, span, words), axis=1)
                own = head_desire[i]
            else:  # report on the middle axis
                kept = held.reshape(-1, c, c ** (n - 1 - i), words)
                kept = np.bitwise_and.reduce(kept, axis=(0, 2))
                own = desire
            hits[1, i] |= _or_rows(own & ~kept)
            held &= every
            hits[0, i] |= _or_rows(held)
    found = [int.from_bytes(row.tobytes(), "little") for row in hits[0] & hits[1]]
    first = min((((b & -b).bit_length() - 1, i) for i, b in enumerate(found) if b), default=None)
    if first is None:
        return None
    s, i = first
    desiring = np.flatnonzero(cls.strong_desire[:, s])
    dims = _report_axes(c, n)
    col = table[:, i].reshape((c,) * dims)
    trig = _lowest_on_subgrid(col, [desiring] * dims, lambda b: (b & s) == s)
    axes = [desiring if k == i else np.arange(c) for k in range(dims)]
    return s, i, trig, _lowest_on_subgrid(col, axes, lambda b: (b & s) != s)

"""Biclique covers of the empty-rectangle influence graph.

An edge (q, p) with q strictly below-left of p and an empty rectangle exists
exactly when q lies on the maxima of p's lower-left quadrant.  Covers are
built per orientation: points stream in x order into per-strip range stacks
that maintain quadrant maxima; each query point decomposes its quadrant into
O(log n) y-strips, pulls the surviving maxima suffix of each strip out of
the strip's stack history, and registers itself on every returned canonical
set.  One biclique per canonical set with registrants.

Three variants share this skeleton, and all three run both orientations
in one rank-space pass over the same lane layout (_strips):

* basic: strips are the subtrees of a y-tree with single-point leaves,
  unbuffered stacks (O(n log n) bicliques, weight O(n log^2 n)).  A query
  only ever reads left children, so only those build stacks; the (query,
  strip) pairs and their cuts come out of numpy passes, and only the stack
  walks and registrations run per pair;
* compact: leaf strips hold 3*ceil(log2 n) points, and every scanned or
  walked maximum merges into one star biclique per query point (O(n)
  bicliques, same weight).  Both orientations run together in rank space,
  in numpy passes over whole tree levels rather than a loop over points: a
  query's own leaf is scanned through a padded window of the points before
  it, each strip below it is a (query, strip) pair whose cut is a running
  maximum over the deeper strips, and the strips' chain links are walked
  as one frontier, one link per step.  Only a strip whose maxima chain
  outgrows the stack buffer gets a buffered stack, queried per point;
* k-level: k+1 stacked maxima layers per strip, built one layer at a time;
  an arriving point pops the suffix it dominates from every layer, and layer
  i's casualties arrive in layer i+1 at the same arrival, so layer
  membership counts within-strip blockers exactly (basic is k = 0).  A
  query's cut for layer i is the (k + 1 - i)-th highest x among its
  quadrant points in the deeper strips.

The anti-dominance orientation runs the dominance pipeline on x-reflected
coordinates: lane n + i holds the point of x rank n - 1 - i.
"""

from __future__ import annotations

import gc
import time
from contextlib import contextmanager
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from itertools import repeat
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .geom import PointSet
from .oracle import brute_k_rig, brute_rig
from .rangestack import RangeStack

ORIENT_DOM = "dominance"
ORIENT_ANTI = "anti-dominance"

COMPACT_MIN_N = 64  # below this the compact machinery degenerates; use basic


@contextmanager
def _gc_paused():
    """The builders allocate millions of acyclic tuples; pausing the cyclic
    collector for the build avoids quadratic-feeling GC sweeps."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


class Biclique(NamedTuple):
    """Complete bipartite piece: every left point pairs with every right
    point.  Both sides are staircase chains sorted by x; for dominance
    bicliques every right point dominates every left point, for
    anti-dominance every right point is up-left of every left point."""

    left: tuple
    right: tuple
    orientation: str

    @property
    def weight(self) -> int:
        return len(self.left) + len(self.right)

    @property
    def edge_count(self) -> int:
        return len(self.left) * len(self.right)


@dataclass
class CoverStats:
    count: int
    weight: int
    edges: int
    build_ms: float
    variant: str


@dataclass
class BicliqueCover:
    bicliques: list
    stats: CoverStats
    n: int
    # (point set, rank-space side view) kept by depth.exact_depth_at
    _side_ranks: tuple | None = field(default=None, init=False, repr=False,
                                      compare=False)


# ---------------------------------------------------------------------------
# y-tree scaffolding (implicit balanced tree over rank units)


def _tree_nodes(units: int):
    """Balanced binary tree over [0, units), numbered in pre-order (a
    parent precedes its children, a left subtree precedes the right)."""
    lo: list[int] = []
    hi: list[int] = []
    lc: list[int] = []
    rc: list[int] = []
    todo = [(0, units, -1, lc)]   # (a, b, parent, parent's child list)
    while todo:
        a, b, parent, side = todo.pop()
        idx = len(lo)
        if parent >= 0:
            side[parent] = idx
        lo.append(a)
        hi.append(b)
        lc.append(-1)
        rc.append(-1)
        if b - a > 1:
            m = (a + b) // 2
            todo.append((m, b, idx, rc))
            todo.append((a, m, idx, lc))
    return lo, hi, lc, rc


def _distribute(by_x, rank_unit, lo, lc, rc):
    """Split the x-sorted ids down the tree (stable, so every node's ids
    stay x-sorted).  Numpy id arrays with one mask per internal node: the
    split costs O(n) numpy work per tree level, not a Python loop."""
    node_ids = [None] * len(lo)
    node_ids[0] = np.asarray(by_x, dtype=np.int64)
    rank_unit = np.asarray(rank_unit, dtype=np.int64)
    for idx in range(len(lo)):
        l, r = lc[idx], rc[idx]
        if l == -1:
            continue
        ids = node_ids[idx]
        left = rank_unit[ids] < lo[r]
        node_ids[l] = ids[left]
        node_ids[r] = ids[~left]
    return node_ids


def _bfs_order(lc, rc):
    """Node ids level by level, and every node's depth."""
    order = [0]
    depth = [0] * len(lc)
    for idx in order:             # the list grows while it is walked
        if lc[idx] != -1:
            depth[lc[idx]] = depth[rc[idx]] = depth[idx] + 1
            order += (lc[idx], rc[idx])
    return order, depth


class _Strips(NamedTuple):
    """Every y-tree node's members as entries of one array, nodes level by
    level.  A node holds two segments, one per orientation, each ascending
    in lane; ``down`` maps an internal node's entry to the entry of the
    same lane in the child holding it (-1 in leaves)."""

    lanes: np.ndarray
    node: np.ndarray
    seg: np.ndarray       # first entry of each entry's segment
    left: np.ndarray      # entry of an internal node whose lane goes left
    right: np.ndarray
    ahead: np.ndarray     # left entries ahead of each entry in its node
    down: np.ndarray
    off: np.ndarray       # first entry of each node
    count: np.ndarray     # entries of each node
    depth: np.ndarray     # depth of each node
    bounds: np.ndarray    # entries [bounds[d], bounds[d + 1]) lie at depth d


def _strips(unit, lo, lc, rc) -> _Strips:
    """Lay out the tree over lanes 0..len(unit)-1; the upper half of the
    lanes is the second orientation, in its own segment of every node."""
    order, depth = _bfs_order(lc, rc)
    node_lanes = _distribute(np.arange(len(unit)), unit, lo, lc, rc)
    lanes = np.concatenate([node_lanes[u] for u in order])
    count = np.array([len(ids) for ids in node_lanes])
    off = np.empty(len(lo), dtype=np.int64)
    off[order] = np.cumsum(count[order]) - count[order]
    node = np.repeat(order, count[order])
    base = off[node]
    seg = base + (lanes >= len(unit) // 2) * (count // 2)[node]
    lc, rc = np.asarray(lc), np.asarray(rc)
    inner = lc[node] != -1
    left = inner & (unit[lanes] < np.asarray(lo)[rc[node]])
    right = inner & ~left
    ahead = np.cumsum(left) - left
    ahead -= ahead[base]
    down = np.where(left, off[lc[node]] + ahead,
                    off[rc[node]] + np.arange(len(lanes)) - base - ahead)
    down[~inner] = -1
    depth = np.asarray(depth)
    bounds = np.searchsorted(depth[node], np.arange(depth.max() + 2))
    return _Strips(lanes, node, seg, left, right, ahead, down, off, count,
                   depth, bounds)


def _query_pairs(st: _Strips, lc):
    """The prefix decomposition as pairs: a member of a node's right child
    queries its left child, whose members ahead of it in x are a prefix of
    that strip.  Returns the querying entries and, per query, the entry of
    the last strip member ahead of it."""
    q = np.flatnonzero(st.right & (st.ahead > st.ahead[st.seg]))
    return q, st.off[np.asarray(lc)[st.node[q]]] + st.ahead[q] - 1


# ---------------------------------------------------------------------------
# leveled pipeline (basic cover and k-level cover)


def _layers(sxs: list, nys: list, pts: list, k: int, floor):
    """The k + 1 maxima layers of one strip, built one layer at a time: at
    arrival i a layer pops the staircase suffix the arriving point
    dominates, then pushes its carry: i itself on layer 0, on layer j + 1
    what layer j lost at arrival i.  Per layer: (stack, step and top key
    after each arrival, floor while the layer is empty); layers that would
    stay empty are left out."""
    stack = RangeStack(len(pts))
    keys: list = []        # members' -y, ascending == stack order
    pos: list[int] = []    # members' positions in the strip (k > 0 only)
    steps: list[int] = []
    carries: list = []     # what each arrival pops, for the next layer
    for i in range(len(pts)):
        j = bisect_right(keys, nys[i])
        popped = len(keys) - j
        if popped:
            del keys[j:]
        if k:
            carries.append(pos[j:])
            del pos[j:]
            pos.append(i)
        steps.append(stack.replace_top(popped, sxs[i], pts[i]))
        keys.append(nys[i])
    layers = [(stack, steps, sxs)]      # layer 0's top is the arrival itself
    for deeper in range(k - 1, -1, -1):
        if not any(carries):
            break
        stack = RangeStack(len(pts))
        keys, pos, steps = [], [], []
        tops: list = []
        lost: list = []
        step, top = 0, floor
        for i, carry in enumerate(carries):
            if not carry and (not keys or keys[-1] <= nys[i]):
                # an idle arrival: nothing to pop, nothing to push
                if deeper:
                    lost.append(())
                steps.append(step)
                tops.append(top)
                continue
            j = bisect_right(keys, nys[i])
            if deeper:
                lost.append(pos[j:])
            popped = len(keys) - j
            if popped:
                del keys[j:], pos[j:]
            if carry:
                # the pops and the first push are one recorded arrival
                step = stack.replace_top(popped, sxs[carry[0]], pts[carry[0]])
                for e in carry[1:]:
                    step = stack.push(sxs[e], pts[e])
                keys += [nys[e] for e in carry]
                pos += carry
            else:
                step = stack.pop(popped)
            top = sxs[pos[-1]] if pos else floor
            steps.append(step)
            tops.append(top)
        layers.append((stack, steps, tops))
        carries = lost
    return layers


def _leveled(ps: PointSet, k: int):
    """Both orientations of the basic (k = 0) or k-level cover:
    [(orientation, (parts, no stars))], parts being the (left ids, right
    ids) pairs that cover exactly the pairs with at most k blockers.

    Lanes and strips as in _compact, over units of one y rank.  Queries
    read left children only (_query_pairs).  A query's cuts before a strip
    are the k + 1 highest lanes among the members ahead of it in the deeper
    strips, merged one tree level at a time, deepest first; layer j takes
    the (k + 1 - j)-th highest.  A strip's stacks are built only as far as
    the queries that can find something in them read."""
    n = ps.n
    xs = ps.xs
    by_x = list(ps.by_x)
    pid = by_x + by_x[::-1]                     # point of each lane
    # pipeline x of each lane (the anti lanes run on reflected x), and at
    # lane -1 a key below all of them
    key = [xs[p] for p in by_x] + [-xs[p] for p in reversed(by_x)]
    key.append(min(key) - 1)
    yr = np.asarray(ps.rank_y, dtype=np.int64)[pid]
    nys = (-yr).tolist()
    lo, hi, lc, rc = _tree_nodes(n)
    st = _strips(yr, lo, lc, rc)
    lanes = st.lanes
    q_ent, s_ent = _query_pairs(st, lc)
    q = lanes[q_ent]
    seg = st.seg[s_ent]
    row = len(st.bounds) - 2 - st.depth[st.node[q_ent]]   # 1: deepest
    best = np.full((2 * n, k + 1), -1, dtype=np.int64)    # descending lanes
    cuts = np.empty((len(q), k + 1), dtype=np.int64)
    back = np.arange(k + 1)
    for r in range(1, int(row.max(initial=0)) + 1):
        at = np.flatnonzero(row == r)
        qa = q[at]
        cuts[at] = best[qa]
        ent = s_ent[at, None] - back            # the strip's last k + 1 ahead
        own = np.where(ent >= seg[at, None], lanes[ent], -1)
        merged = np.sort(np.concatenate([best[qa], own], axis=1), axis=1)
        best[qa] = merged[:, :-k - 2:-1]

    # every layer of a strip holds lanes up to its last one ahead, so a
    # query whose lowest cut is not below that lane finds nothing
    live = np.flatnonzero(lanes[s_ent] > cuts[:, k])
    mark = np.full(len(lanes), -1, dtype=np.int64)
    mark[s_ent[live]] = s_ent[live]
    starts = np.flatnonzero(np.diff(st.seg, prepend=-1))    # every segment
    strips = {}     # segment start -> layers, up to the last entry read
    for a, b in zip(starts.tolist(), (np.maximum.reduceat(mark, starts) + 1).tolist()):
        if b:
            ls = lanes[a:b].tolist()
            strips[a] = _layers([key[x] for x in ls], [nys[x] for x in ls],
                                [pid[x] for x in ls], k, key[-1])

    # strip by strip, a registry fills in lane order (x order within an
    # orientation) and keys a canonical set by cid * (k + 1) + layer
    live = live[np.lexsort((q[live], seg[live]))]
    regs_at = {}
    cur = -1
    for p, a, t, cl in zip(np.asarray(pid)[q[live]].tolist(),
                           seg[live].tolist(),
                           (s_ent - seg)[live].tolist(),
                           cuts[live].tolist()):
        if a != cur:
            cur, reg, layers = a, regs_at.setdefault(a, {}), strips[a]
        lev = 0
        for stack, steps, tops in layers:
            cut = key[cl[k - lev]]
            if tops[t] > cut:       # else nothing in the layer lies past it
                canons, elems = stack.suffix_at(steps[t], cut)
                assert not elems    # unbuffered stacks are block-exact
                for cid in canons:
                    lst = reg.get(cid * (k + 1) + lev)
                    if lst is None:
                        reg[cid * (k + 1) + lev] = [p]
                    else:
                        lst.append(p)
            lev += 1
    parts = ([], [])
    off, half = st.off.tolist(), (st.count // 2).tolist()
    for o in (0, 1):
        for u in sorted(u for u in lc if u != -1):
            a = off[u] + o * half[u]
            for lk, regs in regs_at.get(a, {}).items():
                cid, lev = divmod(lk, k + 1)
                parts[o].append((strips[a][lev][0].canonical_payloads(cid), regs))
    return [(ORIENT_DOM, (parts[0], ([], []))),
            (ORIENT_ANTI, (parts[1], ([], [])))]



# ---------------------------------------------------------------------------
# compact pipeline (rank space, both orientations in one batched pass)

_SCAN_ROWS = 8192   # leaf-scan rows per chunk: bounds the (rows x tau) matrices


def _leaf_scan(st: _Strips, yr, tau, below, cut):
    """Each lane's lower-left maxima inside its own leaf, off a (lanes x
    tau) window of the leaf members ahead of it, nearest first.  Fills the
    leaf links and each lane's cut (its nearest maximum); returns the
    (query lane, member lane) pairs packed as query * 2n + member."""
    leaf = np.flatnonzero(st.down == -1)   # leaves' segments, contiguous
    lanes = st.lanes[leaf]
    pos = leaf - st.seg[leaf]
    ys = yr[lanes].astype(np.int32)
    w = tau - 1                            # a leaf holds at most tau lanes
    ks = np.arange(w)
    window = sliding_window_view(np.r_[np.full(w, -1, np.int32), ys], w)[:, ::-1]
    out = []
    for a in range(0, len(leaf), _SCAN_ROWS):
        b = min(a + _SCAN_ROWS, len(leaf))
        ok = ks < pos[a:b, None]
        qy = ys[a:b, None]
        higher = ok & (window[a:b] > qy)
        k = higher.argmax(1)
        below[leaf[a:b]] = np.where(higher[np.arange(b - a), k], leaf[a:b] - 1 - k, -1)
        lower = np.where(ok & (window[a:b] < qy), window[a:b], -1)
        prev = np.full_like(lower, -1)
        np.maximum.accumulate(lower[:, :-1], axis=1, out=prev[:, 1:])
        rows, cols = np.divmod(np.flatnonzero(lower > prev), w)
        rows += a
        got = lanes[rows - 1 - cols]
        out.append(lanes[rows] * len(cut) + got)
        first = np.flatnonzero(np.diff(rows, prepend=-1))   # nearest taken
        cut[lanes[rows[first]]] = got[first]
    return out


def _inner_links(st: _Strips, below):
    """Chain links of internal nodes from their children's, deepest level
    first.  Right lanes are higher than left ones, so a right lane keeps
    its own link and a left lane takes the nearer of its own link and the
    last right lane ahead of it."""
    entry = np.arange(len(st.lanes))
    last_right = np.maximum.accumulate(np.where(st.right, entry, -1))
    last_right = np.r_[-1, last_right[:-1]]
    last_right[(last_right < st.seg) | ~st.left] = -1
    inner = st.down >= 0
    up = np.full(len(entry) + 1, -1)       # up[-1] lifts link -1 to -1
    up[st.down[inner]] = entry[inner]
    for d in range(len(st.bounds) - 3, -1, -1):
        a, b = st.bounds[d], st.bounds[d + 1]
        got = np.maximum(up[below[st.down[a:b]]], last_right[a:b])
        below[a:b] = np.where(inner[a:b], got, below[a:b])


def _chain_sizes(below, entries):
    """Size of the chain after each arrival (its depth in the link forest),
    by pointer jumping over the given entries."""
    size = np.ones(len(below), dtype=np.int64)
    nxt = below.copy()
    act = entries[nxt[entries] >= 0]
    while act.size:
        j = nxt[act]
        size[act] += size[j]
        nxt[act] = nxt[j]
        act = act[nxt[act] >= 0]
    return size


def _strip_stacks(st: _Strips, lc, below, pid):
    """Buffered stacks, keyed by segment start, for the strips (internal
    left children) whose maxima chain outgrows the stack buffer: (stack,
    epoch after each arrival, registry).  Every other strip answers by
    walking its links."""
    lc = np.asarray(lc)
    strip = np.zeros(len(lc), dtype=bool)
    strip[lc[lc != -1]] = True
    strip &= lc != -1
    size = _chain_sizes(below, np.flatnonzero(strip[st.node]))
    starts = np.flatnonzero(np.diff(st.seg, prepend=-1))
    longest = np.zeros(len(st.lanes), dtype=np.int64)
    longest[starts] = np.maximum.reduceat(size, starts)
    stacks = {}
    for u in np.flatnonzero(strip).tolist():
        half = int(st.count[u]) // 2
        limit = RangeStack.buffer_limit(half)
        for a in (int(st.off[u]), int(st.off[u]) + half):
            if longest[a] <= limit:
                continue
            sz = size[a:a + half].tolist()
            # each arrival pops the chain suffix it dominates
            pops = [p + 1 - s for p, s in zip([0] + sz[:-1], sz)]
            lanes = st.lanes[a:a + half]
            stack = RangeStack(half, buffered=True)
            epochs = stack.run_monotone_script(lanes.tolist(), pid[lanes].tolist(), pops)
            stacks[a] = (stack, epochs, {})
    return stacks


def _compact(ps: PointSet):
    """Both orientations of the compact cover: [(orientation, (canonical
    parts, stars))].

    Lane k < n is the point of x rank k, lane n + k the point of x rank
    n - 1 - k (the anti orientation runs on reflected x).  Lane order is
    pipeline x order within an orientation, so cuts are lanes, exact at any
    coordinate size, and stacks are keyed by lane."""
    n = ps.n
    by_x = np.asarray(ps.by_x, dtype=np.int64)
    pid = np.concatenate([by_x, by_x[::-1]])        # point of each lane
    pairs, parts = _compact_pairs(ps, pid)
    # one star per query lane, members ascending in lane (pipeline x)
    sq, sm = np.divmod(pairs, 2 * n)
    first = np.flatnonzero(np.diff(sq, prepend=-1))
    sizes = np.diff(first, append=len(sm)).tolist()
    ids = pid.astype(object)            # one int per lane, shared by stars
    members = ids[sm].tolist()
    heads = ids[sq[first]].tolist()
    split = int(np.searchsorted(sq[first], n))
    cut = int(first[split]) if split < len(heads) else len(sm)
    dom = (_runs(members[:cut], sizes[:split]), [(p,) for p in heads[:split]])
    # the anti lanes run in reflected x: read their pairs backwards, which
    # reverses every star, and put the stars back in order
    anti = _runs(members[cut:][::-1], sizes[split:][::-1])
    anti.reverse()
    return [(ORIENT_DOM, (parts[0], dom)),
            (ORIENT_ANTI, (parts[1], (anti, [(p,) for p in heads[split:]])))]


def _runs(values: list, sizes) -> list[tuple]:
    """values cut into consecutive tuples of the given sizes."""
    out = []
    a = 0
    for z in sizes:
        out.append(tuple(values[a:a + z]))
        a += z
    return out


def _compact_pairs(ps: PointSet, pid):
    """The compact pipeline up to its stars: every (query lane, member
    lane) star pair packed as query * 2n + member and sorted, and the
    canonical parts of each orientation's stack-backed strips.  The
    per-entry arrays live only here, so they are freed before the stars
    become Python lists."""
    n = ps.n
    tau = 3 * max(1, (n - 1).bit_length())
    lo, hi, lc, rc = _tree_nodes((n + tau - 1) // tau)
    yr = np.asarray(ps.rank_y, dtype=np.int64)[pid]
    st = _strips(yr // tau, lo, lc, rc)
    lanes = st.lanes
    below = np.empty(len(lanes), dtype=np.int64)    # nearest earlier higher
    leaf_cut = np.full(2 * n, -1, dtype=np.int64)   # -1: below every lane
    star = _leaf_scan(st, yr, tau, below, leaf_cut)   # packed star pairs
    _inner_links(st, below)
    stacks = _strip_stacks(st, lc, below, pid)

    # each query's cut before a strip: the running maximum, deepest strip
    # first, of the last lane of every deeper strip, seeded by its leaf
    q_ent, s_ent = _query_pairs(st, lc)
    q = lanes[q_ent]
    last = lanes[s_ent]
    levels = len(st.bounds) - 2
    row = levels - st.depth[st.node[q_ent]]
    cuts = np.full((levels + 1, 2 * n), -1, dtype=np.int64)
    cuts[0] = leaf_cut
    cuts[row, q] = last
    np.maximum.accumulate(cuts, axis=0, out=cuts)
    r = cuts[row - 1, q]
    live = last > r
    stacked = np.zeros(len(lanes), dtype=bool)
    stacked[list(stacks)] = True
    stacked = stacked[st.seg[s_ent]]

    # link walks as one frontier, one link per step; each stops at its cut
    walk = live & ~stacked
    wq, wj, wr = q[walk], s_ent[walk], r[walk]
    lane_at = np.append(lanes, -1)      # link -1 reads -1, under every cut
    while wq.size:
        star.append(wq * (2 * n) + lanes[wj])
        wj = below[wj]
        keep = lane_at[wj] > wr
        wq, wj, wr = wq[keep], wj[keep], wr[keep]

    # stack-backed strips, queried in x order so registries fill in order
    sel = np.flatnonzero(live & stacked)
    sel = sel[np.argsort(q[sel], kind="stable")]
    held = []                           # buffered answers, packed
    for qq, s, a, rr in zip(q[sel].tolist(), s_ent[sel].tolist(),
                            st.seg[s_ent[sel]].tolist(), r[sel].tolist()):
        stack, epochs, reg = stacks[a]
        canons, elems = stack.suffix_at(epochs[s - a], rr)
        if canons:
            p = int(pid[qq])
            for cid in canons:
                reg.setdefault(cid, []).append(p)
        held += [qq * (2 * n) + key for key, _ in elems]
    star.append(np.array(held, dtype=np.int64))

    # the pairs are distinct, so sorting them packed orders them by query,
    # then by member
    pairs = np.concatenate(star)
    pairs.sort()
    parts = [[], []]
    for o in (0, 1):
        for u in range(len(lo)):
            a = int(st.off[u]) + o * (int(st.count[u]) // 2)
            if a in stacks:
                stack, _, reg = stacks[a]
                for cid, regs in reg.items():
                    parts[o].append((stack.canonical_payloads(cid), regs))
    return pairs, parts


# ---------------------------------------------------------------------------
# assembly and public entry points


def _assemble(ps: PointSet, oriented_results, variant: str,
              t0: float) -> BicliqueCover:
    """Both pipelines emit every part's sides ascending in pipeline x, so
    the anti orientation (which ran on reflected coordinates) only needs
    them reversed to be ascending in true x.  Stars come as (left sides,
    right sides), already ascending in true x."""
    new = tuple.__new__                 # Biclique(...) without its __new__
    bicliques: list[Biclique] = []
    weight = edges = 0
    for orientation, (parts, (star_lefts, star_rights)) in oriented_results:
        flip = orientation == ORIENT_ANTI
        for left, right in parts:
            if flip:
                left = left[::-1]
                right = right[::-1]
            bicliques.append(new(Biclique, (tuple(left), tuple(right), orientation)))
            weight += len(left) + len(right)
            edges += len(left) * len(right)
        bicliques += [new(Biclique, b) for b in
                      zip(star_lefts, star_rights, repeat(orientation))]
        members = sum(map(len, star_lefts))
        weight += members + len(star_rights)
        edges += members
    stats = CoverStats(count=len(bicliques), weight=weight, edges=edges,
                       build_ms=(time.perf_counter() - t0) * 1e3,
                       variant=variant)
    return BicliqueCover(bicliques, stats, ps.n)


def _build(ps: PointSet, variant: str, pipeline, *args) -> BicliqueCover:
    """Run one pipeline (both orientations), timed, collector paused."""
    if ps.n < 2:
        raise ValueError("need at least two points")
    t0 = time.perf_counter()
    with _gc_paused():
        return _assemble(ps, pipeline(ps, *args), variant, t0)


def build_cover_basic(ps: PointSet) -> BicliqueCover:
    """O(n log n) bicliques of total weight O(n log^2 n)."""
    return _build(ps, "basic", _leveled, 0)


def build_cover(ps: PointSet) -> BicliqueCover:
    """O(n) bicliques of total weight O(n log^2 n).  Small instances fall
    back to the basic machinery (identical edges, bounds vacuous there)."""
    if ps.n < COMPACT_MIN_N:
        return _build(ps, "compact", _leveled, 0)
    return _build(ps, "compact", _compact)


def build_k_cover(ps: PointSet, k: int) -> BicliqueCover:
    """Cover of the relaxed graph allowing up to k interior points.  k is an
    int (not bool) or a numpy integer; anything else raises ValueError."""
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
        raise ValueError(f"k must be an integer, got {k!r}")
    k = int(k)
    # sets below two points get the driver's error, as for the other builders
    if ps.n >= 2 and not 0 <= k <= ps.n - 2:
        raise ValueError(f"k must be in [0, {ps.n - 2}]")
    return _build(ps, f"k-level(k={k})", _leveled, k)


# ---------------------------------------------------------------------------
# views and verification


def expand_edges(cover: BicliqueCover) -> list[tuple[int, int]]:
    """All covered edges as canonical pairs, with multiplicity."""
    out = []
    for b in cover.bicliques:
        for a in b.left:
            for c in b.right:
                out.append((a, c) if a < c else (c, a))
    return out


def edge_set(cover: BicliqueCover) -> set:
    return set(expand_edges(cover))


def separation_lines(b: Biclique, ps: PointSet):
    """Witness (vertical, horizontal) separation line coordinates, doubled.
    Raises if the biclique is not quadrant-separated."""
    lx = [ps.xs[i] for i in b.left]
    rx = [ps.xs[i] for i in b.right]
    ly = [ps.ys[i] for i in b.left]
    ry = [ps.ys[i] for i in b.right]
    if max(ly) >= min(ry):
        raise AssertionError("no horizontal separation line")
    if b.orientation == ORIENT_DOM:
        if max(lx) >= min(rx):
            raise AssertionError("no vertical separation line")
        vx = max(lx) * 2 + 1
    else:
        if max(rx) >= min(lx):
            raise AssertionError("no vertical separation line")
        vx = max(rx) * 2 + 1
    return vx, max(ly) * 2 + 1


def rect_families(cover: BicliqueCover, ps: PointSet):
    """Yield each biclique as an implicit family of |left|*|right|
    rectangles; asserts quadrant separation on the way out."""
    for b in cover.bicliques:
        separation_lines(b, ps)
        yield [ps[i] for i in b.left], [ps[i] for i in b.right]


@dataclass
class CoverReport:
    ok: bool
    duplicate_edges: list = field(default_factory=list)
    missing_edges: list = field(default_factory=list)
    extra_edges: list = field(default_factory=list)
    separation_violations: list = field(default_factory=list)
    overlap_violations: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "duplicate_edges": self.duplicate_edges[:32],
            "missing_edges": self.missing_edges[:32],
            "extra_edges": self.extra_edges[:32],
            "separation_violations": self.separation_violations[:32],
            "overlap_violations": self.overlap_violations[:32],
            "stats": self.stats,
        }


def verify_cover(cover: BicliqueCover, ps: PointSet,
                 k: int | None = None) -> CoverReport:
    """Exhaustiveness + disjointness + separation check against the brute
    oracle.  Reports violations; never raises on a bad cover."""
    rep = CoverReport(ok=True)
    for bi, b in enumerate(cover.bicliques):
        if set(b.left) & set(b.right):
            rep.overlap_violations.append((bi, sorted(set(b.left) & set(b.right))))
        try:
            separation_lines(b, ps)
        except AssertionError as exc:
            rep.separation_violations.append((bi, str(exc)))
    counts = Counter(expand_edges(cover))
    rep.duplicate_edges = sorted(e for e, c in counts.items() if c > 1)
    want = brute_rig(ps).edges if k is None else brute_k_rig(ps, k).edges
    got = set(counts)
    rep.missing_edges = sorted(want - got)
    rep.extra_edges = sorted(got - want)
    rep.ok = not (rep.duplicate_edges or rep.missing_edges or rep.extra_edges
                  or rep.separation_violations or rep.overlap_violations)
    rep.stats = {
        "n": ps.n,
        "edges": cover.stats.edges,
        "biclique_count": cover.stats.count,
        "cover_weight": cover.stats.weight,
        "variant": cover.stats.variant,
    }
    return rep

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
    """The leveled stacks allocate millions of acyclic containers; pausing
    the cyclic collector for the build avoids quadratic-feeling GC sweeps."""
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


@dataclass
class CoverStats:
    count: int
    weight: int
    edges: int
    build_ms: float
    variant: str


@dataclass(eq=False)
class BicliqueCover:
    """A cover as CSR columns.  ``sides`` holds each biclique's left side,
    then its right side, each in true x order; side j is
    sides[starts[j]:starts[j + 1]], so biclique i owns sides 2i and 2i + 1;
    ``anti[i]`` marks an anti-dominance biclique."""

    sides: np.ndarray
    starts: np.ndarray
    anti: np.ndarray
    stats: CoverStats
    n: int
    # (point set, rank-space side view) kept by depth.exact_depth_at
    _side_ranks: tuple | None = field(default=None, init=False, repr=False)

    @property
    def bicliques(self) -> list[Biclique]:
        """A new list of the bicliques on every access, so editing it leaves
        the cover as it is."""
        ids, at = self.sides.tolist(), self.starts.tolist()
        return [Biclique(tuple(ids[at[j]:at[j + 1]]),
                         tuple(ids[at[j + 1]:at[j + 2]]),
                         ORIENT_ANTI if flip else ORIENT_DOM)
                for j, flip in zip(range(0, len(at) - 1, 2), self.anti.tolist())]


# ---------------------------------------------------------------------------
# y-tree scaffolding (implicit balanced tree over rank units)


def _tree_nodes(units: int):
    """Balanced binary tree over [0, units), built level by level.  Node
    ids are in pre-order (a parent precedes its children, a left subtree
    precedes the right, so the right child of a node over [a, b) split at
    m is 2 * (m - a) ids after it).  Returns lo, hi, lc, rc (-1: none) per
    node, the ids level by level from the left, and every node's depth."""
    lo, hi, lc, rc, depth = (np.full(2 * units - 1, -1, dtype=np.int64) for _ in range(5))
    a, b, idx = np.array([0]), np.array([units]), np.array([0])
    order = []
    while len(idx):
        lo[idx], hi[idx], depth[idx] = a, b, len(order)
        order.append(idx)
        inner = b - a > 1
        a, b, idx = a[inner], b[inner], idx[inner]
        m = (a + b) // 2
        lc[idx], rc[idx] = idx + 1, idx + 2 * (m - a)
        a, b = np.column_stack((a, m)).ravel(), np.column_stack((m, b)).ravel()
        idx = np.column_stack((lc[idx], rc[idx])).ravel()
    return lo, hi, lc, rc, np.concatenate(order), depth


class _Strips(NamedTuple):
    """Every y-tree node's members as entries of one array, nodes level by
    level.  A node holds two segments, one per orientation, each ascending
    in lane; ``down`` maps an internal node's entry to the entry of the
    same lane in the child holding it (-1 in leaves)."""

    lc: np.ndarray        # left child of each node, -1 in leaves
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


def _strips(unit, units: int) -> _Strips:
    """Lay out the tree over rank units [0, units) (_tree_nodes) on lanes
    0..len(unit)-1; the upper half of the lanes is the second orientation,
    in its own segment of every node.  Built level by level: a level's
    split sends each entry ``down``, which places the lanes of the next
    level.  Per-node values reach the entries by repeats over the level's
    nodes, not by gathers over all entries."""
    lo, hi, lc, rc, order, depth = _tree_nodes(units)
    edges = np.r_[0, np.cumsum(np.bincount(unit, minlength=units))]
    count = edges[hi] - edges[lo]
    off = np.empty(len(lo), dtype=np.int64)
    off[order] = np.cumsum(count[order]) - count[order]
    node = np.repeat(order, count[order])
    levels = np.searchsorted(depth[order], np.arange(depth.max() + 2))
    bounds = np.r_[off[order], len(node)][levels]
    lanes = np.empty(len(node), dtype=np.int64)
    lanes[:len(unit)] = np.arange(len(unit))
    seg = np.empty(len(node), dtype=np.int64)
    left = np.zeros(len(node), dtype=bool)
    ahead = np.zeros(len(node), dtype=np.int64)
    down = np.full(len(node), -1, dtype=np.int64)
    half = len(unit) // 2
    for d in range(len(levels) - 1):
        a, b = bounds[d], bounds[d + 1]
        us = order[levels[d]:levels[d + 1]]
        z = count[us]
        at = np.repeat(off[us] - a, z)          # node start, in the level
        ln = lanes[a:b]
        seg[a:b] = at + a + (ln >= half) * np.repeat(z // 2, z)
        inn = np.repeat(lc[us] != -1, z)
        if not inn.any():
            continue
        left[a:b] = lf = inn & (unit[ln] < np.repeat(lo[rc[us]], z))
        ah = np.cumsum(lf) - lf
        ahead[a:b] = ah = ah - ah[at]
        dn = np.where(lf, np.repeat(off[lc[us]], z) + ah,
                      np.repeat(off[rc[us]], z) + np.arange(b - a) - at - ah)
        down[a:b][inn] = dn[inn]
        lanes[dn[inn]] = ln[inn]
    return _Strips(lc, lanes, node, seg, left, (down >= 0) & ~left, ahead, down,
                   off, count, depth, bounds)


def _query_pairs(st: _Strips):
    """The prefix decomposition as pairs: a member of a node's right child
    queries its left child, whose members ahead of it in x are a prefix of
    that strip.  Returns the querying entries and, per query, the entry of
    the last strip member ahead of it."""
    q = np.flatnonzero(st.right & (st.ahead > st.ahead[st.seg]))
    return q, st.off[st.lc[st.node[q]]] + st.ahead[q] - 1


def _canonical_runs(st: _Strips, stacks, segs, reads, canons, counts):
    """The runs (_pack) of the canonical parts: one biclique per canonical
    set a query hit, its left side the set's payloads, its right side the
    hitting points in hit order.  segs: the segment start of each stack's
    strip; reads: the stack index and point of every stack read, in query
    order; canons: the canonical ids the reads answered, counts of them per
    read.  Bicliques follow their strip (the dominance strips first, each
    orientation's in node order), then their first hit."""
    hs, hp = (np.repeat(np.asarray(r, dtype=np.int64), counts) for r in reads)
    hc = np.asarray(canons, dtype=np.int64)
    pay, start, trees, weight = [], [], [], []
    for stack in stacks:
        p, s = stack.canonical_columns()
        pay += p
        start += s
        trees.append(len(s))
        weight.append(len(p))
    trees, weight = (np.asarray(c, dtype=np.int64) for c in (trees, weight))
    # every tree's run of pay: the stacks' storages laid end to end
    start = np.asarray(start, dtype=np.int64) + np.repeat(np.cumsum(weight) - weight, trees)
    size = np.diff(start, append=len(pay))
    u = st.node[np.asarray(segs, dtype=np.int64)]
    place = np.repeat((np.asarray(segs) != st.off[u]) * len(st.off) + u, trees)
    # group the hits by tree, the trees by place, then first hit
    tree = np.cumsum(trees)[hs] - trees[hs] + hc
    first = np.full(len(size), len(tree), dtype=np.int64)
    np.minimum.at(first, tree, np.arange(len(tree)))
    order = np.argsort(place[tree] * (len(tree) + 1) + first[tree], kind="stable")
    tree = tree[order]
    lead = np.flatnonzero(np.diff(tree, prepend=-1))
    g = tree[lead]
    # each biclique's left side (off pay), then its right side (off hp)
    src = np.concatenate([np.asarray(pay, dtype=np.int64), hp[order]])
    at = np.column_stack((start[g], len(pay) + lead)).ravel()
    sizes = np.column_stack((size[g], np.diff(lead, append=len(tree)))).ravel()
    out = np.cumsum(sizes) - sizes
    ids = src[np.repeat(at - out, sizes) + np.arange(int(sizes.sum()))]
    cut = 2 * int(np.searchsorted(place[g], len(st.off)))
    end = int(out[cut]) if cut < len(out) else len(ids)
    return [(ids[:end], sizes[:cut], False), (ids[end:], sizes[cut:], True)]


# ---------------------------------------------------------------------------
# leveled pipeline (basic cover and k-level cover)


def _layers(sxs: list, nys: list, pts: list, k: int):
    """The k + 1 maxima layers of one strip, built one layer at a time: at
    arrival i a layer pops the staircase suffix the arriving point
    dominates, then pushes its carry: i itself on layer 0, on layer j + 1
    what layer j lost at arrival i.  Keys are lanes.  Per layer: (stack,
    step and top lane after each arrival, -1 while the layer is empty);
    layers that would stay empty are left out."""
    stack = RangeStack(len(pts))
    arrive = stack.replace_top
    keys: list = []        # members' -y, ascending == stack order
    pos: list[int] = []    # members' positions in the strip (k > 0 only)
    carries: list = []     # what each arrival pops, for the next layer
    for i, (sx, ny, pt) in enumerate(zip(sxs, nys, pts)):
        j = bisect_right(keys, ny)
        if j < len(keys):
            arrive(len(keys) - j, sx, pt)
            del keys[j:]
        else:
            arrive(0, sx, pt)
        if k:
            carries.append(pos[j:])
            del pos[j:]
            pos.append(i)
        keys.append(ny)
    # arrival i is step i + 1; layer 0's top is the arrival itself
    layers = [(stack, range(1, len(pts) + 1), sxs)]
    for deeper in range(k - 1, -1, -1):
        if not any(carries):
            break
        stack = RangeStack(len(pts))
        arrive, push = stack.replace_top, stack.push
        keys, pos, steps = [], [], []
        tops: list = []
        lost: list = []
        step, top = 0, -1
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
                step = arrive(popped, sxs[carry[0]], pts[carry[0]])
                for e in carry[1:]:
                    step = push(sxs[e], pts[e])
                keys += [nys[e] for e in carry]
                pos += carry
            else:
                step = stack.pop(popped)
            top = sxs[pos[-1]] if pos else -1
            steps.append(step)
            tops.append(top)
        layers.append((stack, steps, tops))
        carries = lost
    return layers


def _leveled(ps: PointSet, k: int):
    """Both orientations of the basic (k = 0) or k-level cover, as the runs
    of _pack: the canonical parts, (left ids, right ids) pairs that cover
    exactly the pairs with at most k blockers.

    Lanes and strips as in _compact, over units of one y rank.  Queries
    read left children only (_query_pairs).  A query's cuts before a strip
    are the k + 1 highest lanes among the members ahead of it in the deeper
    strips, merged one tree level at a time, deepest first; layer j takes
    the (k + 1 - j)-th highest.  A strip's stacks are built only as far as
    the queries that can find something in them read."""
    n = ps.n
    by_x = list(ps.by_x)
    pid = np.asarray(by_x + by_x[::-1])         # point of each lane
    # stacks are keyed by lane: within an orientation, lane order is
    # pipeline x order, and lane -1 lies below every lane
    yr = np.asarray(ps.rank_y, dtype=np.int64)[pid]
    st = _strips(yr, n)
    lanes = st.lanes
    q_ent, s_ent = _query_pairs(st)
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
    first = np.zeros(len(lanes), dtype=np.int64)    # a strip's first stack
    layered = np.zeros(len(lanes), dtype=np.int64)  # and its layer count
    stacks, segs = [], []   # every layer's stack, and its strip's segment
    steps, tops = [], []    # every layer's step and top lane after each arrival
    at = []                 # and where its arrivals start there
    for a, b in zip(starts.tolist(), (np.maximum.reduceat(mark, starts) + 1).tolist()):
        if b:
            ls = lanes[a:b]
            layers = _layers(ls.tolist(), (-yr[ls]).tolist(), pid[ls].tolist(), k)
            first[a], layered[a] = len(stacks), len(layers)
            segs += [a] * len(layers)
            for stack, sp, tp in layers:
                at.append(len(steps))
                stacks.append(stack)
                steps += sp
                tops += tp
    at, steps, tops = (np.asarray(c, dtype=np.int64) for c in (at, steps, tops))

    # the (query, layer) reads, queries strip by strip in lane order (x
    # order within an orientation); a layer whose top lies at or below the
    # cut holds nothing past it
    live = live[np.lexsort((q[live], seg[live]))]
    a, t = seg[live], (s_ent - seg)[live]
    cl = cuts[live][:, ::-1]                    # layer j's cut in column j
    has = back < layered[a, None]
    si = first[a, None] + np.where(has, back, 0)
    reads = has & (tops[at[si] + t[:, None]] > cl)
    rq, rl = np.nonzero(reads)
    si = si[rq, rl]
    hc, counts = [], []
    for s, step, cut in zip(si.tolist(), steps[at[si] + t[rq]].tolist(),
                            cl[rq, rl].tolist()):
        canons, elems = stacks[s].suffix_at(step, cut)
        assert not elems    # unbuffered stacks are block-exact
        hc += canons
        counts.append(len(canons))
    return _canonical_runs(st, stacks, segs, (si, pid[q[live][rq]]), hc, counts)


# ---------------------------------------------------------------------------
# compact pipeline (rank space, both orientations in one batched pass)

_SCAN_ROWS = 8192   # leaf-scan rows per chunk: bounds the (rows x tau) matrices


def _leaf_scan(st: _Strips, yr, tau, below, cut):
    """Each lane's lower-left maxima inside its own leaf, off a window of
    the leaf members ahead of it, nearest first.  Fills the leaf links and
    each lane's cut (its nearest maximum); returns the (query lane, member
    lane) pairs packed as query * 2n + member.  Rows go in order of their
    position in the leaf, so a chunk's window is only as wide as its
    farthest row reaches."""
    leaf = np.flatnonzero(st.down == -1)   # leaves' segments, contiguous
    lanes = st.lanes[leaf]
    pos = leaf - st.seg[leaf]
    ys = yr[lanes].astype(np.int32)
    w = tau - 1                            # a leaf holds at most tau lanes
    window = sliding_window_view(np.r_[np.full(w, -1, np.int32), ys], w)[:, ::-1]
    by_pos = np.argsort(pos, kind="stable")
    out = []
    for a in range(0, len(leaf), _SCAN_ROWS):
        idx = by_pos[a:a + _SCAN_ROWS]
        reach = max(int(pos[idx[-1]]), 1)
        win = window[idx, :reach]
        ok = np.arange(reach) < pos[idx, None]
        qy = ys[idx, None]
        higher = ok & (win > qy)
        k = higher.argmax(1)
        below[leaf[idx]] = np.where(higher[np.arange(len(idx)), k], leaf[idx] - 1 - k, -1)
        lower = np.where(ok & (win < qy), win, -1)
        prev = np.full_like(lower, -1)
        np.maximum.accumulate(lower[:, :-1], axis=1, out=prev[:, 1:])
        r, cols = np.divmod(np.flatnonzero(lower > prev), reach)
        rows = idx[r]
        got = lanes[rows - 1 - cols]
        out.append(lanes[rows] * len(cut) + got)
        first = np.flatnonzero(np.diff(r, prepend=-1))   # nearest taken
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


def _strip_stacks(st: _Strips, below, pid):
    """Buffered stacks, keyed by segment start, for the strips (internal
    left children) whose maxima chain outgrows the stack buffer: (stack,
    epoch after each arrival).  Every other strip answers by walking its
    links."""
    lc = st.lc
    strip = np.zeros(len(lc), dtype=bool)
    strip[lc[lc != -1]] = True
    strip &= lc != -1
    size = _chain_sizes(below, np.flatnonzero(strip[st.node]))
    starts = np.flatnonzero(np.diff(st.seg, prepend=-1))
    longest = np.zeros(len(st.lanes), dtype=np.int64)
    longest[starts] = np.maximum.reduceat(size, starts)
    us = np.flatnonzero(strip)
    halves = st.count[us] // 2
    limit = [RangeStack.buffer_limit(h) for h in halves.tolist()]
    segs = np.column_stack((st.off[us], st.off[us] + halves))   # both orientations
    outgrow = longest[segs] > np.array(limit, dtype=np.int64)[:, None]
    stacks = {}
    for a, half in zip(segs[outgrow].tolist(), np.repeat(halves, outgrow.sum(1)).tolist()):
        sz = size[a:a + half].tolist()
        # each arrival pops the chain suffix it dominates
        pops = [p + 1 - s for p, s in zip([0] + sz[:-1], sz)]
        lanes = st.lanes[a:a + half]
        stack = RangeStack(half, buffered=True)
        epochs = stack.run_monotone_script(lanes.tolist(), pid[lanes].tolist(), pops)
        stacks[a] = (stack, epochs)
    return stacks


def _compact(ps: PointSet):
    """Both orientations of the compact cover, as the runs of _pack: each
    orientation's canonical parts, then its stars.

    Lane k < n is the point of x rank k, lane n + k the point of x rank
    n - 1 - k (the anti orientation runs on reflected x).  Lane order is
    pipeline x order within an orientation, so cuts are lanes, exact at any
    coordinate size, and stacks are keyed by lane."""
    n = ps.n
    by_x = np.asarray(ps.by_x, dtype=np.int64)
    pid = np.concatenate([by_x, by_x[::-1]])        # point of each lane
    pairs, runs = _compact_pairs(ps, pid)
    # one star per query lane: its members ascending in lane, then the query
    sq, sm = np.divmod(pairs, 2 * n)
    first = np.flatnonzero(np.diff(sq, prepend=-1))
    ends = np.append(first[1:], len(sm))
    ids = np.insert(pid[sm], ends, pid[sq[first]])
    sizes = np.column_stack((ends - first, np.ones_like(first))).ravel()
    split = int(np.searchsorted(sq[first], n))      # the first anti star
    cut = split + (int(first[split]) if split < len(first) else len(sm))
    return [runs[0], (ids[:cut], sizes[:2 * split], False),
            runs[1], (ids[cut:], sizes[2 * split:], True)]


def _compact_pairs(ps: PointSet, pid):
    """The compact pipeline up to its stars: every (query lane, member
    lane) star pair packed as query * 2n + member and sorted, and the runs
    (_pack) of each orientation's stack-backed strips' canonical parts.  The
    per-entry arrays live only here, so they are freed before the stars
    are packed."""
    n = ps.n
    tau = 3 * max(1, (n - 1).bit_length())
    yr = np.asarray(ps.rank_y, dtype=np.int64)[pid]
    st = _strips(yr // tau, (n + tau - 1) // tau)
    lanes = st.lanes
    below = np.empty(len(lanes), dtype=np.int64)    # nearest earlier higher
    leaf_cut = np.full(2 * n, -1, dtype=np.int64)   # -1: below every lane
    star = _leaf_scan(st, yr, tau, below, leaf_cut)   # packed star pairs
    _inner_links(st, below)
    stacks = _strip_stacks(st, below, pid)

    # each query's cut before a strip: the running maximum, deepest strip
    # first, of the last lane of every deeper strip, seeded by its leaf
    q_ent, s_ent = _query_pairs(st)
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
    walk = np.flatnonzero(live & ~stacked)
    wq, wj, wr = q[walk] * (2 * n), s_ent[walk], r[walk]
    lane_at = np.append(lanes, -1)      # link -1 reads -1, under every cut
    while wq.size:
        star.append(wq + lanes[wj])
        wj = below[wj]
        keep = np.flatnonzero(lane_at[wj] > wr)
        wq, wj, wr = wq[keep], wj[keep], wr[keep]

    # stack-backed strips, queried in x order so their hits come in order
    sel = np.flatnonzero(live & stacked)
    sel = sel[np.argsort(q[sel], kind="stable")]
    held, hc, counts = [], [], []       # buffered answers, packed
    for qq, s, a, rr in zip(q[sel].tolist(), s_ent[sel].tolist(),
                            st.seg[s_ent[sel]].tolist(), r[sel].tolist()):
        stack, epochs = stacks[a]
        canons, elems = stack.suffix_at(epochs[s - a], rr)
        hc += canons
        counts.append(len(canons))
        held += [qq * (2 * n) + key for key, _ in elems]
    star.append(np.array(held, dtype=np.int64))
    slot = np.zeros(len(lanes), dtype=np.int64)     # each stack's index
    slot[list(stacks)] = np.arange(len(stacks))

    # the pairs are distinct, so sorting them packed orders them by query,
    # then by member
    pairs = np.concatenate(star)
    pairs.sort()
    return pairs, _canonical_runs(st, [stack for stack, _ in stacks.values()], list(stacks),
                                  (slot[st.seg[s_ent[sel]]], pid[q[sel]]), hc, counts)


# ---------------------------------------------------------------------------
# assembly and public entry points


def _pack(n: int, runs, variant: str, t0: float) -> BicliqueCover:
    """The cover of runs of bicliques, in order.  A run is (ids, sizes,
    anti): each biclique's left side then its right side, both ascending in
    pipeline x, the sizes of those sides, and whether the run is
    anti-oriented.  The anti pipeline ran on reflected x, so each of its
    sides is reversed into true x order."""
    cols = []
    for ids, sizes, anti in runs:
        ids = np.asarray(ids, dtype=np.int64)
        sizes = np.asarray(sizes, dtype=np.int64)
        if anti:
            # entry i of a side [a, b) takes entry a + b - 1 - i
            ends = np.cumsum(sizes)
            ids = ids[np.repeat(2 * ends - sizes - 1, sizes) - np.arange(len(ids))]
        cols.append((ids, sizes, np.full(len(sizes) // 2, anti)))
    sides, sizes, anti = (np.concatenate(col) for col in zip(*cols))
    starts = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=starts[1:])
    stats = CoverStats(count=len(anti), weight=len(sides),
                       edges=int(sizes[0::2] @ sizes[1::2]),
                       build_ms=(time.perf_counter() - t0) * 1e3,
                       variant=variant)
    return BicliqueCover(sides, starts, anti, stats, n)


def _build(ps: PointSet, variant: str, pipeline, *args) -> BicliqueCover:
    """Run one pipeline (both orientations), timed, collector paused."""
    if ps.n < 2:
        raise ValueError("need at least two points")
    t0 = time.perf_counter()
    with _gc_paused():
        return _pack(ps.n, pipeline(ps, *args), variant, t0)


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
    if not (b.left and b.right):
        raise AssertionError("empty side")
    if not all(0 <= i < ps.n for i in b.left + b.right):
        raise AssertionError("point id out of range")
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

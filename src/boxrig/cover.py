"""Biclique covers of the empty-rectangle influence graph.

An edge (q, p) with q strictly below-left of p and an empty rectangle exists
exactly when q lies on the maxima of p's lower-left quadrant.  Covers are
built per orientation: points stream in x order into per-strip range stacks
that maintain quadrant maxima; each query point decomposes its quadrant into
O(log n) y-strips, pulls the surviving maxima suffix of each strip out of
the strip's stack history, and registers itself on every returned canonical
set.  One biclique per canonical set with registrants.

Three variants share this skeleton:

* basic: strips are all subtrees of a y-tree with single-point leaves,
  unbuffered stacks (O(n log n) bicliques, weight O(n log^2 n));
* compact: leaf strips hold 3*ceil(log2 n) points, stacks are buffered, leaf
  strips are answered by direct scanning, and all scan/partial results merge
  into one star biclique per query point (O(n) bicliques, same weight);
  strips whose maxima chain never outgrows the stack buffer skip the stack
  and answer by walking chain links;
* k-level: k+1 stacked maxima layers per strip, built one layer at a time;
  an arriving point pops the suffix it dominates from every layer, and layer
  i's casualties arrive in layer i+1 at the same arrival, so layer
  membership counts within-strip blockers exactly (basic is k = 0).

The anti-dominance orientation reuses the dominance pipeline on x-reflected
coordinates.
"""

from __future__ import annotations

import gc
import time
from contextlib import contextmanager
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

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


def _prefix_nodes_desc(lo, hi, lc, rc, f: int) -> list[int]:
    """Maximal nodes covering units [0, f), highest units first.  Only one
    node per level is cut by f: descend through those, collecting the left
    children they cover whole, which come after everything to their right."""
    nodes: list[int] = []
    idx = 0
    while f > 0:
        if hi[idx] <= f:
            nodes.append(idx)
            break
        if lo[idx] >= f:
            break
        if hi[lc[idx]] <= f:
            nodes.append(lc[idx])
            idx = rc[idx]
        else:
            idx = lc[idx]
    nodes.reverse()
    return nodes


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


# ---------------------------------------------------------------------------
# leveled pipeline (basic cover and k-level cover)


def _leveled_oriented(ps: PointSet, xs, k: int):
    """Dominance-orientation cover over coordinates xs (negate for the anti
    orientation): (parts, []), parts being the (left ids, right ids) pairs
    that cover exactly the pairs with at most k blockers.

    Each y-tree node is built one layer at a time.  At arrival i a layer
    pops the staircase suffix the arriving point dominates, then pushes its
    carry: [i] on layer 0, on layer j + 1 what layer j lost at arrival i."""
    n = ps.n
    ys = ps.ys
    rank_y = ps.rank_y
    by_x = list(ps.by_x) if xs is ps.xs else list(reversed(ps.by_x))
    x_floor = xs[by_x[0]] - 1    # below every key, for any coordinate size
    lo, hi, lc, rc = _tree_nodes(n)
    node_ids = _distribute(by_x, rank_y, lo, lc, rc)
    m = len(lo)
    node_sxs = [None] * m
    node_layers = [None] * m     # per layer: (stack, step after each arrival)
    for idx in range(m):
        pts = node_ids[idx].tolist()
        sxs = node_sxs[idx] = [xs[pid] for pid in pts]
        nys = [-ys[pid] for pid in pts]
        layers = node_layers[idx] = []
        carries = [[i] for i in range(len(pts))]
        for _ in range(k + 1):
            stack = RangeStack(max(len(pts), 1))
            keys: list = []        # members' -y, ascending == stack order
            pos: list[int] = []    # members' positions in the node
            steps: list[int] = []
            lost: list = []
            for i, carry in enumerate(carries):
                j = bisect_right(keys, nys[i])
                lost.append(pos[j:])
                if j < len(keys):
                    stack.pop(len(keys) - j)
                    del keys[j:], pos[j:]
                for e in carry:
                    stack.push(sxs[e], pts[e])
                    keys.append(nys[e])
                    pos.append(e)
                steps.append(stack.step)
            layers.append((stack, steps))
            carries = lost

    registries: list[dict] = [{} for _ in range(m)]
    for pid in by_x:
        t = rank_y[pid]
        if t == 0:
            continue
        px = xs[pid]
        # largest quadrant x's of higher strips, descending, x_floor-padded
        top = [x_floor] * (k + 1)
        for idx in _prefix_nodes_desc(lo, hi, lc, rc, t):
            sxs = node_sxs[idx]
            e = bisect_left(sxs, px)
            if e:
                reg = registries[idx]
                for lev, (stack, steps) in enumerate(node_layers[idx]):
                    canons, elems = stack.suffix_at(steps[e - 1], top[k - lev])
                    assert not elems  # unbuffered stacks are block-exact
                    for cid in canons:
                        key = (lev, cid)
                        lst = reg.get(key)
                        if lst is None:
                            reg[key] = [pid]
                        else:
                            lst.append(pid)
                tail = sxs[max(0, e - k - 1):e]
                top = sorted(top + tail, reverse=True)[:k + 1]
        # nothing registered for strips with no quadrant points
    parts = []
    for idx in range(m):
        layers = node_layers[idx]
        for (lev, cid), regs in registries[idx].items():
            parts.append((layers[lev][0].canonical_payloads(cid), regs))
    return parts, []


# ---------------------------------------------------------------------------
# compact pipeline (buffered stacks, strip floor, star merge)


def _chain_links(ys):
    """Maxima chain of an x-sorted y sequence, as links: for each arrival i
    the element left under it (nearest earlier larger y, -1 if none) and the
    chain size after it arrives.  The chain after arrival i is i, below[i],
    below[below[i]], ... in decreasing x."""
    below: list[int] = []
    size: list[int] = []
    sty = [float("inf")]  # sentinel, never popped
    sti = [-1]
    for i, y in enumerate(ys):
        while sty[-1] < y:
            sty.pop()
            sti.pop()
        below.append(sti[-1])
        size.append(len(sty))
        sty.append(y)
        sti.append(i)
    return below, size


def _compact_oriented(ps: PointSet, xs):
    """Compact dominance-orientation cover: (canonical parts, stars)."""
    n = ps.n
    ys = ps.ys
    rank_y = ps.rank_y
    by_x = list(ps.by_x) if xs is ps.xs else list(reversed(ps.by_x))
    # below every x key and every y, for any coordinate size
    x_floor, y_floor = xs[by_x[0]] - 1, ys[ps.by_y[0]] - 1
    tau = 3 * max(1, (n - 1).bit_length())
    leaves = (n + tau - 1) // tau
    lo, hi, lc, rc = _tree_nodes(leaves)
    node_ids = _distribute(by_x, np.asarray(rank_y) // tau, lo, lc, rc)
    x_arr = np.asarray(xs)
    y_arr = np.asarray(ys)
    m = len(lo)
    node_pts = [None] * m
    node_sxs = [None] * m
    node_epochs = [None] * m
    node_stacks = [None] * m
    node_below = [None] * m
    node_ys = [None] * m
    leaf_node = [0] * leaves
    for idx in range(m):
        ids = node_ids[idx]
        pts = node_pts[idx] = ids.tolist()
        sxs = node_sxs[idx] = x_arr[ids].tolist()
        lys = y_arr[ids].tolist()
        node_below[idx], size = _chain_links(lys)
        if lc[idx] == -1:
            leaf_node[lo[idx]] = idx
            node_ys[idx] = lys
            continue
        if max(size, default=0) <= RangeStack.buffer_limit(len(pts)):
            # a stack would never flush a block, so every suffix answer
            # would be a buffer walk, i.e. a walk of the links
            continue
        stack = RangeStack(len(pts), buffered=True)
        # each arrival pops the chain suffix it dominates (y below its own)
        pops = [p + 1 - s for p, s in zip([0] + size[:-1], size)]
        node_epochs[idx] = stack.run_monotone_script(sxs, pts, pops)
        node_stacks[idx] = stack

    registries: list[dict] = [{} for _ in range(m)]
    stars: list[tuple[int, list[int]]] = []
    prefix_cache: dict[int, list[int]] = {}
    for pid in by_x:
        t = rank_y[pid]
        px = xs[pid]
        py = ys[pid]
        f, within = divmod(t, tau)
        r = x_floor
        star: list[int] = []
        if within:
            # top strip is cut by the query; answer it by scanning
            idx = leaf_node[f]
            ids_ = node_pts[idx]
            lys = node_ys[idx]
            ymax = y_floor
            got: list[int] = []
            for i2 in range(bisect_left(node_sxs[idx], px) - 1, -1, -1):
                y2 = lys[i2]
                if ymax < y2 < py:
                    got.append(ids_[i2])
                    ymax = y2
            if got:
                r = xs[got[0]]
                got.reverse()
                star.extend(got)
        if f:
            nodes = prefix_cache.get(f)
            if nodes is None:
                nodes = _prefix_nodes_desc(lo, hi, lc, rc, f)
                prefix_cache[f] = nodes
            for idx in nodes:
                sxs = node_sxs[idx]
                e = bisect_left(sxs, px)
                if e == 0:
                    continue
                last = sxs[e - 1]
                if last <= r:
                    continue  # the whole strip prefix is shadowed
                stack = node_stacks[idx]
                if stack is None:
                    # floor-size strip or buffer-only stack: walk the chain
                    ids_ = node_pts[idx]
                    below = node_below[idx]
                    got = [ids_[e - 1]]
                    j = below[e - 1]
                    while j >= 0 and sxs[j] > r:
                        got.append(ids_[j])
                        j = below[j]
                    got.reverse()
                    star.extend(got)
                else:
                    canons, elems = stack.suffix_at(node_epochs[idx][e - 1], r)
                    if canons:
                        reg = registries[idx]
                        for cid in canons:
                            lst = reg.get(cid)
                            if lst is None:
                                reg[cid] = [pid]
                            else:
                                lst.append(pid)
                    for _, q in elems:
                        star.append(q)
                r = last
        if star:
            stars.append((pid, star))
    parts = []
    for idx in range(m):
        reg = registries[idx]
        if reg:
            stack = node_stacks[idx]
            for cid, regs in reg.items():
                parts.append((stack.canonical_payloads(cid), regs))
    return parts, stars


# ---------------------------------------------------------------------------
# assembly and public entry points


def _assemble(ps: PointSet, oriented_results, variant: str,
              t0: float) -> BicliqueCover:
    """Both pipelines emit every side ascending in pipeline x, so the anti
    orientation (which ran on reflected coordinates) only needs reversing
    to be ascending in true x."""
    bicliques: list[Biclique] = []
    for orientation, (parts, stars) in oriented_results:
        flip = orientation == ORIENT_ANTI
        for left, right in parts:
            if flip:
                left = left[::-1]
                right = right[::-1]
            bicliques.append(Biclique(tuple(left), tuple(right), orientation))
        for pid, members in stars:
            if flip:
                members = members[::-1]
            bicliques.append(Biclique(tuple(members), (pid,), orientation))
    weight = sum(b.weight for b in bicliques)
    edges = sum(b.edge_count for b in bicliques)
    stats = CoverStats(count=len(bicliques), weight=weight, edges=edges,
                       build_ms=(time.perf_counter() - t0) * 1e3,
                       variant=variant)
    return BicliqueCover(bicliques, stats, ps.n)


def _reflected(xs):
    return [-x for x in xs]


def _build(ps: PointSet, variant: str, oriented, *args) -> BicliqueCover:
    """Run one pipeline on both orientations, timed, collector paused."""
    if ps.n < 2:
        raise ValueError("need at least two points")
    t0 = time.perf_counter()
    with _gc_paused():
        dom = oriented(ps, ps.xs, *args)
        anti = oriented(ps, _reflected(ps.xs), *args)
        return _assemble(ps, [(ORIENT_DOM, dom), (ORIENT_ANTI, anti)],
                         variant, t0)


def build_cover_basic(ps: PointSet) -> BicliqueCover:
    """O(n log n) bicliques of total weight O(n log^2 n)."""
    return _build(ps, "basic", _leveled_oriented, 0)


def build_cover(ps: PointSet) -> BicliqueCover:
    """O(n) bicliques of total weight O(n log^2 n).  Small instances fall
    back to the basic machinery (identical edges, bounds vacuous there)."""
    if ps.n < COMPACT_MIN_N:
        return _build(ps, "compact", _leveled_oriented, 0)
    return _build(ps, "compact", _compact_oriented)


def build_k_cover(ps: PointSet, k: int) -> BicliqueCover:
    """Cover of the relaxed graph allowing up to k interior points.  k is an
    int (not bool) or a numpy integer; anything else raises ValueError."""
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
        raise ValueError(f"k must be an integer, got {k!r}")
    k = int(k)
    # sets below two points get the driver's error, as for the other builders
    if ps.n >= 2 and not 0 <= k <= ps.n - 2:
        raise ValueError(f"k must be in [0, {ps.n - 2}]")
    return _build(ps, f"k-level(k={k})", _leveled_oriented, k)


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

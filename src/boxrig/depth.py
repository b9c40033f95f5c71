"""Approximate rectangle-depth machinery.

Every biclique (B below-left, A up-right after reflecting the anti
orientation) contributes depth k(z) * l(z), where k counts the B points
dominated by z and l the A points dominating z.  Both counts are separable
sums of one-dimensional step functions, so the plane splits into four zones
around the separation lines: two grid zones where the product is a function
of (x-threshold, y-threshold) pairs, and two staircase zones where one
factor is saturated and the other is a family of nested quadrant unions.

Selected level values (all of 1..mu, then a geometric ladder) turn each
biclique into O((|A|+|B|)/eps + levels^2) weighted interior-disjoint
rectangles whose value at any point is within [(1-eps) k l, k l].  Small
bicliques skip the machinery and emit their rectangles verbatim (exact).

One overlay path serves both consumers: the cells of a whole cover become
one x-sweep of leaf-range updates over compressed y.  DepthIndex replays the
sweep into a persistent segment tree and answers stabbing sums in O(log)
time; approx_max_depth replays it into a mutable max tree and keeps the
deepest leaf seen.  The exact searches (log_approx_max_depth, approx_mis)
share one pre-order walk over x-median slabs.

Exact depth at a point (exact_depth_at) needs no overlay: it is the sum of
k * l over the bicliques.  A rank-space view of the cover's sides (the x
and y ranks of every side point, tagged with its biclique) is built once per
cover and point set and kept on the cover, so a query is four bisects into
the sorted coordinates plus a few numpy passes over the cover's weight.

All rectangle coordinates live on the doubled-integer lattice so that
half-open cell boundaries and half-integer queries stay exact.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

import numpy as np

from .cover import ORIENT_DOM, BicliqueCover, build_cover
from .geom import Coord, PointSet, Rect, dbl, rect_of, validate


class EpsOutOfRange(ValueError):
    """eps must lie strictly between 0 and 1."""


def _check_eps(eps: float):
    if not 0 < eps < 1:
        raise EpsOutOfRange(f"eps must be in (0, 1), got {eps!r}")


def select_levels(count: int, eps: float) -> list[int]:
    """1..mu exactly, then a geometric ladder with ratio 1 + eps/5, always
    ending at `count`.  The ladder ratio is deliberately tighter than the
    final contract so that the two-step slack of simplified curves still
    lands inside (1-eps)."""
    mu = math.ceil(6 / eps)
    out = list(range(1, min(count, mu) + 1))
    while out[-1] < count:
        nxt = min(count, math.ceil((1 + eps / 5) * out[-1]))
        if nxt == out[-1]:
            nxt += 1
        out.append(nxt)
    return out


def lower_corners(bx2: list[int], by2: list[int], level: int) -> list:
    """Corners of the region dominating >= level points of the B chain
    (x-ascending, y-descending): an up-right quadrant union."""
    t = len(bx2)
    return [(bx2[i + level - 1], by2[i]) for i in range(t - level + 1)]


def upper_corners(ax2: list[int], ay2: list[int], level: int) -> list:
    """Corners of the region dominated by >= level points of the A chain:
    a down-left quadrant union."""
    s = len(ax2)
    return [(ax2[j], ay2[j + level - 1]) for j in range(s - level + 1)]


def subsample_corners(corners: list, gap: int) -> list:
    """Every gap-th corner plus the last: the induced region is sandwiched
    between the exact level and the level `gap` deeper, with complexity
    len(corners)/gap + 2."""
    if gap <= 1 or len(corners) <= 2:
        return list(corners)
    out = corners[::gap]
    if out[-1] != corners[-1]:
        out.append(corners[-1])
    return out


@dataclass
class StaircaseLevels:
    """Per-side level machinery of one biclique: selected level values and
    one corner chain per selected level (exact up to mu, simplified past
    it)."""

    levels: list
    curves: list  # corner list per selected level, same indexing

    @staticmethod
    def for_lower(bx2, by2, eps: float) -> "StaircaseLevels":
        levels = select_levels(len(bx2), eps)
        mu = math.ceil(6 / eps)
        curves = []
        for i, a in enumerate(levels):
            exact = lower_corners(bx2, by2, a)
            if a <= mu or i + 1 >= len(levels):
                curves.append(exact)
            else:
                curves.append(subsample_corners(exact, levels[i + 1] - a))
        return StaircaseLevels(levels, curves)

    @staticmethod
    def for_upper(ax2, ay2, eps: float) -> "StaircaseLevels":
        levels = select_levels(len(ax2), eps)
        mu = math.ceil(6 / eps)
        curves = []
        for i, a in enumerate(levels):
            exact = upper_corners(ax2, ay2, a)
            if a <= mu or i + 1 >= len(levels):
                curves.append(exact)
            else:
                curves.append(subsample_corners(exact, levels[i + 1] - a))
        return StaircaseLevels(levels, curves)


def in_upper_region(corners: list, zx2: int, zy2: int) -> bool:
    """Membership in a down-left quadrant union (corners x-asc, y-desc)."""
    xs = [c[0] for c in corners]
    j = bisect_left(xs, zx2)
    return j < len(corners) and zy2 <= corners[j][1]


def in_lower_region(corners: list, zx2: int, zy2: int) -> bool:
    """Membership in an up-right quadrant union (corners x-asc, y-desc)."""
    xs = [c[0] for c in corners]
    j = bisect_right(xs, zx2)
    return j > 0 and zy2 >= corners[j - 1][1]


# ---------------------------------------------------------------------------
# per-biclique weighted cells


def _grid_cells(out, xedges, yedges, xvals, yvals):
    """Product cells: xedges/yedges are (lo, hi) doubled-closed interval
    lists aligned with the level values."""
    for (x1, x2), kv in zip(xedges, xvals):
        if x1 > x2:
            continue
        for (y1, y2), lv in zip(yedges, yvals):
            if y1 <= y2:
                out.append((x1, y1, x2, y2, kv * lv))


def _upper_bands(out, curve_list, levels, xmin2, ymin2, factor):
    """Bands between consecutive down-left staircase regions, clipped to
    x >= xmin2, y >= ymin2; band j carries value factor * levels[j]."""
    for j, outer in enumerate(curve_list):
        inner = curve_list[j + 1] if j + 1 < len(curve_list) else None
        cuts = sorted({c[0] for c in outer}
                      | ({c[0] for c in inner} if inner else set()))
        o_xs = [c[0] for c in outer]
        i_xs = [c[0] for c in inner] if inner else []
        lo = xmin2
        val = factor * levels[j]
        for cx in cuts:
            if cx < lo:
                continue
            oi = bisect_left(o_xs, cx)
            top = outer[oi][1] if oi < len(outer) else None
            if top is not None:
                if inner is not None:
                    ii = bisect_left(i_xs, cx)
                    floor2 = inner[ii][1] + 1 if ii < len(inner) else ymin2
                else:
                    floor2 = ymin2
                floor2 = max(floor2, ymin2)
                if floor2 <= top and lo <= cx:
                    out.append((lo, floor2, cx, top, val))
            lo = cx + 1


def _negate_corners(corners: list) -> list:
    return [(-x, -y) for x, y in reversed(corners)]


def biclique_cells(bx2, by2, ax2, ay2, eps: float) -> list:
    """Weighted interior-disjoint doubled-closed rectangles approximating
    the depth field of the rectangle family B x A (B fully below-left of A,
    both staircases x-asc / y-desc).

    Small families are emitted verbatim (one unit rectangle per pair, which
    is exact) whenever that is no larger than the level decomposition."""
    t, s = len(bx2), len(ax2)
    levels_b = select_levels(t, eps)
    levels_a = select_levels(s, eps)
    est = 2 * len(levels_b) * len(levels_a) + 3 * (t + s) + 4
    if t * s <= est:
        return [(bx2[i], by2[i], ax2[j], ay2[j], 1)
                for i in range(t) for j in range(s)]
    xstar = bx2[-1] + 1   # between max B x and min A x
    ystar = by2[0] + 1    # between max B y and min A y
    cells: list = []
    # upper-left grid: k from B x-thresholds, l from A y-thresholds
    xthr = [bx2[a - 1] for a in levels_b]
    xedges = [(xthr[i], xthr[i + 1] - 1) for i in range(len(xthr) - 1)]
    xedges.append((xthr[-1], xstar - 1))
    ythr = [ay2[b - 1] for b in levels_a]
    yedges = [(ythr[i + 1] + 1, ythr[i]) for i in range(len(ythr) - 1)]
    yedges.append((ystar, ythr[-1]))
    _grid_cells(cells, xedges, yedges, levels_b, levels_a)
    # lower-right grid: k from B y-thresholds, l from A x-thresholds
    ythr_b = [by2[t - a] for a in levels_b]
    yedges2 = [(ythr_b[i], ythr_b[i + 1] - 1) for i in range(len(ythr_b) - 1)]
    yedges2.append((ythr_b[-1], ystar - 1))
    xthr_a = [ax2[s - b] for b in levels_a]
    xedges2 = [(xthr_a[i + 1] + 1, xthr_a[i]) for i in range(len(xthr_a) - 1)]
    xedges2.append((xstar, xthr_a[-1]))
    _grid_cells(cells, xedges2, yedges2, levels_a, levels_b)
    # upper-right: k saturated at t, bands of the A staircase levels
    sl_a = StaircaseLevels.for_upper(ax2, ay2, eps)
    _upper_bands(cells, sl_a.curves, sl_a.levels, xstar, ystar, t)
    # lower-left: l saturated at s, bands of the B staircase levels
    # (mirrored through the origin into the upper-right formulation)
    sl_b = StaircaseLevels.for_lower(bx2, by2, eps)
    neg_curves = [_negate_corners(c) for c in sl_b.curves]
    mirrored: list = []
    _upper_bands(mirrored, neg_curves, sl_b.levels,
                 -(xstar - 1), -(ystar - 1), s)
    for x1, y1, x2, y2, w in mirrored:
        cells.append((-x2, -y2, -x1, -y1, w))
    return cells


# ---------------------------------------------------------------------------
# biclique views in doubled coordinates


def _oriented_sides2(b, xs, ys):
    """(B, A) doubled chains with B fully dominated by A; anti bicliques
    are reflected in x (flag returned so cells can be reflected back)."""
    if b.orientation == ORIENT_DOM:
        bx2 = [2 * xs[i] for i in b.left]
        by2 = [2 * ys[i] for i in b.left]
        ax2 = [2 * xs[i] for i in b.right]
        ay2 = [2 * ys[i] for i in b.right]
        return bx2, by2, ax2, ay2, False
    bx2 = [-2 * xs[i] for i in reversed(b.left)]
    by2 = [2 * ys[i] for i in reversed(b.left)]
    ax2 = [-2 * xs[i] for i in reversed(b.right)]
    ay2 = [2 * ys[i] for i in reversed(b.right)]
    return bx2, by2, ax2, ay2, True


def _cover_cells(cover: BicliqueCover, ps: PointSet, eps: float) -> list:
    """Weighted cells of every biclique of the cover, in true doubled x."""
    xs, ys = ps.xs, ps.ys
    cells: list = []
    for b in cover.bicliques:
        bx2, by2, ax2, ay2, flipped = _oriented_sides2(b, xs, ys)
        for x1, y1, x2, y2, w in biclique_cells(bx2, by2, ax2, ay2, eps):
            if flipped:
                x1, x2 = -x2, -x1
            cells.append((x1, y1, x2, y2, w))
    return cells


def _leaf_ranges(cells: list):
    """The x-sweep over the cells: (ybreaks, xs, ranges), where leaf j is
    the y-slab [ybreaks[j], ybreaks[j+1]) and ranges[i] lists the (lo, hi, w)
    leaf-range updates that take effect at x = xs[i] (xs ascending)."""
    ybreaks = sorted({c[1] for c in cells} | {c[3] + 1 for c in cells})
    events: dict[int, list] = {}
    for x1, y1, x2, y2, w in cells:
        lo = bisect_left(ybreaks, y1)
        hi = bisect_left(ybreaks, y2 + 1) - 1
        events.setdefault(x1, []).append((lo, hi, w))
        events.setdefault(x2 + 1, []).append((lo, hi, -w))
    xs = sorted(events)
    return ybreaks, xs, [events[x] for x in xs]


class _SideRanks:
    """Rank-space view of a cover's sides for exact depth queries.

    ``sx2``/``sy2`` are the doubled coordinates in sorted order; a query
    becomes four rank thresholds on them.  Per orientation, each side keeps
    the x and y ranks of its points concatenated over the orientation's
    bicliques, beside the index of the biclique each point belongs to.  The
    view holds no reference to the cover, and reflects its bicliques as they
    were when the view was built."""

    __slots__ = ("sx2", "sy2", "parts", "__weakref__")

    def __init__(self, cover: BicliqueCover, ps: PointSet):
        xs, ys = ps.xs, ps.ys
        self.sx2 = [2 * xs[i] for i in ps.by_x]
        self.sy2 = [2 * ys[i] for i in ps.by_y]
        rank_x = np.fromiter(ps.rank_x, dtype=np.int32, count=ps.n)
        rank_y = np.fromiter(ps.rank_y, dtype=np.int32, count=ps.n)
        dom = [b for b in cover.bicliques if b.orientation == ORIENT_DOM]
        anti = [b for b in cover.bicliques if b.orientation != ORIENT_DOM]
        self.parts = []
        for flipped, group in ((False, dom), (True, anti)):
            sides = []
            for members in ([b.left for b in group], [b.right for b in group]):
                sizes = np.fromiter(map(len, members), dtype=np.int64,
                                    count=len(members))
                ids = np.fromiter(chain.from_iterable(members), dtype=np.int64,
                                  count=int(sizes.sum()))
                seg = np.repeat(np.arange(len(members), dtype=np.int32), sizes)
                sides.append((rank_x[ids], rank_y[ids], seg))
            self.parts.append((flipped, len(group), *sides))

    def depth2(self, qx2: int, qy2: int) -> int:
        """Sum of k*l over the bicliques: k counts the lower side's points
        in q's closed lower quadrant, l the upper side's in the opposite
        one (left/right swap for the anti orientation)."""
        xle, xge = bisect_right(self.sx2, qx2), bisect_left(self.sx2, qx2)
        yle, yge = bisect_right(self.sy2, qy2), bisect_left(self.sy2, qy2)
        total = 0
        for flipped, m, (lx, ly, lseg), (rx, ry, rseg) in self.parts:
            if flipped:
                low = (lx >= xge) & (ly < yle)
                high = (rx < xle) & (ry >= yge)
            else:
                low = (lx < xle) & (ly < yle)
                high = (rx >= xge) & (ry >= yge)
            k = np.bincount(lseg[low], minlength=m)
            ell = np.bincount(rseg[high], minlength=m)
            total += int(k @ ell)
        return total


def exact_depth_at(cover: BicliqueCover, ps: PointSet,
                   q: tuple[Coord, Coord]) -> int:
    """Exact rectangle depth via the cover: sums k*l over bicliques, where
    k counts the B points dominated by q and l the A points dominating it.
    The first call on a cover (or with another point set) builds a
    rank-space view of its sides in O(weight) and keeps it on the cover;
    every call then costs four bisects plus a few numpy passes over the
    cover's weight, with no Python loop over the bicliques."""
    if ps.n != cover.n:
        raise ValueError(f"cover has {cover.n} points, point set {ps.n}")
    qx2, qy2 = dbl(q[0]), dbl(q[1])
    cached = cover._side_ranks
    if cached is None or cached[0] is not ps:
        cached = cover._side_ranks = (ps, _SideRanks(cover, ps))
    return cached[1].depth2(qx2, qy2)


# ---------------------------------------------------------------------------
# persistent segment tree over compressed y


class _PersistentSums:
    """Range-add / point-sum segment tree with path copying; node 0 is the
    shared empty tree."""

    def __init__(self, leaves: int):
        self.n = max(leaves, 1)
        self.lch = [0]
        self.rch = [0]
        self.val = [0]

    def add(self, root: int, lo: int, hi: int, w: int) -> int:
        """New root with w added on leaf range [lo, hi] (non-empty, inside
        the tree).  Copies every node that meets the range, in pre-order;
        each copy is linked into the copy of its parent."""
        lch, rch, val = self.lch, self.rch, self.val
        new_root = len(val)
        todo = [(root, 0, self.n - 1, None, 0)]  # node, span, parent link
        while todo:
            node, nlo, nhi, links, parent = todo.pop()
            fresh = len(val)
            lch.append(lch[node])
            rch.append(rch[node])
            if links is not None:
                links[parent] = fresh
            if lo <= nlo and nhi <= hi:
                val.append(val[node] + w)
                continue
            val.append(val[node])
            mid = (nlo + nhi) // 2
            if mid < hi:
                todo.append((rch[node], mid + 1, nhi, rch, fresh))
            if lo <= mid:
                todo.append((lch[node], nlo, mid, lch, fresh))
        return new_root

    def point_sum(self, root: int, leaf: int) -> int:
        acc = 0
        node = root
        nlo, nhi = 0, self.n - 1
        while node:
            acc += self.val[node]
            if nlo == nhi:
                break
            mid = (nlo + nhi) // 2
            if leaf <= mid:
                node, nhi = self.lch[node], mid
            else:
                node, nlo = self.rch[node], mid + 1
        return acc


class DepthIndex:
    """Weighted-cell overlay answering (1-eps)-approximate depth queries."""

    def __init__(self, ps: PointSet, eps: float, cover: BicliqueCover | None = None):
        _check_eps(eps)
        if ps.n < 2:
            raise ValueError("need at least two points")
        self.eps = eps
        self.ps = ps
        if cover is None:
            cover = build_cover(ps)
        self.cover = cover
        cells = _cover_cells(cover, ps, eps)
        self.cell_count = len(cells)
        self._ybreaks, self._xthresholds, ranges = _leaf_ranges(cells)
        self._tree = tree = _PersistentSums(max(len(self._ybreaks) - 1, 1))
        self._roots = []
        root = 0
        for updates in ranges:
            for lo, hi, w in updates:
                root = tree.add(root, lo, hi, w)
            self._roots.append(root)

    def query2(self, qx2: int, qy2: int) -> int:
        i = bisect_right(self._xthresholds, qx2) - 1
        if i < 0:
            return 0
        yb = self._ybreaks
        j = bisect_right(yb, qy2) - 1
        if j < 0 or j >= len(yb) - 1:
            return 0
        return self._tree.point_sum(self._roots[i], j)

    def query(self, q: tuple[Coord, Coord]) -> int:
        return self.query2(dbl(q[0]), dbl(q[1]))


def build_depth_index(ps: PointSet, eps: float) -> DepthIndex:
    return DepthIndex(ps, eps)


def query_depth(ix: DepthIndex, q: tuple[Coord, Coord]) -> int:
    return ix.query(q)


# ---------------------------------------------------------------------------
# maximum-depth approximations


class _MaxCoverTree:
    """Mutable segment tree: range add, global max of path sums, argmax.
    Node v keeps add[v], the weight added on its whole span, and best[v],
    add[v] plus the larger best of its children."""

    def __init__(self, leaves: int):
        self.n = max(leaves, 1)
        size = 1
        while size < self.n:
            size *= 2
        self.size = size
        self.add = [0] * (2 * size)
        self.best = [0] * (2 * size)

    def update(self, lo: int, hi: int, w: int):
        """Add w on leaves [lo, hi]: bottom-up over the canonical nodes of
        the range, then refresh best on the two boundary leaf paths, which
        hold every ancestor of a canonical node."""
        add, best = self.add, self.best
        left, right = lo + self.size, hi + self.size + 1
        edges = (left >> 1, (right - 1) >> 1)
        while left < right:
            if left & 1:
                add[left] += w
                best[left] += w
                left += 1
            if right & 1:
                right -= 1
                add[right] += w
                best[right] += w
            left >>= 1
            right >>= 1
        for node in edges:
            while node:
                a, b = best[2 * node], best[2 * node + 1]
                best[node] = add[node] + (a if a >= b else b)
                node >>= 1

    def max_value(self) -> int:
        return self.best[1]

    def argmax_leaf(self) -> int:
        node, nlo, nhi = 1, 0, self.size - 1
        while nlo != nhi:
            mid = (nlo + nhi) // 2
            if self.best[2 * node] >= self.best[2 * node + 1]:
                node, nhi = 2 * node, mid
            else:
                node, nlo = 2 * node + 1, mid + 1
        return nlo


def approx_max_depth(ps: PointSet, eps: float):
    """Deepest cell of the overlay: ((x, y), value) with value within
    (1-eps) of the true maximum and never above it."""
    _check_eps(eps)
    cells = _cover_cells(build_cover(ps), ps, eps)
    ybreaks, xs, ranges = _leaf_ranges(cells)
    tree = _MaxCoverTree(max(len(ybreaks) - 1, 1))
    best_val = 0
    best_xy = (2 * ps.xs[0], 2 * ps.ys[0])
    for x, updates in zip(xs, ranges):
        for lo, hi, w in updates:
            tree.update(lo, hi, w)
        v = tree.max_value()
        if v > best_val:
            best_val = v
            best_xy = (x, ybreaks[tree.argmax_leaf()])
    return (Fraction(best_xy[0], 2), Fraction(best_xy[1], 2)), best_val


def _slabs(ps: PointSet):
    """Pre-order walk of the x-median recursion: (level, ids, sub, c2,
    cover) for every slab of at least two points, where ids are the slab's
    points in x order, sub is them as a point set (local ids), c2 the
    doubled x of the splitting line and cover the compact cover of sub."""
    todo = [(0, list(ps.by_x))]
    while todo:
        level, ids = todo.pop()
        if len(ids) < 2:
            continue
        sub = validate([(ps.xs[i], ps.ys[i]) for i in ids])
        mid = len(ids) // 2
        c2 = 2 * ps.xs[ids[mid]]
        yield level, ids, sub, c2, build_cover(sub)
        todo.append((level + 1, ids[mid:]))
        todo.append((level + 1, ids[:mid]))


def _line_max(cover: BicliqueCover, sub: PointSet, c2: int):
    """Exact maximum depth of the cover's rectangle family on the vertical
    line x = c2/2, with the achieving doubled y."""
    events: dict[int, int] = {}
    xs, ys = sub.xs, sub.ys
    for b in cover.bicliques:
        bx2, by2, ax2, ay2, flipped = _oriented_sides2(b, xs, ys)
        zx = -c2 if flipped else c2
        nb = bisect_right(bx2, zx)       # B prefix straddling the line
        na = len(ax2) - bisect_left(ax2, zx)
        if nb == 0 or na == 0:
            continue
        bys = sorted(by2[:nb])
        ays = sorted(ay2[len(ay2) - na:])
        # depth along the line: (#b.y <= y) * (#a.y >= y); the product is
        # constant between breakpoints, which sit at each b.y (count up)
        # and each a.y + 1 (count down)
        breaks = sorted({y for y in bys} | {y + 1 for y in ays})
        for i2, y in enumerate(breaks[:-1]):
            kb = bisect_right(bys, y)
            la = len(ays) - bisect_left(ays, y)
            w = kb * la
            if w:
                events[y] = events.get(y, 0) + w
                nxt = breaks[i2 + 1]
                events[nxt] = events.get(nxt, 0) - w
    if not events:
        return None
    best = (0, None)
    run = 0
    for y in sorted(events):
        run += events[y]
        if run > best[0]:
            best = (run, y)
    return best if best[1] is not None else None


def log_approx_max_depth(ps: PointSet):
    """Divide and conquer on x-median lines.  Every candidate value is the
    exact depth of its point within the slab's own rectangle set, a lower
    bound on the true depth; the reported value is the exact global depth at
    the winning point."""
    if ps.n < 2:
        raise ValueError("need at least two points")
    best_val, best_xy = 0, None
    root = None
    for level, _, sub, c2, cov in _slabs(ps):
        if level == 0:
            root = (cov, sub)    # all points: depth needs only coordinates
        got = _line_max(cov, sub, c2)
        if got is not None and got[0] > best_val:
            best_val, best_xy = got[0], (c2, got[1])
    assert best_xy is not None
    point = (Fraction(best_xy[0], 2), Fraction(best_xy[1], 2))
    return point, exact_depth_at(*root, point)


# ---------------------------------------------------------------------------
# independent-set approximation


def approx_mis(ps: PointSet) -> list[Rect]:
    """Per recursion level: one candidate rectangle per stabbed biclique
    (highest point of the lower side with lowest point of the upper side,
    the narrowest of the family), greedy 1-D interval MIS on the line, then
    keep the best single level (same-level slabs are x-disjoint)."""
    if ps.n < 2:
        raise ValueError("need at least two points")
    levels: dict[int, list] = {}
    for level, ids, sub, c2, cov in _slabs(ps):
        cands = []
        for b in cov.bicliques:
            if b.orientation == ORIENT_DOM:
                low, high = b.left[0], b.right[-1]
            else:
                low, high = b.right[0], b.left[-1]
            r = rect_of(sub[low], sub[high])
            if 2 * r.lo[0] <= c2 <= 2 * r.hi[0]:
                cands.append((r.lo[1], r.hi[1], ids[low], ids[high]))
        cands.sort(key=lambda c: c[1])
        chosen = levels.setdefault(level, [])
        last_hi = None
        for y1, y2, ga, gb in cands:
            if last_hi is None or y1 > last_hi:
                chosen.append(rect_of(ps[ga], ps[gb]))
                last_hi = y2
    if not levels:
        return []
    return max(levels.values(), key=len)

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
The level cells of all the other bicliques of a cover are built in one
numpy pass in index space (positions along each side), their edges
gathered as rank codes at the end.

One overlay path serves both consumers, on the rank lattice: a cell edge
is the int64 code 2 * rank + offset, ordered as the doubled coordinate
2 * coord + offset it stands for.  The codes are the events and leaves of
an x-sweep whose corners fold into a static dominance-sum table (a
leaf-prefix snapshot every B events plus, per block of B events, a prefix
table over the leaves that block touches).  DepthIndex answers a stabbing
sum with three bisects and two table reads; approx_max_depth reads the
deepest point off the same table with two numpy max reductions.
The slab searches (log_approx_max_depth, approx_mis) share one pre-order
walk over x-median slabs; on a slab's median line the stabbed rectangles are
y-intervals, read off one stack sweep of the slab's y order with no cover.
The same sweep over the whole set gives log_approx_max_depth the exact
global depth at its winner, which lies on its slab's line.

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
from fractions import Fraction

import numpy as np

from .cover import BicliqueCover, build_cover
from .geom import Coord, PointSet, Rect, _rect_ids, coord_array, dbl


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


def _curve_positions(length, level, nxt, mu: int):
    """The corners kept on staircase curves, the one subsampling rule.

    Per curve: its count of exact corners, its level and the next selected
    level (0 at the last level).  Up to mu and at the last level a curve
    keeps every corner; past mu it keeps every gap-th corner plus the last,
    gap the distance to the next level, so the region it induces is
    sandwiched between the exact level and the next one, with complexity
    length/gap + 2.  Returns (curve, position) arrays, positions ascending
    within each curve."""
    gap = np.where((level > mu) & (nxt > 0), nxt - level, 1)
    count = (length + gap - 2) // gap + 1
    curve = np.repeat(np.arange(len(length)), count)
    r = np.arange(len(curve)) - np.repeat(np.cumsum(count) - count, count)
    return curve, np.minimum(r * gap[curve], length[curve] - 1)


def staircase_curves(corners, xs2: list[int], ys2: list[int], levels: list,
                     eps: float) -> list:
    """One corner chain per selected level of one side of a biclique, exact
    up to mu and simplified past it.  ``corners`` is lower_corners for the B
    side and upper_corners for the A side."""
    lv = np.array(levels, dtype=np.int64)
    curve, pos = _curve_positions(len(xs2) - lv + 1, lv, np.append(lv[1:], 0),
                                  math.ceil(6 / eps))
    curves = []
    for a, kept in zip(levels, np.split(pos, np.searchsorted(
            curve, np.arange(1, len(levels))))):
        exact = corners(xs2, ys2, a)
        curves.append([exact[p] for p in kept.tolist()])
    return curves


# ---------------------------------------------------------------------------
# weighted level cells


def _emits_verbatim(t: int, s: int, levels_t: int, levels_s: int) -> bool:
    """Whether a t x s family with that many selected levels per side is
    emitted as its t*s unit rectangles: no more cells than the level
    decomposition's estimate."""
    return t * s <= 2 * levels_t * levels_s + 3 * (t + s) + 4


def _ladders(sizes, eps: float) -> tuple:
    """select_levels of every distinct side size, once: (levels, at), the
    ladder of size c being levels[at[c]:at[c + 1]]."""
    distinct = np.unique(sizes)
    ladders = [select_levels(c, eps) for c in distinct.tolist()]
    count = np.zeros(int(distinct[-1]) + 2, dtype=np.int64)
    count[distinct + 1] = [len(ladder) for ladder in ladders]
    return np.concatenate(ladders), np.cumsum(count)


def _level_cells(sides, bounds, anti, ladders: tuple, x2s, y2s,
                 eps: float) -> tuple:
    """Level cells of bicliques, as the columns (x1, y1, x2 + 1, y2 + 1, w)
    of _cover_cells.  Biclique k's left side is sides[lo:mid] and its right
    side sides[mid:hi], (lo, mid, hi) = bounds[k], both point ids in x
    order; anti[k] marks it anti-oriented (reflected in x into the
    dominance form).  ladders holds the selected levels of every side size
    (_ladders).  x2s/y2s are the doubled columns the ids index: ranks in
    _cover_cells, coordinates in biclique_cells.

    In its dominance form a biclique has B = left below-left of A = right,
    both staircases x-ascending, y-descending, with |B| = t and |A| = s.
    Each side is handled as a chain of down-left quadrant corners: A as it
    is, B mirrored through the origin.  At level a, the corner at position
    p of a chain is (x[p], y[p + a - 1]).  The mirrored B chain is B
    reversed and negated, so its position q is B's lower-corner position
    (t - a) - q, and its curves keep the positions B's own curves keep.
    Per selected level a side has one band, the cells between the level's
    curve and the next level's, of weight the other side's size times the
    level, and one x- and one y-interval of the grid zones, which are outer
    products over the (B level, A level) pairs.

    All of it runs in index space over every side at once.  A corner is a
    (level entry, position) key, so the cuts of every band are one merge
    of two sorted key runs, and their outer tops and inner floors two
    searchsorted calls.  A cell edge is a code 2 * id + offset, standing
    for +-(x2s or y2s)[id] + offset in the side's frame, negative on a
    reflected axis; reflecting an edge pair back swaps the two codes and
    flips their offsets.  The columns are gathered at the end, and empty
    cells (a grid product over an empty interval, a band whose floor lies
    above its top) are dropped; strict staircases with B strictly below-left
    of A, as in a cover of a validated point set, give none."""
    mu = math.ceil(6 / eps)
    # sides: A of biclique k (its right side) is side 2k, the mirrored B
    # side (its left) 2k + 1; a chain runs against x where flip_x is set
    lo, mid, hi = np.asarray(bounds, dtype=np.int64).T
    n = np.column_stack((hi - mid, mid - lo)).ravel()
    mirrored = np.arange(len(n)) % 2 == 1
    flip_x = np.repeat(np.asarray(anti, dtype=bool), 2) ^ mirrored
    start = np.cumsum(n) - n
    factor = n.reshape(-1, 2)[:, ::-1].ravel()
    head = np.column_stack((mid, lo)).ravel() + np.where(flip_x, n - 1, 0)
    pos = np.arange(int(n.sum())) - np.repeat(start, n)
    code = 2 * sides[np.repeat(head, n) + np.repeat(1 - 2 * flip_x, n) * pos] + 1
    # codes of the sentinels: the zone boundaries x* = max B x + 1 and
    # y* = max B y + 1 in A's frame, the B chain's ends themselves mirrored
    b_first = np.repeat(start[1::2], 2)
    x_min = code[b_first] - mirrored
    y_min = code[b_first + np.repeat(n[1::2], 2) - 1] - mirrored
    # level entries: side, level a and the next level (0 at the last)
    levels, at = ladders
    per_side = at[n + 1] - at[n]
    first = np.cumsum(per_side) - per_side
    side = np.repeat(np.arange(len(n)), per_side)
    a = levels[at[n][side] + np.arange(len(side)) - first[side]]
    opens_side = np.append(True, side[1:] != side[:-1])
    last = np.append(opens_side[1:], True)
    nxt = np.where(last, 0, np.append(a[1:], 0))
    base, size = start[side], n[side]
    # bands: level e's curve is e's outer boundary and e - 1's inner one
    length = size - a + 1
    curve, p = _curve_positions(length, a, nxt, mu)
    span = int(n.max())
    # stable sorts merge presorted runs in linear time (each curve's keys
    # ascend, or descend on a mirrored side)
    outer = np.sort(curve * span + np.where(mirrored[side[curve]],
                                            length[curve] - 1 - p, p),
                    kind="stable")
    inner = outer[~opens_side[outer // span]] - span
    cuts = np.sort(np.concatenate((outer, inner)), kind="stable")
    cuts = cuts[np.append(True, cuts[1:] != cuts[:-1])]
    band = cuts // span
    x = cuts - band * span
    top = outer[np.searchsorted(outer, cuts)] - band * span + a[band] - 1
    inner = np.append(inner, len(a) * span)    # past every band
    hit = inner[np.searchsorted(inner, cuts)]
    has_floor = hit < (band + 1) * span
    floor = np.where(has_floor, hit - band * span + nxt[band] - 1, 0)
    opens = np.append(True, band[1:] != band[:-1])
    prev = np.where(opens, 0, np.roll(x, 1))
    sb, cb = side[band], base[band]
    x1, x2 = _unflip(np.where(opens, x_min[sb], code[cb + prev]),
                     code[cb + x], flip_x[sb])
    y1, y2 = _unflip(np.where(has_floor, code[cb + floor], y_min[sb]),
                     code[cb + top], mirrored[sb])
    bands = (x1, y1, x2, y2, factor[sb] * a[band])
    # grid intervals per level entry
    ahead = np.where(last, a, nxt)
    x_lo, x_hi = _unflip(np.where(last, x_min[side],
                                  code[base + size - ahead]),
                         code[base + size - a], flip_x[side])
    y_lo, y_hi = _unflip(np.where(last, y_min[side], code[base + ahead - 1]),
                         code[base + a - 1], mirrored[side])
    # (B level, A level) pairs of each biclique
    per_a, per_b = per_side[0::2], per_side[1::2]
    pairs = per_a * per_b
    k = np.repeat(np.arange(len(pairs)), pairs)
    r = np.arange(len(k)) - np.repeat(np.cumsum(pairs) - pairs, pairs)
    i = first[1::2][k] + r // per_a[k]
    j = first[0::2][k] + r % per_a[k]
    w = a[i] * a[j]
    upper_left = (x_lo[i], y_lo[j], x_hi[i], y_hi[j], w)
    lower_right = (x_lo[j], y_lo[i], x_hi[j], y_hi[i], w)
    x1, y1, x2, y2, w = (np.concatenate(col) for col in
                         zip(bands, upper_left, lower_right))
    cols = [col[c >> 1] + (c & 1) for col, c in
            ((x2s, x1), (y2s, y1), (x2s, x2), (y2s, y2))]
    keep = (cols[0] < cols[2]) & (cols[1] < cols[3])
    return tuple(col[keep] for col in (*cols, w))


def _unflip(lo, hi, flip):
    """Edge codes (2 * id + offset) of a half-open interval [lo, hi) of a
    side's frame, in true coordinates: where flip is set the frame is the
    reflection, which maps [lo, hi) to [1 - hi, 1 - lo)."""
    return np.where(flip, hi ^ 1, lo), np.where(flip, lo ^ 1, hi)


def biclique_cells(bx2, by2, ax2, ay2, eps: float) -> list:
    """Weighted interior-disjoint doubled-closed rectangles approximating
    the depth field of the rectangle family B x A (B fully below-left of A,
    both staircases strictly x-asc / y-desc).

    Small families are emitted verbatim (one unit rectangle per pair, which
    is exact) whenever that is no larger than the level decomposition.  The
    others are the one-biclique call of _level_cells, the builder the depth
    index runs, with the cells' upper edges made closed again."""
    t, s = len(bx2), len(ax2)
    ladders = _ladders(np.array([t, s]), eps)
    count = np.diff(ladders[1])
    if _emits_verbatim(t, s, count[t], count[s]):
        return [(bx2[i], by2[i], ax2[j], ay2[j], 1)
                for i in range(t) for j in range(s)]
    cols = _level_cells(np.arange(t + s), [[0, t, t + s]], [False], ladders,
                        coord_array([*bx2, *ax2]), coord_array([*by2, *ay2]),
                        eps)
    x1, y1, x2, y2, w = (col.tolist() for col in cols)
    return [(a, b, c - 1, d - 1, e)
            for a, b, c, d, e in zip(x1, y1, x2, y2, w)]


def _cover_cells(cover: BicliqueCover, ps: PointSet, eps: float) -> tuple:
    """Weighted cells of every biclique of the cover as int64 columns
    (x1, y1, x2 + 1, y2 + 1, w) of rank codes: an edge 2 * rank + offset
    stands for 2 * coord + offset (_lattice), and cell i covers [x1, x2 + 1)
    x [y1, y2 + 1).  Verbatim bicliques are expanded in numpy, one unit
    rectangle per (B, A) pair; the others go through _level_cells in one
    batch.  Both gather their edges from the doubled rank columns."""
    sides, starts, anti = cover.sides, cover.starts, cover.anti
    size = np.diff(starts)
    t, s = size[0::2], size[1::2]
    ladders = _ladders(size, eps)
    count = np.diff(ladders[1])
    verbatim = _emits_verbatim(t, s, count[t], count[s])
    # pair p of a verbatim biclique joins its (p // s)-th left point with
    # its (p % s)-th right point; anti bicliques have the right side on the
    # left in x
    picks = np.flatnonzero(verbatim)
    pairs = t[picks] * s[picks]
    k = np.repeat(picks, pairs)
    pos = np.arange(len(k)) - np.repeat(np.cumsum(pairs) - pairs, pairs)
    li = sides[starts[2 * k] + pos // s[k]]
    ri = sides[starts[2 * k + 1] + pos % s[k]]
    x2s = 2 * np.fromiter(ps.rank_x, dtype=np.int64, count=ps.n)
    y2s = 2 * np.fromiter(ps.rank_y, dtype=np.int64, count=ps.n)
    flip = anti[k]
    lx, rx = x2s[li], x2s[ri]
    cols = [np.where(flip, rx, lx), y2s[li], np.where(flip, lx, rx) + 1,
            y2s[ri] + 1, np.ones(len(li), dtype=np.int64)]
    leveled = np.flatnonzero(~verbatim)
    if len(leveled):
        bounds = starts[2 * leveled[:, None] + np.arange(3)]
        cols = [np.concatenate(pair) for pair in
                zip(cols, _level_cells(sides, bounds, anti[leveled], ladders,
                                       x2s, y2s, eps))]
    return tuple(cols)


def _lattice(vals, order) -> list[int]:
    """The doubled coordinates of one axis's rank codes, in code order: code
    2 * r + offset stands for 2 * vals[order[r]] + offset."""
    return [2 * vals[i] + offset for i in order for offset in (0, 1)]


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
        anti = cover.anti
        # each biclique's index among those of its orientation
        within = np.where(anti, np.cumsum(anti), np.cumsum(~anti)) - 1
        side = np.repeat(np.arange(2 * len(anti)), np.diff(cover.starts))
        self.parts = []
        for flipped in (False, True):
            sides = []
            for right in (0, 1):
                at = (anti[side >> 1] == flipped) & ((side & 1) == right)
                ids = cover.sides[at]
                sides.append((rank_x[ids], rank_y[ids],
                              within[side[at] >> 1].astype(np.int32)))
            self.parts.append((flipped, int(np.sum(anti == flipped)), *sides))

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
# static dominance-sum table over the x-sweep


def _dominance_table(ev, lf, dw, events: int, leaves: int):
    """Static table of the sums of the corner weights dw over the corners
    with event <= i and leaf <= j, for every event i and leaf j < leaves.

    The events split into blocks of B.  The table keeps a snapshot every B
    events, holding the full leaf prefix sums of every corner of the earlier
    blocks, and per block a prefix table over the B events of the block and
    leaf 0 plus the distinct leaves its corners touch.  B = sqrt(events *
    leaves / corners) balances the two parts, so the table holds about
    2 * sqrt(events * leaves * corners) entries instead of events * leaves.
    Entries are int32 when the total weight magnitude fits: every entry,
    and every partial sum on the way to it, is a sum over a subset of the
    corners or the difference of two such sums over disjoint subsets.

    Returns (B, table, col_at, pair).  The b-th snapshot is table[b * leaves:
    (b + 1) * leaves].  Block b's columns are pair[col_at[b]:col_at[b+1]],
    flat snapshot indices b * leaves + leaf, ascending, the first at leaf 0.
    After the snapshots the table holds a B x len(pair) array: entry (r, k)
    sums the corners of k's block up to its r-th event and up to k's leaf."""
    block = max(1, round(math.sqrt(events * leaves / max(len(dw), 1))))
    blocks = -(-events // block)
    big = int(np.abs(dw).sum()) > np.iinfo(np.int32).max
    dw = dw.astype(np.int64 if big else np.int32)
    blk = ev // block
    snap_size = blocks * leaves
    # the distinct (block, leaf) pairs, in block-then-leaf order, with leaf 0
    # in every block so that every leaf has a column at or below it
    pair, col = np.unique(np.concatenate((blk * leaves + lf,
                                          np.arange(blocks) * leaves)),
                          return_inverse=True)
    col = col[:len(ev)]
    col_at = np.searchsorted(pair, np.arange(blocks + 1) * leaves)
    table = np.zeros(snap_size + block * len(pair), dtype=dw.dtype)
    later = blk + 1 < blocks
    np.add.at(table, (blk[later] + 1) * leaves + lf[later], dw[later])
    np.add.at(table, snap_size + (ev - blk * block) * len(pair) + col, dw)
    snaps = table[:snap_size].reshape(blocks, leaves)
    np.cumsum(snaps, axis=0, out=snaps)
    np.cumsum(snaps, axis=1, out=snaps)
    rows = table[snap_size:].reshape(block, len(pair))
    np.cumsum(rows, axis=0, out=rows)
    # prefix over each block's leaves: one running sum along the rows, with
    # each block's first leaf offset by the total of the block before it
    totals = np.add.reduceat(rows, col_at[:-1], axis=1)
    rows[:, col_at[1:-1]] -= totals[:, :-1]
    np.cumsum(rows, axis=1, out=rows)
    return block, table, col_at, pair


def _sweep_table(cells: tuple, ps: PointSet):
    """The cells' x-sweep as four weighted corners per cell (enter/leave
    event by low/high leaf), folded into a _dominance_table: (xthresholds,
    ybreaks, B, table, col_at, pair).  Event i is x code i, leaf j the
    y-slab from y code j to j + 1; xthresholds and ybreaks are the codes'
    coordinates (_lattice).  The depth at event i, leaf j is the sum over
    the corners dominated by (i, j)."""
    x1, y1, x2, y2, w = cells
    leaves = 2 * ps.n - 1
    ev = np.concatenate((x1, x1, x2, x2))
    lf = np.concatenate((y1, y2, y1, y2))
    dw = np.concatenate((w, -w, -w, w))
    keep = lf < leaves    # corners on the last code reach no query
    return (_lattice(ps.xs, ps.by_x), _lattice(ps.ys, ps.by_y),
            *_dominance_table(ev[keep], lf[keep], dw[keep], 2 * ps.n, leaves))


class DepthIndex:
    """Weighted-cell overlay answering (1-eps)-approximate depth queries.

    The depth at a point is the sum of the weights of the cells containing
    it, read from the static corner table of the cells' x-sweep
    (_sweep_table): a query is three bisects and two table reads."""

    def __init__(self, ps: PointSet, eps: float, cover: BicliqueCover | None = None):
        _check_eps(eps)
        if ps.n < 2:
            raise ValueError("need at least two points")
        self.eps = eps
        self.ps = ps
        if cover is None:
            cover = build_cover(ps)
        elif cover.n != ps.n:
            raise ValueError(f"cover has {cover.n} points, point set {ps.n}")
        self.cover = cover
        cells = _cover_cells(cover, ps, eps)
        self.cell_count = len(cells[4])
        self._xthresholds, self._ybreaks, self._block, table, col_at, pair = \
            _sweep_table(cells, ps)
        self._leaves = leaves = len(self._ybreaks) - 1
        self._col_at = col_at.tolist()
        self._snap_size = (len(col_at) - 1) * leaves
        # memoryviews over the numpy arrays: an item read is a Python int
        self._table, self._pair = memoryview(table), memoryview(pair)

    def query2(self, qx2: int, qy2: int) -> int:
        i = bisect_right(self._xthresholds, qx2) - 1
        j = bisect_right(self._ybreaks, qy2) - 1
        if i < 0 or j < 0 or j >= self._leaves:
            return 0
        b, r = divmod(i, self._block)
        flat = b * self._leaves + j
        c = bisect_right(self._pair, flat, self._col_at[b], self._col_at[b + 1])
        return (self._table[flat]
                + self._table[self._snap_size + r * len(self._pair) + c - 1])

    def query(self, q: tuple[Coord, Coord]) -> int:
        return self.query2(dbl(q[0]), dbl(q[1]))


def build_depth_index(ps: PointSet, eps: float) -> DepthIndex:
    return DepthIndex(ps, eps)


def query_depth(ix: DepthIndex, q: tuple[Coord, Coord]) -> int:
    return ix.query(q)


# ---------------------------------------------------------------------------
# maximum-depth approximations


def approx_max_depth(ps: PointSet, eps: float):
    """Deepest cell of the overlay: ((x, y), value) with value within
    (1-eps) of the true maximum and never above it.  Reads the maximum off
    the same static table as DepthIndex.  At an event of block b, the depth
    at a leaf is snapshot b there plus the event's row entry of the block
    column at or below the leaf, so the event's maximum is the best, over
    the block's columns, of the row entry plus the snapshot's maximum over
    the column's run of leaves.  Ties go to the first event, then the lowest
    leaf."""
    _check_eps(eps)
    xthr, ybreaks, block, table, col_at, pair = _sweep_table(
        _cover_cells(build_cover(ps), ps, eps), ps)
    leaves = len(ybreaks) - 1
    snap_size = (len(col_at) - 1) * leaves
    rows = table[snap_size:].reshape(block, len(pair))
    peaks = rows + np.maximum.reduceat(table[:snap_size], pair)
    at_event = np.maximum.reduceat(peaks, col_at[:-1], axis=1).T.ravel()
    e = int(np.argmax(at_event[:len(xthr)]))
    b, r = divmod(e, block)
    lo, hi = col_at[b], col_at[b + 1]
    runs = np.diff(pair[lo:hi], append=(b + 1) * leaves)
    row = table[b * leaves:(b + 1) * leaves] + np.repeat(rows[r, lo:hi], runs)
    j = int(np.argmax(row))
    return (Fraction(xthr[e], 2), Fraction(ybreaks[j], 2)), int(row[j])


def _slabs(ps: PointSet):
    """Pre-order walk of the x-median recursion: (level, cut, ranks) for
    every slab of at least two points.  A slab is a run [lo, hi) of x ranks
    split at x rank cut; ranks are its x ranks in y order, which ride along
    the walk, so nothing is sorted again."""
    todo = [(0, 0, ps.n, [ps.rank_x[i] for i in ps.by_y])]
    while todo:
        level, lo, hi, ranks = todo.pop()
        if hi - lo < 2:
            continue
        cut = lo + (hi - lo) // 2
        yield level, cut, ranks
        todo.append((level + 1, cut, hi, [r for r in ranks if r >= cut]))
        todo.append((level + 1, lo, cut, [r for r in ranks if r < cut]))


def _stabbed(ranks: list[int], cut: int):
    """The empty rectangles of a slab whose closed x-span holds the x of its
    cut point c, by upper corner: (count, top) per y position i of ranks,
    with count[i] the number of such rectangles with point i as upper
    corner and top[i] the y position of the highest partner (-1 if none).

    One sweep up the y order per orientation (the second on x ranks
    mirrored through cut).  Lower corners (rank <= cut) sit on a stack, a
    corner popped when one nearer the line arrives, so the stack is the
    staircase facing the line.  An upper corner q (rank >= cut) pairs with
    the stack entries above its floor: the last earlier upper corner
    strictly right of c and nearer the line than q, read off a
    previous-nearer chain.  c queries with no floor before it is pushed,
    and never enters the chain (any corner it would block, it has
    popped)."""
    count, top = [0] * len(ranks), [-1] * len(ranks)
    for sign in (1, -1):
        dist = [sign * (r - cut) for r in ranks]
        stack, chain = [], []
        for i, d in enumerate(dist):
            if d >= 0:
                floor = -1
                if d:
                    while chain and dist[chain[-1]] > d:
                        chain.pop()
                    if chain:
                        floor = chain[-1]
                    chain.append(i)
                k = bisect_right(stack, floor)
                if k < len(stack):
                    count[i] += len(stack) - k
                    top[i] = max(top[i], stack[-1])
            if d <= 0:
                while stack and dist[stack[-1]] < d:
                    stack.pop()
                stack.append(i)
    return count, top


def _line_depths(ranks: list[int], cut: int) -> list[int]:
    """Depth on a slab's cut line at each y position of ranks, swept from
    the stabbed y-intervals' corner counts."""
    upper, _ = _stabbed(ranks, cut)
    lower = _stabbed(ranks[::-1], cut)[0][::-1]
    out, run = [], 0
    for up, low in zip(upper, lower):
        run += low
        out.append(run)
        run -= up
    return out


def log_approx_max_depth(ps: PointSet):
    """Divide and conquer on x-median lines.  Every candidate value is the
    exact depth of its point within the slab's own rectangle set, a lower
    bound on the true depth.  The winner sits on its slab's cut line, so the
    reported value, its exact global depth, is the whole set's depth along
    that line at the winner's y; no cover is built."""
    if ps.n < 2:
        raise ValueError("need at least two points")
    best_val, best = 0, None
    for _, cut, ranks in _slabs(ps):
        for r, d in zip(ranks, _line_depths(ranks, cut)):
            if d > best_val:
                best_val, best = d, (cut, r)
    cut, r = best    # set: two points always span an empty rectangle
    line = _line_depths([ps.rank_x[i] for i in ps.by_y], cut)
    point = (Fraction(ps.xs[ps.by_x[cut]]), Fraction(ps.ys[ps.by_x[r]]))
    return point, line[ps.rank_y[ps.by_x[r]]]


# ---------------------------------------------------------------------------
# independent-set approximation


def approx_mis(ps: PointSet) -> list[Rect]:
    """Per recursion level: the exact interval MIS of each slab line's
    stabbed rectangles, which are disjoint exactly when their y-intervals
    are.  Going up the y order, each upper corner's highest partner is taken
    whenever it lies above the last rectangle taken (earliest end first,
    ties to the highest bottom).  Keeps the best single level (same-level
    slabs are x-disjoint); a rectangle's support is (left, right) corner."""
    if ps.n < 2:
        raise ValueError("need at least two points")
    levels: dict[int, list] = {}
    for level, cut, ranks in _slabs(ps):
        chosen = levels.setdefault(level, [])
        last = -1
        for i, j in enumerate(_stabbed(ranks, cut)[1]):
            if j > last:
                left, right = sorted((ranks[i], ranks[j]))
                chosen.append(_rect_ids(ps, ps.by_x[left], ps.by_x[right]))
                last = i
    return max(levels.values(), key=len)

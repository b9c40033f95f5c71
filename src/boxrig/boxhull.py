"""Box hull: the union of all empty influence rectangles.

The hull is exactly the closed complement of four shadow regions, one per
extremal staircase: a point is outside iff it strictly dominates a maxima
point, is strictly dominated by a minima point, or strictly anti-relates to
the up-left / down-right chains.  Membership is therefore four binary
searches.  The boundary is the four staircases through the chains, joined
at the leftmost / bottommost / rightmost / topmost points.

A witness (an empty rectangle covering a hull point q) is found from the
four quadrant extremes of q.  The hull keeps the coordinates in x order as
arrays, so each extreme is a numpy reduction over the slice on one side of
q's x rank, and the emptiness of a candidate rectangle is one vectorised
test of the y values ranked strictly between its two supports in x.  When a
quadrant is empty, consecutive points of the hull's stored chain next to q
give the witness.  A query costs O(log n) Python steps plus O(n) numpy
work, with no Python loop over the points.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
import numpy as np

from .chains import MAX_ANTI, MAX_DOM, MIN_ANTI, MIN_DOM, chain_ids
from .geom import Coord, PointSet, Rect, _rect_ids, coord_array, dbl


class NotInHull(ValueError):
    """witness_rect was asked for a point outside the hull."""


def _staircase(pts, corner) -> list[tuple[int, int]]:
    """Chain vertices interleaved with corner(prev, cur) outer corners."""
    out = [pts[0]]
    for a, b in zip(pts, pts[1:]):
        c = corner(a, b)
        if c != a and c != b:
            out.append(c)
        out.append(b)
    return out


class BoxHull:
    """Queryable hull: four chains (doubled coordinates for exact closed
    comparisons), boundary polygon, and exact area.  The coordinates in x
    order (``_xo``, ``_yo``) and the chain ids serve the witness search."""

    def __init__(self, ps: PointSet):
        if ps.n < 2:
            raise ValueError("need at least two points")
        self.ps = ps
        xs, ys = ps.xs, ps.ys
        order = np.asarray(ps.by_x, dtype=np.intp)
        self._xo = coord_array(xs)[order]
        self._yo = yo = coord_array(ys)[order]
        self._ne_ids = chain_ids(order, yo, MAX_DOM)
        self._sw_ids = chain_ids(order, yo, MIN_DOM)
        self._nw_ids = chain_ids(order, yo, MAX_ANTI)
        self._se_ids = chain_ids(order, yo, MIN_ANTI)

        def pts_of(ids):
            return [(xs[i], ys[i]) for i in ids]

        self.ne = pts_of(self._ne_ids)    # x up, y down; first = topmost, last = rightmost
        self.sw = pts_of(self._sw_ids)    # x up, y down; first = leftmost, last = bottommost
        self.nw = pts_of(self._nw_ids)    # x up, y up; first = leftmost, last = topmost
        self.se = pts_of(self._se_ids)    # x up, y up; first = bottommost, last = rightmost
        # doubled coordinate arrays for the membership searches
        self._ne_x = [2 * x for x, _ in self.ne]
        self._ne_y = [2 * y for _, y in self.ne]
        self._sw_x = [2 * x for x, _ in self.sw]
        self._sw_y = [2 * y for _, y in self.sw]
        self._nw_x = [2 * x for x, _ in self.nw]
        self._nw_y = [2 * y for _, y in self.nw]
        self._se_x = [2 * x for x, _ in self.se]
        self._se_y = [2 * y for _, y in self.se]
        self.bbox = (min(xs), min(ys), max(xs), max(ys))
        self.boundary = self._boundary_polygon()

    # -- boundary -----------------------------------------------------------

    def _boundary_polygon(self) -> list[tuple[int, int]]:
        """Counterclockwise rectilinear polygon; may pinch at shared
        chain corners (the hull can be two boxes glued at a point)."""
        sw = _staircase(self.sw, lambda a, b: (a[0], b[1]))
        se = _staircase(self.se, lambda a, b: (b[0], a[1]))
        ne = _staircase(self.ne, lambda a, b: (b[0], a[1]))[::-1]
        nw = _staircase(self.nw, lambda a, b: (a[0], b[1]))[::-1]
        verts: list[tuple[int, int]] = []
        for part in (sw, se, ne, nw):
            for v in part:
                if not verts or verts[-1] != v:
                    verts.append(v)
        if len(verts) > 1 and verts[0] == verts[-1]:
            verts.pop()
        # drop collinear middles
        out: list[tuple[int, int]] = []
        for v in verts:
            while len(out) >= 2 and (
                    (out[-2][0] == out[-1][0] == v[0])
                    or (out[-2][1] == out[-1][1] == v[1])):
                out.pop()
            out.append(v)
        while len(out) >= 3 and (
                (out[-2][0] == out[-1][0] == out[0][0])
                or (out[-2][1] == out[-1][1] == out[0][1])):
            out.pop()
        return out

    def area(self) -> int:
        verts = self.boundary
        if len(verts) < 4:
            return 0
        twice = 0
        for (x1, y1), (x2, y2) in zip(verts, verts[1:] + verts[:1]):
            twice += x1 * y2 - x2 * y1
        assert twice % 2 == 0
        return twice // 2

    # -- membership -----------------------------------------------------------

    def _blocked2(self, qx2: int, qy2: int) -> bool:
        """True iff the doubled-coordinate point lies strictly inside one of
        the four shadows."""
        # strictly dominates a NE-chain point?
        i = bisect_left(self._ne_x, qx2)
        if i and self._ne_y[i - 1] < qy2:
            return True
        # strictly dominated by a SW-chain point?
        i = bisect_right(self._sw_x, qx2)
        if i < len(self._sw_x) and qy2 < self._sw_y[i]:
            return True
        # strictly up-left of a NW-chain point?
        i = bisect_right(self._nw_x, qx2)
        if i < len(self._nw_x) and qy2 > self._nw_y[i]:
            return True
        # strictly down-right of a SE-chain point?
        i = bisect_left(self._se_x, qx2)
        if i and self._se_y[i - 1] > qy2:
            return True
        return False

    def contains(self, q: tuple[Coord, Coord]) -> bool:
        """Closed membership; boundary points are inside.  A point is in the
        hull iff it lies in the bounding box and in no open shadow (rows and
        columns extending past the extreme points are shadow-free but still
        outside, hence the box clamp)."""
        qx2, qy2 = dbl(q[0]), dbl(q[1])
        x1, y1, x2, y2 = self.bbox
        if not (2 * x1 <= qx2 <= 2 * x2 and 2 * y1 <= qy2 <= 2 * y2):
            return False
        return not self._blocked2(qx2, qy2)


def build_hull(ps: PointSet) -> BoxHull:
    return BoxHull(ps)


# ---------------------------------------------------------------------------
# witness rectangle


def _is_empty(h: BoxHull, r: Rect) -> bool:
    """No input point but the two supports lies in the closed rectangle.
    Coordinates are distinct, so only points ranked strictly between the
    supports in x can, and then exactly when their y is strictly inside."""
    a, b = r.support
    ra, rb = sorted((h.ps.rank_x[a], h.ps.rank_x[b]))
    ys = h._yo[ra + 1:rb]
    return not ((ys > r.lo[1]) & (ys < r.hi[1])).any()


def _covers2(r: Rect, qx2: int, qy2: int) -> bool:
    return 2 * r.lo[0] <= qx2 <= 2 * r.hi[0] and 2 * r.lo[1] <= qy2 <= 2 * r.hi[1]


def _extreme(h: BoxHull, start: int, stop: int, up: bool, y: int):
    """Id of the lowest point with y-coordinate >= y (up) or the highest
    with y-coordinate <= y (not up) among x-order positions [start, stop),
    or None."""
    ys = h._yo[start:stop]
    idx = (ys >= y if up else ys <= y).nonzero()[0]
    if not len(idx):
        return None
    k = ys[idx].argmin() if up else ys[idx].argmax()
    return h.ps.by_x[start + int(idx[k])]


def _consecutive_witness(ps, cx2, chain_ids, qx2, qy2):
    """Rectangle of two consecutive chain points around q, if one covers
    it; cx2 holds the chain's doubled x coordinates."""
    i = bisect_right(cx2, qx2) - 1
    for j in (i, i - 1, i + 1):
        if 0 <= j < len(chain_ids) - 1:
            r = _rect_ids(ps, chain_ids[j], chain_ids[j + 1])
            if _covers2(r, qx2, qy2):
                return r
    return None


def witness_rect(ps: PointSet, h: BoxHull, q: tuple[Coord, Coord]) -> Rect:
    """An empty rectangle containing q, by four-quadrant case analysis:
    antipodal extreme pair when possible, otherwise the extreme point of the
    empty horizontal slab, otherwise consecutive extremal-chain points.
    Answers from h's arrays, so ps must be the point set h was built on."""
    if ps is not h.ps:
        raise ValueError("witness_rect needs the point set its hull was built from")
    qx2, qy2 = dbl(q[0]), dbl(q[1])
    if not h.contains(q):
        raise NotInHull(f"{q!r} is outside the hull")
    xo, yo, by_x, ys = h._xo, h._yo, ps.by_x, ps.ys
    # x-order positions [0, hi) have x <= qx, [lo, n) have x >= qx; an input
    # point on the vertical line through q sits at lo = hi - 1
    lo = int(np.searchsorted(xo, -(-qx2 // 2), side="left"))
    hi = int(np.searchsorted(xo, qx2 // 2, side="right"))
    if lo < hi and 2 * int(yo[lo]) == qy2:
        # the query is an input point; its consecutive x-neighbour always
        # supports an empty rectangle with it
        nb = by_x[lo + 1] if lo + 1 < ps.n else by_x[lo - 1]
        return _rect_ids(ps, by_x[lo], nb)
    y_up, y_down = -(-qy2 // 2), qy2 // 2     # y >= qy, y <= qy
    # extreme point of each closed quadrant: lowest above q (p1 right, p2
    # left), highest below q (p3 left, p4 right); None when empty
    p1, p2 = _extreme(h, lo, ps.n, True, y_up), _extreme(h, 0, hi, True, y_up)
    p3, p4 = _extreme(h, 0, hi, False, y_down), _extreme(h, lo, ps.n, False, y_down)

    def checked(a: int, b: int):
        if a == b:
            return None
        r = _rect_ids(ps, a, b)
        return r if _covers2(r, qx2, qy2) and _is_empty(h, r) else None

    if None not in (p1, p2, p3, p4):
        lt = p1 if ys[p1] <= ys[p2] else p2          # lower of the two tops
        hb = p3 if ys[p3] >= ys[p4] else p4          # higher of the two bottoms
        antipodal = ((lt == p1 and hb == p3) or (lt == p2 and hb == p4))
        if antipodal:
            r = checked(lt, hb)
            if r is not None:
                return r
        else:
            # slab between the higher top point and the lower bottom point;
            # both sit on one side, so probe the other side for the point
            # nearest the slab wall and pair it with the diagonal definer
            y_top = max(ys[p1], ys[p2])
            y_bot = min(ys[p3], ys[p4])
            if lt == p2:  # definers p1, p4 on the right; probe x < qx
                side = yo[:lo]
                cand = ((side > y_bot) & (side < y_top)).nonzero()[0]
                pp = by_x[int(cand[-1])] if len(cand) else None
                partners = (p4, p1)
            else:         # definers p2, p3 on the left; probe x > qx
                side = yo[hi:]
                cand = ((side > y_bot) & (side < y_top)).nonzero()[0]
                pp = by_x[hi + int(cand[0])] if len(cand) else None
                partners = (p3, p2)
            if pp is not None:
                r = checked(pp, partners[0] if 2 * ys[pp] >= qy2 else partners[1])
                if r is not None:
                    return r
        # fall through to exhaustive extreme-pair probing (tie corner cases)
        for a in (p1, p2):
            for b in (p3, p4):
                r = checked(a, b)
                if r is not None:
                    return r
    chain_map = [
        (p1, h._ne_x, h._ne_ids),
        (p3, h._sw_x, h._sw_ids),
        (p2, h._nw_x, h._nw_ids),
        (p4, h._se_x, h._se_ids),
    ]
    for extreme, cx2, ids in chain_map:
        if extreme is None:
            r = _consecutive_witness(ps, cx2, ids, qx2, qy2)
            if r is not None and _is_empty(h, r):
                return r
    raise AssertionError(f"no witness found for {q!r}; hull membership bug")


# ---------------------------------------------------------------------------
# interior-disjoint decomposition


@dataclass(frozen=True)
class Piece:
    """One rectangle of the decomposition: its own extent plus the support
    pair of the empty rectangle it was carved from."""

    lo: tuple[int, int]
    hi: tuple[int, int]
    support: tuple[int, int]

    def area(self) -> int:
        return (self.hi[0] - self.lo[0]) * (self.hi[1] - self.lo[1])

    def support_rect(self, ps: PointSet) -> Rect:
        return _rect_ids(ps, *self.support)


@dataclass
class DisjointCover:
    pieces: list

    def total_area(self) -> int:
        return sum(p.area() for p in self.pieces)

    def __len__(self) -> int:
        return len(self.pieces)


def disjoint_cover(ps: PointSet) -> DisjointCover:
    """Left-to-right sweep: each new point p takes its visible partners off
    one of the two live right staircases and emits the strip of hull area
    gained beyond the old right profile, split into one band per partner so
    every piece lies inside that partner's empty rectangle.  The bands tile
    exactly the area the insertion adds, so pieces are pairwise
    interior-disjoint and their union is the final hull."""
    if ps.n < 2:
        raise ValueError("need at least two points")
    xs, ys = ps.xs, ps.ys
    order = list(ps.by_x)
    first = order[0]
    upper = [first]   # maxima staircase of seen points (x up, y down)
    lower = [first]   # down-right staircase of seen points (x up, y up)
    pieces: list[Piece] = []

    def emit(x1, y1, x2, y2, q, pid):
        if x1 < x2 and y1 < y2:
            pieces.append(Piece((x1, y1), (x2, y2), (q, pid)))

    for pid in order[1:]:
        px, py = xs[pid], ys[pid]
        if py > ys[upper[-1]]:
            chain = upper
            # partners: everything p dominates plus the point just above
            j = bisect_left(chain, -py, key=lambda i: -ys[i])
            partners = chain[max(0, j - 1):]
            qx1, qy1 = xs[partners[0]], ys[partners[0]]
            if qy1 > py:
                # band above p, left-clipped at the next partner's x
                emit(xs[partners[1]], py, px, qy1, partners[0], pid)
            else:
                emit(qx1, qy1, px, py, partners[0], pid)
            for qa, qb in zip(partners, partners[1:]):
                emit(xs[qb], ys[qb], px, min(py, ys[qa]), qb, pid)
        else:
            chain = lower
            j = bisect_left(chain, py, key=ys.__getitem__)
            partners = chain[max(0, j - 1):]
            qx1, qy1 = xs[partners[0]], ys[partners[0]]
            if qy1 < py:
                emit(xs[partners[1]], qy1, px, py, partners[0], pid)
            else:
                emit(qx1, py, px, qy1, partners[0], pid)
            for qa, qb in zip(partners, partners[1:]):
                emit(xs[qb], max(py, ys[qa]), px, ys[qb], qb, pid)
        while upper and ys[upper[-1]] < py:
            upper.pop()
        upper.append(pid)
        while lower and ys[lower[-1]] > py:
            lower.pop()
        lower.append(pid)
    return DisjointCover(pieces)

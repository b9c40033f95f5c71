"""Exact brute-force reference implementations.

These are the ground truth the fast modules are tested against.  They are
deliberately simple: per-pair counting over a rank grid, dense grid
evaluation for depth, exponential search for independent sets.  Nothing here
shares code with the fast paths.

Query points may have half-integer coordinates (cell midpoints); all
comparisons happen on the doubled-integer lattice, see geom.dbl.  Coordinate
arrays come from geom.coord_array and areas are summed in Python integers,
so every answer is exact at any coordinate size.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .geom import Coord, PointSet, Rect, _rect_ids, coord_array, dbl


class InstanceTooLarge(ValueError):
    """Raised when an exponential oracle is asked for an oversized instance."""


@dataclass(frozen=True)
class EdgeSet:
    """Unordered id pairs, stored canonically (small id first)."""

    edges: frozenset
    n: int

    def __len__(self) -> int:
        return len(self.edges)

    def __contains__(self, pair) -> bool:
        a, b = pair
        return ((a, b) if a < b else (b, a)) in self.edges


def _pair_interior_counts(ps: PointSet) -> np.ndarray:
    """counts[i, j] = number of points strictly inside the closed rectangle
    spanned by points i and j (excluding i and j themselves).

    Under general position no third point can sit on the rectangle boundary,
    so the closed count equals prefix-grid count minus the two supports.
    """
    n = ps.n
    rx = np.asarray(ps.rank_x, dtype=np.int64)
    ry = np.asarray(ps.rank_y, dtype=np.int64)
    # occupancy prefix sums over the rank grid, 1-based with a zero border
    grid = np.zeros((n + 1, n + 1), dtype=np.int64)
    grid[rx + 1, ry + 1] = 1
    pref = grid.cumsum(axis=0).cumsum(axis=1)
    x1 = np.minimum.outer(rx, rx)
    x2 = np.maximum.outer(rx, rx)
    y1 = np.minimum.outer(ry, ry)
    y2 = np.maximum.outer(ry, ry)
    inside = (pref[x2 + 1, y2 + 1] - pref[x1, y2 + 1]
              - pref[x2 + 1, y1] + pref[x1, y1])
    return inside - 2  # remove the two supports (diagonal: counts itself once)


def brute_k_rig(ps: PointSet, k: int) -> EdgeSet:
    """Edges whose closed rectangle holds at most k other points."""
    if k < 0:
        raise ValueError("k must be non-negative")
    n = ps.n
    if n < 2:
        return EdgeSet(frozenset(), n)
    counts = _pair_interior_counts(ps)
    ii, jj = np.nonzero(np.triu(counts <= k, k=1))
    return EdgeSet(frozenset(zip(ii.tolist(), jj.tolist())), n)


def brute_rig(ps: PointSet) -> EdgeSet:
    """Exact edge set of the empty-rectangle influence graph."""
    return brute_k_rig(ps, 0)


def brute_rig_triple_loop(ps: PointSet) -> EdgeSet:
    """Independent O(n^3) recount with explicit loops; test cross-check only."""
    pts = list(ps)
    n = len(pts)
    edges = set()
    for j in range(n):
        for i in range(j):
            x1, x2 = sorted((pts[i].x, pts[j].x))
            y1, y2 = sorted((pts[i].y, pts[j].y))
            empty = True
            for z in pts:
                if z.id in (i, j):
                    continue
                if x1 <= z.x <= x2 and y1 <= z.y <= y2:
                    empty = False
                    break
            if empty:
                edges.add((i, j))
    return EdgeSet(frozenset(edges), n)


def rects_of(ps: PointSet, edges: EdgeSet | None = None) -> list[Rect]:
    """Materialised rectangle family, one Rect per graph edge."""
    if edges is None:
        edges = brute_rig(ps)
    return [_rect_ids(ps, i, j) for i, j in sorted(edges.edges)]


def _rect_arrays(ps: PointSet, edges: EdgeSet | None = None):
    """Doubled-coordinate corner arrays (x1, x2, y1, y2) of the family."""
    if edges is None:
        edges = brute_rig(ps)
    xs, ys = ps.xs, ps.ys
    pairs = sorted(edges.edges)
    if not pairs:
        z = np.zeros(0, dtype=np.int64)
        return z, z, z, z
    ii = np.fromiter((p[0] for p in pairs), dtype=np.int64, count=len(pairs))
    jj = np.fromiter((p[1] for p in pairs), dtype=np.int64, count=len(pairs))
    px = coord_array([2 * x for x in xs])
    py = coord_array([2 * y for y in ys])
    x1 = np.minimum(px[ii], px[jj])
    x2 = np.maximum(px[ii], px[jj])
    y1 = np.minimum(py[ii], py[jj])
    y2 = np.maximum(py[ii], py[jj])
    return x1, x2, y1, y2


def brute_depth(ps: PointSet, q: tuple[Coord, Coord],
                edges: EdgeSet | None = None) -> int:
    """Number of empty rectangles (closed) containing q."""
    x1, x2, y1, y2 = _rect_arrays(ps, edges)
    qx, qy = dbl(q[0]), dbl(q[1])
    return int(np.count_nonzero((x1 <= qx) & (qx <= x2) & (y1 <= qy) & (qy <= y2)))


def brute_depth_many(ps: PointSet, qs, edges: EdgeSet | None = None) -> np.ndarray:
    """Vectorised brute_depth for a list of (x, y) queries."""
    x1, x2, y1, y2 = _rect_arrays(ps, edges)
    qx = coord_array([dbl(q[0]) for q in qs])
    qy = coord_array([dbl(q[1]) for q in qs])
    out = np.zeros(len(qx), dtype=np.int64)
    for s in range(0, len(qx), 512):
        e = min(s + 512, len(qx))
        hit = ((x1 <= qx[s:e, None]) & (qx[s:e, None] <= x2)
               & (y1 <= qy[s:e, None]) & (qy[s:e, None] <= y2))
        out[s:e] = hit.sum(axis=1)
    return out


def brute_hull_member(ps: PointSet, q: tuple[Coord, Coord],
                      edges: EdgeSet | None = None) -> bool:
    """True iff q lies in some empty rectangle (closed containment)."""
    return brute_depth(ps, q, edges) > 0


def brute_hull_members(ps: PointSet, qs, edges: EdgeSet | None = None) -> np.ndarray:
    return brute_depth_many(ps, qs, edges) > 0


def _candidate_axis(vals: list[int]) -> np.ndarray:
    """Doubled grid coordinates: every value plus every midpoint between
    consecutive values.  Depth is piecewise constant on the induced grid."""
    v = sorted(vals)
    mids = [a + b for a, b in zip(v, v[1:])]
    return coord_array(sorted([2 * a for a in v] + mids))


def brute_max_depth(ps: PointSet, edges: EdgeSet | None = None):
    """Exact maximum depth over the plane, with a witness point.

    Evaluates the depth at every grid vertex of the rectangle-boundary
    arrangement plus one sample per cell edge and interior (midpoints).  The
    arrangement coordinates are exactly the input coordinates, so this
    candidate set meets every face.
    """
    if ps.n < 2:
        raise ValueError("need at least two points")
    x1, x2, y1, y2 = _rect_arrays(ps, edges)
    gx = _candidate_axis(ps.xs)
    gy = _candidate_axis(ps.ys)
    # difference-array accumulation of closed rectangles over the sample grid
    acc = np.zeros((len(gx) + 1, len(gy) + 1), dtype=np.int64)
    ax1 = np.searchsorted(gx, x1, side="left")
    ax2 = np.searchsorted(gx, x2, side="right")
    ay1 = np.searchsorted(gy, y1, side="left")
    ay2 = np.searchsorted(gy, y2, side="right")
    np.add.at(acc, (ax1, ay1), 1)
    np.add.at(acc, (ax1, ay2), -1)
    np.add.at(acc, (ax2, ay1), -1)
    np.add.at(acc, (ax2, ay2), 1)
    depth = acc.cumsum(axis=0).cumsum(axis=1)[:-1, :-1]
    flat = int(depth.argmax())
    ix, iy = divmod(flat, depth.shape[1])
    wx, wy = int(gx[ix]), int(gy[iy])
    witness = (Fraction(wx, 2), Fraction(wy, 2))
    return witness, int(depth[ix, iy])


def union_area(rects) -> int:
    """Exact area of the union of integer rectangles given as
    (x1, y1, x2, y2) tuples or Rect objects; coordinate-compressed
    difference-array accumulation."""
    boxes = []
    for r in rects:
        if isinstance(r, Rect):
            boxes.append((r.lo[0], r.lo[1], r.hi[0], r.hi[1]))
        else:
            boxes.append(tuple(r))
    if not boxes:
        return 0
    xs = sorted({b[0] for b in boxes} | {b[2] for b in boxes})
    ys = sorted({b[1] for b in boxes} | {b[3] for b in boxes})
    xi = {v: i for i, v in enumerate(xs)}
    yi = {v: i for i, v in enumerate(ys)}
    cov = np.zeros((len(xs), len(ys)), dtype=np.int64)
    for x1, y1, x2, y2 in boxes:
        i1, i2, j1, j2 = xi[x1], xi[x2], yi[y1], yi[y2]
        cov[i1, j1] += 1
        cov[i1, j2] -= 1
        cov[i2, j1] -= 1
        cov[i2, j2] += 1
    cells = cov.cumsum(axis=0).cumsum(axis=1)[:-1, :-1] > 0
    # covered length of each x slab; offsets from the lowest y keep it exact
    # in int64 whenever the y span fits
    wy = np.diff(coord_array([y - ys[0] for y in ys]))
    lengths = (cells @ wy).tolist()
    return sum((b - a) * h for a, b, h in zip(xs, xs[1:], lengths))


def hull_union_area(ps: PointSet) -> int:
    """Exact area of the union of all empty rectangles."""
    return union_area(rects_of(ps))


def brute_mis(ps: PointSet, cap: int = 14) -> list[Rect]:
    """Maximum-cardinality pairwise-disjoint subset of the rectangle family.

    Disjoint means empty closed intersection (shared boundary conflicts).
    Branch and bound over the conflict masks; capped at small n.
    """
    if ps.n > cap:
        raise InstanceTooLarge(f"brute_mis is exponential; n={ps.n} > {cap}")
    rects = rects_of(ps)
    m = len(rects)
    conflict = [0] * m
    for a in range(m):
        for b in range(a + 1, m):
            if rects[a].intersects(rects[b]):
                conflict[a] |= 1 << b
                conflict[b] |= 1 << a
    best_mask = 0
    best_size = 0

    def grow(avail: int, chosen: int, size: int):
        nonlocal best_mask, best_size
        if size + bin(avail).count("1") <= best_size:
            return
        if not avail:
            if size > best_size:
                best_size, best_mask = size, chosen
            return
        v = (avail & -avail).bit_length() - 1
        # branch: take v, then skip v
        grow(avail & ~((1 << v) | conflict[v]), chosen | (1 << v), size + 1)
        grow(avail & ~(1 << v), chosen, size)

    grow((1 << m) - 1, 0, 0)
    return [rects[a] for a in range(m) if best_mask >> a & 1]

"""Output checks that share no code with the fast paths under test.

Everything here runs outside the timed regions.  Small instances are
compared with ``boxrig.oracle`` (O(n^2) memory, so only up to ORACLE_MAX_N
points); large ones are checked through independent numpy paths:

* the exact depth at a point, counted from the point set alone
  (``PointChecker.depth``);
* the empty-rectangle partners of one point, from the four quadrant
  staircases (``PointChecker.partners``), compared with what a cover lists;
* witness rectangles, by counting the points inside them.

Each check returns None when the output is right, or a one-line reason.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from boxrig import oracle
from boxrig.cover import verify_cover

ORACLE_MAX_N = 1024
_BIG = np.int64(1) << np.int64(62)


def _lattice4(v) -> int:
    """An int or half-integer coordinate on the quadrupled lattice."""
    w = Fraction(v) * 4
    if w.denominator != 1:
        raise ValueError(f"{v!r} is not a half-integer")
    return int(w)


def _dominance_pairs(x, y, qx, qy):
    """Empty rectangles with one support below-left and one up-right of q,
    as (below-left index, up-right index) arrays.  q must lie on no
    horizontal or vertical line through an input point.

    Only maximal points of the lower-left quadrant and minimal points of the
    upper-right quadrant can pair (otherwise a dominating point of the same
    quadrant sits in the rectangle); a pair (a, b) is then blocked exactly by
    an upper-left point c with c.x > a.x and c.y < b.y, or a lower-right
    point c with c.y > a.y and c.x < b.x.
    """
    ll = np.nonzero((x < qx) & (y < qy))[0]
    ur = np.nonzero((x > qx) & (y > qy))[0]
    if len(ll) == 0 or len(ur) == 0:
        return ll[:0], ur[:0]
    a = ll[np.argsort(-x[ll])]                      # x descending
    ay = y[a]
    keep = np.ones(len(a), dtype=bool)
    keep[1:] = ay[1:] > np.maximum.accumulate(ay)[:-1]
    a = a[keep]
    b = ur[np.argsort(x[ur])]                       # x ascending
    by = y[b]
    keep = np.ones(len(b), dtype=bool)
    keep[1:] = by[1:] < np.minimum.accumulate(by)[:-1]
    b = b[keep]

    def suffix_min(keys, vals, at):
        """min(vals[keys > at]) for every entry of `at` (+inf if none)."""
        o = np.argsort(keys)
        k, v = keys[o], vals[o]
        suf = np.append(np.minimum.accumulate(v[::-1])[::-1], _BIG)
        return suf[np.searchsorted(k, at, side="right")]

    ul = np.nonzero((x < qx) & (y > qy))[0]
    lr = np.nonzero((x > qx) & (y < qy))[0]
    m1 = suffix_min(x[ul], y[ul], x[a])             # lowest UL point right of a
    m2 = suffix_min(y[lr], x[lr], y[a])             # leftmost LR point above a
    ok = (y[b][None, :] < m1[:, None]) & (x[b][None, :] < m2[:, None])
    ia, ib = np.nonzero(ok)
    return a[ia], b[ib]


class PointChecker:
    """Independent geometry on one point set (coordinates as given)."""

    def __init__(self, coords):
        self.n = len(coords)
        self.x = np.array([c[0] for c in coords], dtype=np.int64) * 4
        self.y = np.array([c[1] for c in coords], dtype=np.int64) * 4

    def _pairs_off_lines(self, qx4: int, qy4: int) -> np.ndarray:
        x, y, n = self.x, self.y, self.n
        a, b = _dominance_pairs(x, y, qx4, qy4)
        c, d = _dominance_pairs(-x, y, -qx4, qy4)
        lo = np.concatenate([np.minimum(a, b), np.minimum(c, d)])
        hi = np.concatenate([np.maximum(a, b), np.maximum(c, d)])
        return lo * n + hi

    def depth(self, q) -> int:
        """Number of closed empty rectangles containing q.

        A closed non-degenerate rectangle contains q exactly when it contains
        one of the four points q + (±1/4, ±1/4), which lie on no grid line,
        so the depth is the size of the union of their pair sets.
        """
        qx4, qy4 = _lattice4(q[0]), _lattice4(q[1])
        if qx4 % 4 == 2 and qy4 % 4 == 2:       # half-integer: already off lines
            return len(self._pairs_off_lines(qx4, qy4))
        keys = [self._pairs_off_lines(qx4 + sx, qy4 + sy)
                for sx in (-1, 1) for sy in (-1, 1)]
        return len(np.unique(np.concatenate(keys)))

    def inside_count(self, lo, hi) -> int:
        """Input points in the closed box [lo, hi] (integer corners)."""
        x, y = self.x, self.y
        return int(np.count_nonzero((x >= 4 * lo[0]) & (x <= 4 * hi[0])
                                    & (y >= 4 * lo[1]) & (y <= 4 * hi[1])))

    def partners(self, p: int, k: int = 0) -> np.ndarray:
        """Sorted ids q whose rectangle with p holds at most k other points."""
        x = self.x - self.x[p]
        y = self.y - self.y[p]
        out = []
        for sx, sy in ((1, 1), (-1, 1), (-1, -1), (1, -1)):
            idx = np.nonzero((sx * x > 0) & (sy * y > 0))[0]
            if len(idx) == 0:
                continue
            qx, qy = sx * x[idx], sy * y[idx]           # now up-right of p
            if k == 0:
                o = np.argsort(qx)
                ys = qy[o]
                keep = np.ones(len(o), dtype=bool)
                keep[1:] = ys[1:] < np.minimum.accumulate(ys)[:-1]
                out.append(idx[o[keep]])
            else:
                inside = np.zeros(len(idx), dtype=np.int64)
                for s in range(0, len(idx), 1024):
                    blk = slice(s, s + 1024)
                    inside[blk] = ((qx[None, :] < qx[blk, None])
                                   & (qy[None, :] < qy[blk, None])).sum(axis=1)
                out.append(idx[inside <= k])
        return np.sort(np.concatenate(out)) if out else np.zeros(0, np.int64)


# ---------------------------------------------------------------------------
# per-output checks


def _support_box(coords, a: int, b: int):
    """Corners (lo, hi) of the closed rectangle spanned by points a and b."""
    (xa, ya), (xb, yb) = coords[a], coords[b]
    return (min(xa, xb), min(ya, yb)), (max(xa, xb), max(ya, yb))


def check_depth_approx(chk: PointChecker, q, got: int, eps: float):
    exact = chk.depth(q)
    if not (got <= exact and got >= (1 - eps) * exact - 1e-9):
        return f"approx depth {got} at {q} outside [(1-{eps})*{exact}, {exact}]"
    return None


def check_contains(chk: PointChecker, q, got: bool):
    exact = chk.depth(q)
    if got != (exact > 0):
        return f"hull membership {got} at {q} but exact depth is {exact}"
    return None


def check_witness(chk: PointChecker, coords, q, rect, not_in_hull: bool):
    """rect is the witness_rect result; not_in_hull is True when it raised
    NotInHull instead, which is right exactly when q has depth 0."""
    if not_in_hull:
        d = chk.depth(q)
        return None if d == 0 else f"NotInHull at {q} but exact depth is {d}"
    a, b = rect.support
    lo, hi = _support_box(coords, a, b)
    if a == b or tuple(rect.lo) != lo or tuple(rect.hi) != hi:
        return f"witness {rect} is not spanned by its supports"
    if not (lo[0] <= q[0] <= hi[0] and lo[1] <= q[1] <= hi[1]):
        return f"witness {rect} does not contain {q}"
    inside = chk.inside_count(lo, hi)
    if inside != 2:
        return f"witness {rect} holds {inside - 2} other points"
    return None


def _cover_partner_lists(cover, ids):
    """For each sampled id, the ids its bicliques pair it with (with
    multiplicity)."""
    want = set(ids)
    found = {p: [] for p in ids}
    for b in cover.bicliques:
        for side, other in ((b.left, b.right), (b.right, b.left)):
            hit = want.intersection(side)
            for p in hit:
                found[p].extend(other)
    return found


def check_cover(chk: PointChecker, ps, cover, rng, k: int = 0, samples: int = 6,
                expect_edges: int | None = None):
    """Edge-count consistency, oracle verification on small sets, and exact
    partner lists of a few seeded sample points on every set."""
    edges = sum(len(b.left) * len(b.right) for b in cover.bicliques)
    if edges != cover.stats.edges:
        return f"stats.edges {cover.stats.edges} != sum of |L||R| {edges}"
    if expect_edges is not None and edges != expect_edges:
        return f"{edges} edges, expected {expect_edges}"
    if ps.n <= ORACLE_MAX_N:
        rep = verify_cover(cover, ps, None if k == 0 else k)
        if not rep.ok:
            return f"verify_cover failed: {rep.to_dict()}"
    ids = rng.sample(range(ps.n), min(samples, ps.n))
    found = _cover_partner_lists(cover, ids)
    for p in ids:
        got = sorted(found[p])
        want = chk.partners(p, k).tolist()
        if got != want:
            return (f"point {p}: cover lists {len(got)} partners, "
                    f"{len(want)} expected (k={k})")
    return None


def overlapping_pieces(pieces, block: int = 1 << 20):
    """A pair of pieces whose interiors meet, or None.  Exact over all pairs:
    after sorting by left edge, piece i can only meet the pieces after it
    whose left edge lies before its right edge; those candidate pairs are
    tested for y-overlap in blocks of at most ``block`` pairs."""
    solid = [p for p in pieces if p.hi[0] > p.lo[0] and p.hi[1] > p.lo[1]]
    if len(solid) < 2:
        return None
    box = np.array([(*p.lo, *p.hi) for p in solid], dtype=np.int64)
    order = np.argsort(box[:, 0], kind="stable")
    box = box[order]
    ends = np.searchsorted(box[:, 0], box[:, 2], side="left")
    counts = np.maximum(ends - np.arange(len(box)) - 1, 0)
    first = 0
    while first < len(box):
        last = first + 1        # [first, last) holds at most `block` pairs
        total = int(counts[first])
        while last < len(box) and total + counts[last] <= block:
            total += int(counts[last])
            last += 1
        cnt = counts[first:last]
        i = np.repeat(np.arange(first, last), cnt)
        j = i + 1 + np.arange(len(i)) - np.repeat(np.cumsum(cnt) - cnt, cnt)
        hit = np.nonzero((box[i, 1] < box[j, 3]) & (box[j, 1] < box[i, 3]))[0]
        if len(hit):
            return solid[order[i[hit[0]]]], solid[order[j[hit[0]]]]
        first = last
    return None


def check_disjoint_cover(chk: PointChecker, ps, hull, dc, rng, samples: int = 16):
    """disjoint_cover: every piece inside its support rectangle, a seeded
    sample of support rectangles empty, no two pieces overlapping, total
    area equal to the hull's."""
    coords = ps.coords()
    for pc in dc.pieces:
        lo, hi = _support_box(coords, *pc.support)
        if not (lo[0] <= pc.lo[0] and pc.hi[0] <= hi[0]
                and lo[1] <= pc.lo[1] and pc.hi[1] <= hi[1]):
            return f"piece {pc} leaves its support rectangle"
    for pc in rng.sample(dc.pieces, min(samples, len(dc.pieces))):
        if chk.inside_count(*_support_box(coords, *pc.support)) != 2:
            return f"piece {pc} is carved from a non-empty rectangle"
    pair = overlapping_pieces(dc.pieces)
    if pair is not None:
        return f"pieces {pair[0]} and {pair[1]} overlap"
    total = sum((p.hi[0] - p.lo[0]) * (p.hi[1] - p.lo[1]) for p in dc.pieces)
    if total != hull.area():
        return f"pieces cover area {total}, hull area is {hull.area()}"
    return None


def check_max_depth(chk: PointChecker, ps, point, value: int, eps: float):
    """approx_max_depth: the value never overstates the depth at its point,
    and on small sets lies within (1-eps) of the oracle maximum."""
    exact = chk.depth(point)
    if value > exact or value < 1:
        return f"max-depth value {value} at {point}, exact depth there {exact}"
    if ps.n <= ORACLE_MAX_N:
        _, dmax = oracle.brute_max_depth(ps)
        if not ((1 - eps) * dmax - 1e-9 <= value <= dmax):
            return f"max-depth value {value}, oracle maximum {dmax}, eps {eps}"
    return None


def check_log_max_depth(chk: PointChecker, ps, point, value: int):
    """log_approx_max_depth reports the exact depth at its point, within a
    4 log2 n factor of the oracle maximum on small sets."""
    exact = chk.depth(point)
    if value != exact or value < 1:
        return f"log-approx value {value} at {point}, exact depth there {exact}"
    if ps.n <= ORACLE_MAX_N:
        _, dmax = oracle.brute_max_depth(ps)
        if not dmax / (4 * math.log2(ps.n)) <= value <= dmax:
            return f"log-approx value {value}, oracle maximum {dmax}"
    return None


def check_mis(chk: PointChecker, coords, rects):
    """approx_mis: nonempty, every rectangle empty, pairwise disjoint."""
    if not rects:
        return "approx_mis returned no rectangle"
    for r in rects:
        lo, hi = _support_box(coords, *r.support)
        if (tuple(r.lo), tuple(r.hi)) != (lo, hi) or chk.inside_count(lo, hi) != 2:
            return f"MIS rectangle {r} is not an empty rectangle"
    x1 = np.array([r.lo[0] for r in rects], dtype=np.int64)
    x2 = np.array([r.hi[0] for r in rects], dtype=np.int64)
    y1 = np.array([r.lo[1] for r in rects], dtype=np.int64)
    y2 = np.array([r.hi[1] for r in rects], dtype=np.int64)
    meet = ((x1[:, None] <= x2[None, :]) & (x1[None, :] <= x2[:, None])
            & (y1[:, None] <= y2[None, :]) & (y1[None, :] <= y2[:, None]))
    np.fill_diagonal(meet, False)
    if meet.any():
        return "MIS rectangles intersect"
    return None


def check_exact_depth(chk: PointChecker, q, got: int):
    exact = chk.depth(q)
    return None if got == exact else f"exact_depth_at {got} at {q}, expected {exact}"

"""Core geometric vocabulary: exact integer points, rectangles, dominance.

Every structure in this package is built on two strict partial orders over
points with pairwise-distinct coordinates:

* ``q`` is *dominated* by ``p`` when ``p`` is strictly up-right of ``q``;
* ``p`` *anti-dominates* ``q`` when ``p`` is strictly up-left of ``q``.

Inputs are validated to be integer points in general position (all x
distinct, all y distinct), which makes every predicate an exact integer
comparison.  Rectangles are closed sets throughout.  A PointSet stores
two coordinate columns; ``ps[i]`` builds a ``Point`` view on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

import numpy as np

Coord = Union[int, Fraction]


class GeomError(ValueError):
    """Base class for input-validation failures."""


class DuplicateX(GeomError):
    """Two input points share an x coordinate."""

    def __init__(self, i: int, j: int):
        super().__init__(f"points {i} and {j} share an x coordinate")
        self.i = i
        self.j = j


class DuplicateY(GeomError):
    """Two input points share a y coordinate."""

    def __init__(self, i: int, j: int):
        super().__init__(f"points {i} and {j} share a y coordinate")
        self.i = i
        self.j = j


@dataclass(frozen=True)
class Point:
    x: int
    y: int
    id: int


@dataclass(frozen=True)
class Rect:
    """Closed axis-parallel rectangle spanned by two support points.

    ``support`` records the ordered pair of point ids sitting on antipodal
    corners.  ``lo``/``hi`` are the min/max corners.
    """

    lo: tuple[int, int]
    hi: tuple[int, int]
    support: tuple[int, int]

    def contains(self, qx: Coord, qy: Coord) -> bool:
        return self.lo[0] <= qx <= self.hi[0] and self.lo[1] <= qy <= self.hi[1]

    def contains_interior(self, qx: Coord, qy: Coord) -> bool:
        return self.lo[0] < qx < self.hi[0] and self.lo[1] < qy < self.hi[1]

    def intersects(self, other: "Rect") -> bool:
        """Closed intersection test (shared boundary counts)."""
        return (self.lo[0] <= other.hi[0] and other.lo[0] <= self.hi[0]
                and self.lo[1] <= other.hi[1] and other.lo[1] <= self.hi[1])


def dominates(p: Point, q: Point) -> bool:
    """True iff q is strictly below-left of p (q ≺ p)."""
    return q.x < p.x and q.y < p.y


def anti_dominates(p: Point, q: Point) -> bool:
    """True iff p is strictly up-left of q."""
    return p.x < q.x and p.y > q.y


def rect_of(p: Point, q: Point) -> Rect:
    """Closed bounding rectangle of {p, q}, with p and q as antipodal corners."""
    return _rect(p.x, p.y, p.id, q.x, q.y, q.id)


def _rect_ids(ps: PointSet, i: int, j: int) -> Rect:
    """rect_of(ps[i], ps[j]) off the coordinate columns, with no Point."""
    return _rect(ps.xs[i], ps.ys[i], i, ps.xs[j], ps.ys[j], j)


def _rect(px: int, py: int, i: int, qx: int, qy: int, j: int) -> Rect:
    if i == j:
        raise GeomError(f"rect_of needs two distinct points, got id {i} twice")
    return Rect(lo=(min(px, qx), min(py, qy)), hi=(max(px, qx), max(py, qy)),
                support=(i, j))


class PointSet:
    """Validated planar point set in general position, stored by columns.

    Immutable after construction.  ``xs``/``ys`` are coordinate lists by
    id, ``by_x``/``by_y`` the ids in coordinate order, ``rank_x``/``rank_y``
    their inverses; ``ps[i]`` and iteration build ``Point`` views on demand.
    """

    __slots__ = ("xs", "ys", "by_x", "by_y", "rank_x", "rank_y")

    def __init__(self, xs: list[int], ys: list[int], by_x: Sequence[int], by_y: Sequence[int]):
        self.xs, self.ys = xs, ys
        self.by_x, self.rank_x = _with_inverse(by_x)
        self.by_y, self.rank_y = _with_inverse(by_y)

    @property
    def n(self) -> int:
        return len(self.xs)

    def __len__(self) -> int:
        return len(self.xs)

    def __iter__(self):
        return map(Point, self.xs, self.ys, range(len(self.xs)))

    def __getitem__(self, i: int) -> Point:
        i = range(len(self.xs))[i]
        return Point(self.xs[i], self.ys[i], i)

    def coords(self) -> list[tuple[int, int]]:
        return list(zip(self.xs, self.ys))


def _with_inverse(order: Sequence[int]) -> tuple[tuple, tuple]:
    """A permutation and its inverse, as tuples of ints."""
    order = np.asarray(order, dtype=np.intp)
    inverse = np.empty_like(order)
    inverse[order] = np.arange(len(order))
    return tuple(order.tolist()), tuple(inverse.tolist())


def _int_coord(v, i: int) -> int:
    """An int (not bool) or numpy integer coordinate of point i as an int."""
    if isinstance(v, (int, np.integer)) and not isinstance(v, bool):
        return int(v)
    raise GeomError(f"point {i}: coordinate {v!r} is not an integer")


def validate(coords: Iterable[tuple[int, int]]) -> PointSet:
    """Build a PointSet's coordinate columns (no Point) from (x, y) pairs.

    An entry that is not a pair, or a coordinate that is not an int (not
    bool) or a numpy integer (floats, even 3.0, Fractions, bools, strings,
    None), raises GeomError naming the point, never truncated.  Ties raise
    DuplicateX / DuplicateY naming the first tied index pair in sorted order.
    """
    xs, ys = [], []
    for i, c in enumerate(coords):
        try:
            x, y = c
        except (TypeError, ValueError):
            raise GeomError(f"point {i}: {c!r} is not an (x, y) pair") from None
        if type(x) is not int or type(y) is not int:
            x, y = _int_coord(x, i), _int_coord(y, i)
        xs.append(x)
        ys.append(y)
    return PointSet(xs, ys, _order(xs, DuplicateX), _order(ys, DuplicateY))


def _order(vals: list[int], tie_error: type[GeomError]) -> np.ndarray:
    """Ids in increasing value order.  The sort is stable, so tied ids keep
    index order and the first adjacent tie names the lowest tied value's
    two smallest ids, raised as tie_error."""
    arr = coord_array(vals)
    order = np.argsort(arr, kind="stable")
    sv = arr[order]
    ties = np.flatnonzero(sv[1:] == sv[:-1])
    if ties.size:
        k = ties[0]
        raise tie_error(int(order[k]), int(order[k + 1]))
    return order


def dbl(v: Coord) -> int:
    """Map an int, np.integer or half-integer Fraction to the doubled lattice.

    All oracle and query arithmetic runs on doubled coordinates so that cell
    midpoints stay exact without floating point.  Anything else (floats,
    bools, other fractions) is rejected rather than rounded.
    """
    if isinstance(v, int) and not isinstance(v, bool):
        return 2 * v
    if isinstance(v, Fraction):
        if v.denominator == 2:
            return v.numerator
        if v.denominator == 1:
            return 2 * v.numerator
    elif isinstance(v, np.integer):
        return 2 * int(v)
    raise GeomError(f"query coordinate {v!r} is not an integer or half-integer")


def coord_array(vals: Sequence[int]) -> np.ndarray:
    """int64 array of integer coordinates; object dtype when one exceeds
    int64, so comparisons stay exact at any size."""
    try:
        return np.fromiter(vals, dtype=np.int64, count=len(vals))
    except OverflowError:
        return np.array(vals, dtype=object)

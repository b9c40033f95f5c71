from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from boxrig.boxhull import build_hull, witness_rect
from boxrig.cover import build_cover
from boxrig.depth import build_depth_index, exact_depth_at, query_depth
from boxrig.geom import (DuplicateX, DuplicateY, GeomError, Point,
                         anti_dominates, dbl, dominates, rect_of, validate)
from boxrig.oracle import brute_depth, brute_hull_member


def P(x, y, pid=0):
    return Point(x, y, pid)


def test_dominates_examples():
    assert dominates(P(2, 2), P(1, 1))
    assert not dominates(P(2, 1), P(1, 2))
    assert not dominates(P(1, 1), P(1, 1))


def test_anti_dominates_examples():
    assert anti_dominates(P(1, 2), P(2, 1))
    assert not anti_dominates(P(2, 1), P(1, 2))
    assert not anti_dominates(P(1, 1), P(2, 2))


def test_rect_of_examples():
    r = rect_of(P(1, 3, 0), P(4, 1, 1))
    assert r.lo == (1, 1) and r.hi == (4, 3)
    assert r.support == (0, 1)
    r = rect_of(P(0, 0, 0), P(2, 2, 1))
    assert r.lo == (0, 0) and r.hi == (2, 2)
    # degenerate width-0 rect is representable even though validated sets
    # never produce shared coordinates
    r = rect_of(P(5, 5, 0), P(5, 9, 1))
    assert r.lo == (5, 5) and r.hi == (5, 9)


def test_rect_of_same_id_rejected():
    with pytest.raises(GeomError):
        rect_of(P(1, 2, 3), P(4, 5, 3))


def test_rect_symmetry():
    a, b = P(3, 7, 0), P(9, 2, 1)
    assert rect_of(a, b).lo == rect_of(b, a).lo
    assert rect_of(a, b).hi == rect_of(b, a).hi


def test_closed_containment():
    r = rect_of(P(0, 0, 0), P(4, 2, 1))
    assert r.contains(0, 1)
    assert r.contains(4, 2)
    assert r.contains(Fraction(1, 2), 0)
    assert not r.contains(5, 1)
    assert not r.contains_interior(0, 1)


def test_validate_examples():
    ps = validate([(1, 1), (2, 2)])
    assert ps.by_x == (0, 1)
    assert ps.by_y == (0, 1)
    with pytest.raises(DuplicateX) as e:
        validate([(1, 1), (1, 2)])
    assert (e.value.i, e.value.j) == (0, 1)
    with pytest.raises(DuplicateY) as e:
        validate([(1, 5), (2, 5)])
    assert (e.value.i, e.value.j) == (0, 1)


def test_validate_permutations_inverse():
    ps = validate([(5, 1), (1, 9), (3, 4)])
    assert sorted(ps.by_x) == [0, 1, 2]
    for r, i in enumerate(ps.by_x):
        assert ps.rank_x[i] == r
    for r, i in enumerate(ps.by_y):
        assert ps.rank_y[i] == r
    assert [ps.xs[i] for i in ps.by_x] == sorted(ps.xs)
    assert [ps.ys[i] for i in ps.by_y] == sorted(ps.ys)


def test_validate_takes_only_integer_points():
    # each of these used to be truncated or parsed into another point set:
    # (0.9, 5) became (0, 5), True 1, Fraction(7, 2) 3 and '12' 12
    for coords, bad in (([(0.9, 5), (3, 1.2), (2.5, 7)], 0),
                        ([(1, 2), (3.0, 4)], 1),
                        ([(1, 2), (5, np.float64(4))], 1),
                        ([(1, 2), (Fraction(7, 2), 4)], 1),
                        ([(1, 2), (Fraction(6, 2), 4)], 1),
                        ([(1, 2), (3, True)], 1),
                        ([(1, 2), (3, np.bool_(True))], 1),
                        ([(1, 2), ("12", 4)], 1),
                        ([(None, 2), (3, 4)], 0),
                        # entries that are not (x, y) pairs
                        ([(1, 2, 3)], 0),
                        ([(1, 2), 5], 1),
                        ([(1,)], 0),
                        ([(1, 2), None], 1)):
        with pytest.raises(GeomError, match=f"point {bad}:"):
            validate(coords)
    ps = validate([(np.int64(3), np.int32(-4)), (1 << 70, 5)])
    assert ps.coords() == [(3, -4), (1 << 70, 5)]
    assert all(type(v) is int for xy in ps.coords() for v in xy)


def test_point_views_are_built_from_the_columns():
    ps = validate([(5, -1), (np.int64(-3), 8), (1 << 70, 2)])
    n = ps.n
    for i in range(n):
        assert ps[i] == Point(ps.xs[i], ps.ys[i], i)
    assert ps[-1] == Point(1 << 70, 2, n - 1) and ps[-n] == ps[0]
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            ps[i]
    assert list(ps) == [ps[i] for i in range(n)]
    assert ps.coords() == [(5, -1), (-3, 8), (1 << 70, 2)]
    assert all(type(v) is int for xy in ps.coords() for v in xy)
    assert not hasattr(ps, "points")


def test_validate_builds_no_point(monkeypatch):
    import boxrig.geom

    def refuse(*args):
        raise AssertionError("validate built a Point")

    monkeypatch.setattr(boxrig.geom, "Point", refuse)
    ps = validate([(i, (7 * i) % 1009) for i in range(1000)])
    assert ps.n == 1000 and ps.coords()[999] == (999, (7 * 999) % 1009)


coords_st = st.lists(
    st.tuples(st.integers(-1000, 1000), st.integers(-1000, 1000)),
    min_size=2, max_size=40,
    unique_by=(lambda c: c[0], lambda c: c[1]),
)


@given(coords_st)
def test_relation_trichotomy(coords):
    ps = validate(coords)
    for p in ps:
        for q in ps:
            if p.id == q.id:
                continue
            rels = [dominates(p, q), dominates(q, p),
                    anti_dominates(p, q), anti_dominates(q, p)]
            assert sum(rels) == 1


def test_dbl():
    assert dbl(3) == 6 and dbl(-7) == -14
    assert dbl(Fraction(5, 2)) == 5 and dbl(Fraction(-5, 2)) == -5
    assert dbl(Fraction(6, 2)) == 6
    assert dbl(1 << 80) == 1 << 81
    # numpy integers are accepted, as validate accepts them for points
    assert dbl(np.int64(3)) == 6 and dbl(np.int32(-7)) == -14
    assert type(dbl(np.int64(1 << 62))) is int and dbl(np.uint8(5)) == 10
    # a float or a bool must not be doubled and truncated to another point
    for bad in (Fraction(1, 3), 0.3, 1.5, 0.75, True, False, "3", None,
                np.float64(2.0), np.bool_(True)):
        with pytest.raises(GeomError):
            dbl(bad)


def test_query_entry_points_take_only_lattice_coordinates():
    ps = validate([(0, 1), (1, 12), (11, 0), (12, 11), (5, 6), (3, 8), (8, 3)])
    cov, hull = build_cover(ps), build_hull(ps)
    ix = build_depth_index(ps, 0.5)
    entry_points = [lambda q: query_depth(ix, q), hull.contains,
                    lambda q: witness_rect(ps, hull, q),
                    lambda q: exact_depth_at(cov, ps, q)]
    for call in entry_points:
        for bad in (0.3, 1.5, True):
            for q in ((bad, 7), (7, bad)):
                with pytest.raises(GeomError):
                    call(q)
    for q in ((Fraction(5, 2), 7), (7, Fraction(5, 2)),
              (np.int64(5), np.int32(7))):
        assert brute_hull_member(ps, q) and hull.contains(q)
        assert witness_rect(ps, hull, q).contains(*q)
        true = brute_depth(ps, q)
        assert exact_depth_at(cov, ps, q) == true
        assert 0.5 * true <= query_depth(ix, q) <= true

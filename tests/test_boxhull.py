import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

import boxrig.boxhull
import boxrig.chains
from boxrig.boxhull import (NotInHull, build_hull, disjoint_cover,
                            witness_rect)
from boxrig.chains import MAX_ANTI, MAX_DOM, MIN_ANTI, MIN_DOM, maxima
from boxrig.geom import PointSet, validate
from boxrig.lab import gen_lower_bound
from boxrig.oracle import (brute_hull_members, brute_rig, hull_union_area,
                           union_area)
from conftest import small_uniform, two_diagonals


def grid_queries(ps, count, seed, pad=2):
    """Half-integer grid queries: vertices, edge midpoints, cell interiors,
    plus a margin outside the bounding box."""
    rng = random.Random(seed)
    xs = sorted(ps.xs)
    ys = sorted(ps.ys)
    qs = []
    for _ in range(count):
        qx = Fraction(rng.randint(2 * (xs[0] - pad), 2 * (xs[-1] + pad)), 2)
        qy = Fraction(rng.randint(2 * (ys[0] - pad), 2 * (ys[-1] + pad)), 2)
        qs.append((qx, qy))
    # adversarial: exact grid vertices and their duplicated coordinates
    for _ in range(count // 2):
        qs.append((rng.choice(xs), rng.choice(ys)))
    return qs


def assert_members_match(ps, count=2000, seed=0):
    h = build_hull(ps)
    qs = grid_queries(ps, count, seed)
    fast = np.array([h.contains(q) for q in qs])
    slow = brute_hull_members(ps, qs)
    mism = np.nonzero(fast != slow)[0]
    assert len(mism) == 0, f"first mismatch at {qs[mism[0]]}"


@pytest.mark.parametrize("shift", [1 << 62, 1 << 70])
def test_contains_many2_beyond_int64(shift):
    # doubled coordinates leave int64; membership and the oracle stay exact
    ps = validate([(shift + x, y - shift) for x, y in small_uniform(30, 6).coords()])
    h = build_hull(ps)
    qs = grid_queries(ps, 600, 6)
    inside = [h.contains(q) for q in qs]
    assert inside == brute_hull_members(ps, qs).tolist()
    assert 0 < sum(inside) < len(qs)


def test_two_points_hull_is_rect():
    ps = validate([(0, 0), (3, 3)])
    h = build_hull(ps)
    assert sorted(h.boundary) == [(0, 0), (0, 3), (3, 0), (3, 3)]
    assert h.area() == 9
    assert h.contains((0, 3)) and h.contains((Fraction(3, 2), 2))
    assert not h.contains((4, 2))


def test_anti_pair_hull():
    ps = validate([(0, 3), (3, 0)])
    h = build_hull(ps)
    assert h.area() == 9


def test_chain3_membership_and_area(chain3):
    h = build_hull(chain3)
    assert h.area() == hull_union_area(chain3) == 2
    assert_members_match(chain3, 800, seed=1)
    assert h.contains((2, 2))
    assert not h.contains((Fraction(3, 2), Fraction(5, 2)))


def test_antichain3_membership(antichain3):
    h = build_hull(antichain3)
    assert h.area() == hull_union_area(antichain3)
    assert_members_match(antichain3, 800, seed=2)


@pytest.mark.parametrize("n,seed", [(10, 0), (25, 1), (60, 2), (120, 3), (200, 4)])
def test_membership_matches_oracle(n, seed):
    assert_members_match(small_uniform(n, seed), 1500, seed)


def test_membership_above_topmost_row():
    # regression: a row extending past an extreme point is outside the hull
    ps = validate([(0, 0), (10, 1), (1, 10)])
    h = build_hull(ps)
    assert not h.contains((-1, 0))
    assert not h.contains((0, -1))
    assert not h.contains((11, 1))
    assert h.contains((0, 0))
    # strictly dominating the top-right extremal point puts q in a shadow
    assert not h.contains((11, 2))
    assert not h.contains((Fraction(21, 2), Fraction(3, 2)))


def test_area_matches_oracle_union():
    for n, seed in [(10, 5), (40, 6), (90, 7)]:
        ps = small_uniform(n, seed)
        assert build_hull(ps).area() == hull_union_area(ps)


def test_hull_shrinks_after_insertion():
    # adding a point can strictly shrink the hull
    before = validate([(0, 0), (10, 1), (1, 10)])
    after = validate([(0, 0), (10, 1), (1, 10), (2, 2)])
    a1 = build_hull(before).area()
    a2 = build_hull(after).area()
    assert a1 == hull_union_area(before)
    assert a2 == hull_union_area(after)
    assert a2 < a1


def test_hull_contains_orthoconvex_corners():
    ps = small_uniform(70, 13)
    h = build_hull(ps)
    for chain, corner in ((h.ne, lambda a, b: (a[0], b[1])),
                          (h.sw, lambda a, b: (b[0], a[1])),
                          (h.nw, lambda a, b: (b[0], a[1])),
                          (h.se, lambda a, b: (a[0], b[1]))):
        for p in chain:
            assert h.contains(p)
        for a, b in zip(chain, chain[1:]):
            assert h.contains(corner(a, b))  # reflex corner of the orthohull


@pytest.mark.parametrize("ps", [
    small_uniform(150, 3), two_diagonals(20), gen_lower_bound(15).ps,
    validate([(-x, y) for x, y in gen_lower_bound(11).ps.coords()]),
    validate([((1 << 70) + x, (1 << 66) - y)
              for x, y in small_uniform(120, 5).coords()]),
], ids=["uniform", "two-diagonals", "lower-bound", "lower-bound-mirrored",
        "huge"])
def test_hull_chains_match_maxima(ps):
    h = build_hull(ps)
    assert h._ne_ids == maxima(ps, MAX_DOM).ids
    assert h._sw_ids == maxima(ps, MIN_DOM).ids
    assert h._nw_ids == maxima(ps, MAX_ANTI).ids
    assert h._se_ids == maxima(ps, MIN_ANTI).ids


def test_witness_two_points():
    ps = validate([(0, 0), (3, 3)])
    h = build_hull(ps)
    r = witness_rect(ps, h, (1, 2))
    assert r.lo == (0, 0) and r.hi == (3, 3)


def test_witness_not_in_hull():
    ps = validate([(0, 0), (3, 3)])
    h = build_hull(ps)
    with pytest.raises(NotInHull):
        witness_rect(ps, h, (5, 5))


def witness_sets():
    """Uniform sets, plus extremal ones where quadrants of a hull point are
    often empty and the chain fallback answers."""
    for n, seed in [(12, 0), (30, 1), (80, 2), (150, 3)]:
        yield small_uniform(n, seed), seed
    yield two_diagonals(12), 4
    yield gen_lower_bound(10).ps, 5
    # the same families mirrored, so every chain kind takes the fallback
    yield validate([(-x, y) for x, y in two_diagonals(9).coords()]), 6
    yield validate([(x, -y) for x, y in gen_lower_bound(8).ps.coords()]), 7


def test_witness_oracle_sweep():
    for ps, seed in witness_sets():
        h = build_hull(ps)
        edges = brute_rig(ps)
        qs = [q for q in grid_queries(ps, 400, seed + 9) if h.contains(q)]
        qs += ps.coords()  # exact input points
        for q in qs:
            r = witness_rect(ps, h, q)
            assert r.contains(q[0], q[1])
            pair = tuple(sorted(r.support))
            assert pair in edges, f"witness {r} is not an empty rectangle"


def test_witness_huge_coordinates():
    # coordinates beyond int64 keep the hull's arrays exact (object dtype)
    big = 1 << 70
    ps = validate([(big + x, big - y) for x, y in small_uniform(40, 4).coords()])
    h = build_hull(ps)
    edges = brute_rig(ps)
    for q in [q for q in grid_queries(ps, 200, 4) if h.contains(q)] + ps.coords():
        r = witness_rect(ps, h, q)
        assert r.contains(q[0], q[1]) and tuple(sorted(r.support)) in edges


def test_witness_needs_the_hulls_point_set():
    ps = small_uniform(30, 2)
    twin = validate(ps.coords())
    h = build_hull(ps)
    q = ps.coords()[0]
    with pytest.raises(ValueError) as err:
        witness_rect(twin, h, q)
    assert not isinstance(err.value, NotInHull)
    assert witness_rect(ps, h, q).contains(*q)


def test_witness_scans_no_points_in_python(monkeypatch):
    """A built hull answers witnesses from its own arrays: neither a Python
    pass over the point set nor a chain sweep runs per query."""
    cases = []
    for ps in (small_uniform(120, 8), two_diagonals(10), gen_lower_bound(9).ps):
        h = build_hull(ps)
        qs = [q for q in grid_queries(ps, 200, 3) if h.contains(q)] + ps.coords()
        cases.append((ps, h, qs, brute_rig(ps)))

    def refuse(*args, **kwargs):
        raise AssertionError("per-query scan of the point set")

    monkeypatch.setattr(PointSet, "__iter__", refuse)
    # the hull module no longer imports maxima; any use would hit these
    monkeypatch.setattr(boxrig.boxhull, "maxima", refuse, raising=False)
    monkeypatch.setattr(boxrig.chains, "maxima", refuse)
    for ps, h, qs, edges in cases:
        for q in qs:
            r = witness_rect(ps, h, q)
            assert r.contains(q[0], q[1]) and tuple(sorted(r.support)) in edges


def test_disjoint_cover_two_points():
    ps = validate([(0, 0), (3, 3)])
    dc = disjoint_cover(ps)
    assert len(dc) == 1
    assert dc.total_area() == 9


def test_disjoint_cover_chain3(chain3):
    dc = disjoint_cover(chain3)
    assert len(dc) == 2
    assert dc.total_area() == 2


def staircase(m):
    """A falling staircase, then a rising one that shadows it point by
    point: the sweep's live staircase stays about m long."""
    return ([(i, -2 * i) for i in range(1, m + 1)]
            + [(m + j, 2 * j - 2 * m - 1) for j in range(1, m + 1)])


def disjoint_cover_sets():
    for n, seed in [(20, 1), (60, 2), (150, 9), (300, 9)]:
        yield small_uniform(n, seed)
    for m in (3, 40):
        yield validate(staircase(m))
        yield validate([(x, -y) for x, y in staircase(m)])   # the other chain


def test_disjoint_cover_properties():
    for ps in disjoint_cover_sets():
        n = ps.n
        dc = disjoint_cover(ps)
        assert len(dc) <= 3 * n
        edges = brute_rig(ps)
        for p in dc.pieces:
            sup = p.support_rect(ps)
            assert tuple(sorted(p.support)) in edges
            assert sup.lo[0] <= p.lo[0] and sup.lo[1] <= p.lo[1]
            assert sup.hi[0] >= p.hi[0] and sup.hi[1] >= p.hi[1]
        for a, b in itertools.combinations(dc.pieces, 2):
            assert not (a.lo[0] < b.hi[0] and b.lo[0] < a.hi[0]
                        and a.lo[1] < b.hi[1] and b.lo[1] < a.hi[1]), \
                f"pieces overlap: {a} {b}"
        piece_area = dc.total_area()
        assert piece_area == union_area(
            [(p.lo[0], p.lo[1], p.hi[0], p.hi[1]) for p in dc.pieces])
        assert piece_area == hull_union_area(ps)
        assert piece_area == build_hull(ps).area()

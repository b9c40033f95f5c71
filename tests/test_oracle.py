import itertools
from fractions import Fraction

import pytest

from boxrig.boxhull import build_hull
from boxrig.geom import validate
from boxrig.oracle import (InstanceTooLarge, brute_depth, brute_depth_many,
                           brute_hull_member, brute_k_rig, brute_max_depth,
                           brute_mis, brute_rig, brute_rig_triple_loop,
                           hull_union_area, rects_of, union_area)
from conftest import small_uniform, two_diagonals


def test_two_diagonals_m2_edge_count():
    ps = two_diagonals(2)
    assert len(brute_rig(ps)) == 6  # n^2/4 + n - 2 at n = 4


@pytest.mark.parametrize("m", range(2, 33))
def test_two_diagonals_closed_form(m):
    ps = two_diagonals(m)
    n = 2 * m
    assert len(brute_rig(ps)) == n * n // 4 + n - 2


def test_chain_blocked_by_middle(chain3):
    es = brute_rig(chain3)
    assert es.edges == {(0, 1), (1, 2)}


def test_matches_triple_loop_recount():
    ps = small_uniform(10, seed=42)
    assert brute_rig(ps).edges == brute_rig_triple_loop(ps).edges


def test_k_rig_examples(chain3):
    assert brute_k_rig(chain3, 1).edges == {(0, 1), (1, 2), (0, 2)}
    ps = small_uniform(9, seed=1)
    full = {(i, j) for i in range(9) for j in range(i + 1, 9)}
    assert brute_k_rig(ps, 9).edges == full


def test_k_rig_direct_interior_recount():
    ps = small_uniform(12, seed=7)
    pts = list(ps)
    expected = set()
    for i, j in itertools.combinations(range(12), 2):
        x1, x2 = sorted((pts[i].x, pts[j].x))
        y1, y2 = sorted((pts[i].y, pts[j].y))
        blockers = sum(1 for z in pts if z.id not in (i, j)
                       and x1 < z.x < x2 and y1 < z.y < y2)
        if blockers <= 2:
            expected.add((i, j))
    assert brute_k_rig(ps, 2).edges == expected


def test_k_rig_monotone():
    ps = small_uniform(15, seed=3)
    prev = brute_k_rig(ps, 0).edges
    assert prev == brute_rig(ps).edges
    for k in range(1, 6):
        cur = brute_k_rig(ps, k).edges
        assert prev <= cur
        prev = cur


def test_depth_single_rect():
    ps = validate([(0, 0), (3, 3)])
    assert brute_depth(ps, (1, 1)) == 1
    assert brute_depth(ps, (0, 3)) == 1  # closed boundary
    assert brute_depth(ps, (4, 1)) == 0


def test_depth_outside_hull(chain3):
    assert brute_depth(chain3, (10, 10)) == 0


def test_depth_two_diagonals_enumeration():
    ps = two_diagonals(2)
    q = (Fraction(5, 2), Fraction(1, 2))
    expected = sum(1 for r in rects_of(ps) if r.contains(*q))
    assert brute_depth(ps, q) == expected
    assert expected == 4


def test_depth_many_agrees():
    ps = small_uniform(20, seed=5)
    qs = [(x, y) for x in range(0, 80, 7) for y in range(0, 80, 11)]
    many = brute_depth_many(ps, qs)
    for q, d in zip(qs, many):
        assert brute_depth(ps, q) == d


def test_max_depth_two_points():
    ps = validate([(0, 0), (3, 3)])
    w, d = brute_max_depth(ps)
    assert d == 1
    assert brute_depth(ps, w) == 1


def test_max_depth_chain3_corner(chain3):
    w, d = brute_max_depth(chain3)
    # the two rectangles meet only at the shared support (2,2)
    assert d == 2
    assert w == (2, 2)
    assert brute_depth(chain3, w) == d


def test_max_depth_two_diagonals_grid_recount():
    ps = two_diagonals(2)
    w, d = brute_max_depth(ps)
    # exhaustive recount over a fine half-integer grid; with closed
    # containment the max sits on a grid vertex, above the best cell interior
    best = 0
    for dx in range(0, 13):
        for dy in range(-5, 8):
            q = (Fraction(dx, 2), Fraction(dy, 2))
            best = max(best, brute_depth(ps, q))
    assert d == best == 5
    assert brute_depth(ps, w) == d
    # the deepest open cell is the central one, at depth 4
    assert brute_depth(ps, (Fraction(5, 2), Fraction(1, 2))) == 4


def test_hull_member_examples(chain3):
    assert brute_hull_member(chain3, (Fraction(3, 2), Fraction(3, 2)))
    assert not brute_hull_member(chain3, (Fraction(3, 2), Fraction(5, 2)))
    for p in chain3:
        assert brute_hull_member(chain3, (p.x, p.y))


def test_mis_single_rect():
    ps = validate([(0, 0), (3, 3)])
    assert len(brute_mis(ps)) == 1


def test_mis_chain3_shared_corner(chain3):
    # closed-disjointness: the two rectangles share corner (2,2)
    assert len(brute_mis(chain3)) == 1


def test_mis_matches_exhaustive():
    ps = small_uniform(10, seed=3)
    rects = rects_of(ps)
    best = 0
    for size in range(len(rects), 0, -1):
        if size <= best:
            break
        for combo in itertools.combinations(range(len(rects)), size):
            if all(not rects[a].intersects(rects[b])
                   for a, b in itertools.combinations(combo, 2)):
                best = size
                break
        if best:
            break
    got = brute_mis(ps)
    assert len(got) == best
    for a, b in itertools.combinations(got, 2):
        assert not a.intersects(b)


def test_mis_cap():
    with pytest.raises(InstanceTooLarge):
        brute_mis(small_uniform(15, seed=0))


@pytest.mark.parametrize("shift", [1 << 62, 1 << 70])
def test_depth_exact_at_any_coordinate_size(shift):
    # doubled coordinates leave int64; a shift moves no depth
    ps = small_uniform(12, seed=8)
    far = validate([(x + shift, y - shift) for x, y in ps.coords()])
    qs = [(Fraction(x, 2), Fraction(y, 2)) for x in range(-2, 100, 5)
          for y in range(-2, 100, 7)]
    far_qs = [(x + shift, y - shift) for x, y in qs]
    want = brute_depth_many(ps, qs)
    assert brute_depth_many(far, far_qs).tolist() == want.tolist()
    assert [brute_depth(far, q) for q in far_qs[:20]] == want[:20].tolist()
    (wx, wy), d = brute_max_depth(ps)
    assert brute_max_depth(far) == ((wx + shift, wy - shift), d)


def test_union_area_exact_on_a_2_40_grid():
    # areas past int64: every coordinate scaled by 2**40 scales areas by 2**80
    ps = small_uniform(30, seed=6)
    big = validate([(x << 40, y << 40) for x, y in ps.coords()])
    assert hull_union_area(big) == hull_union_area(ps) << 80
    assert hull_union_area(big) == build_hull(big).area()
    # a y span past int64 with every coordinate inside it
    r = (1 << 62) + 5
    assert union_area([(-r, -r, r, r), (0, 0, 1, 1)]) == (2 * r) ** 2

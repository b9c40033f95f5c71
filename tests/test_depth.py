import gc
import hashlib
import itertools
import math
import random
import sys
import weakref
from bisect import bisect_left, bisect_right
from fractions import Fraction

import numpy as np
import pytest

import boxrig.depth
from boxrig.boxhull import build_hull
from boxrig.cover import build_cover
from boxrig.depth import (DepthIndex, EpsOutOfRange, _cover_cells, _lattice,
                          approx_max_depth, approx_mis, biclique_cells,
                          build_depth_index, exact_depth_at,
                          log_approx_max_depth, lower_corners, query_depth,
                          select_levels, staircase_curves, upper_corners)
from boxrig.geom import coord_array, rect_of, validate
from boxrig.lab import gen_lower_bound, gen_uniform
from boxrig.oracle import (brute_depth, brute_depth_many, brute_max_depth,
                           brute_mis, brute_rig)
from conftest import small_uniform, two_diagonals, uniform


def make_chains(rng, t, s, span=60):
    """Quadrant-separated staircases (doubled coords): B below-left of A."""
    bx = sorted(rng.sample(range(0, span), t))
    by = sorted(rng.sample(range(0, span), t), reverse=True)
    ax = sorted(rng.sample(range(span + 2, 2 * span + 2), s))
    ay = sorted(rng.sample(range(span + 2, 2 * span + 2), s), reverse=True)
    return ([2 * v for v in bx], [2 * v for v in by],
            [2 * v for v in ax], [2 * v for v in ay])


def true_pair_depth(bx2, by2, ax2, ay2, zx2, zy2):
    k = sum(1 for i in range(len(bx2)) if bx2[i] <= zx2 and by2[i] <= zy2)
    l = sum(1 for j in range(len(ax2)) if ax2[j] >= zx2 and ay2[j] >= zy2)
    return k * l


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


def stabbed_value(cells, zx2, zy2):
    hits = [w for x1, y1, x2, y2, w in cells
            if x1 <= zx2 <= x2 and y1 <= zy2 <= y2]
    return sum(hits), len(hits)


def test_select_levels():
    assert select_levels(5, 0.5) == [1, 2, 3, 4, 5]
    lv = select_levels(1000, 0.25)
    assert lv[0] == 1 and lv[-1] == 1000
    assert lv[:24] == list(range(1, 25))  # mu = ceil(6/0.25) = 24
    for a, b in zip(lv, lv[1:]):
        assert b <= max(a + 1, math.ceil((1 + 0.25 / 5) * a))
    assert len(lv) <= 4 * (1 + math.log2(1000)) / 0.25


def test_curve_sandwich_and_complexity():
    rng = random.Random(5)
    bx2, by2, ax2, ay2 = make_chains(rng, 40, 35)
    eps = 0.5
    mu = math.ceil(6 / eps)
    levels = select_levels(len(bx2), eps)
    curves = staircase_curves(lower_corners, bx2, by2, levels, eps)
    for i, alpha in enumerate(levels):
        curve = curves[i]
        gap = levels[i + 1] - alpha if i + 1 < len(levels) else 1
        if alpha <= mu or i + 1 == len(levels):
            assert len(curve) == len(bx2) - alpha + 1  # exact staircase
        else:
            assert len(curve) <= len(bx2) / max(gap, 1) + 2
        # sandwich: region(level+gap) <= region(curve) <= region(level)
        exact_lo = lower_corners(bx2, by2, alpha)
        for zx2 in range(0, 140, 7):
            for zy2 in range(0, 140, 9):
                inside = in_lower_region(curve, zx2, zy2)
                k = sum(1 for j in range(len(bx2))
                        if bx2[j] <= zx2 and by2[j] <= zy2)
                if inside:
                    assert k >= alpha
                if k >= alpha + gap:
                    assert inside
                assert in_lower_region(exact_lo, zx2, zy2) == (k >= alpha)
    levels = select_levels(len(ax2), eps)
    curves = staircase_curves(upper_corners, ax2, ay2, levels, eps)
    for i, beta in enumerate(levels):
        curve = curves[i]
        gap = levels[i + 1] - beta if i + 1 < len(levels) else 1
        exact_up = upper_corners(ax2, ay2, beta)
        for zx2 in range(120, 260, 11):
            for zy2 in range(120, 260, 13):
                l = sum(1 for j in range(len(ax2))
                        if ax2[j] >= zx2 and ay2[j] >= zy2)
                inside = in_upper_region(curve, zx2, zy2)
                if inside:
                    assert l >= beta
                if l >= beta + gap:
                    assert inside
                assert in_upper_region(exact_up, zx2, zy2) == (l >= beta)


@pytest.mark.parametrize("t,s,seed", [(1, 1, 0), (1, 7, 1), (6, 1, 2),
                                      (8, 9, 3), (30, 25, 4), (60, 50, 5)])
@pytest.mark.parametrize("eps", [0.5, 0.25, 0.1])
def test_biclique_cells_contract(t, s, seed, eps):
    rng = random.Random(seed)
    bx2, by2, ax2, ay2 = make_chains(rng, t, s)
    cells = biclique_cells(bx2, by2, ax2, ay2, eps)
    raw = len(cells) == t * s and all(c[4] == 1 for c in cells)
    # dense scan over the doubled grid: value within contract; the level
    # decomposition must also be interior-disjoint (raw unit rectangles
    # may overlap, their sum is exact)
    lo = min(bx2 + by2) - 3
    hi = max(ax2 + ay2) + 3
    step = max((hi - lo) // 60, 1)
    for zx2 in range(lo, hi + 1, step):
        for zy2 in range(lo, hi + 1, step):
            val, hits = stabbed_value(cells, zx2, zy2)
            true = true_pair_depth(bx2, by2, ax2, ay2, zx2, zy2)
            if raw:
                assert val == true
            else:
                assert hits <= 1, "cells overlap"
                assert val <= true
                assert val >= (1 - eps) * true - 1e-9, \
                    f"value {val} < (1-eps)*{true} at ({zx2},{zy2})"


@pytest.mark.parametrize("eps", [0.5, 0.25, 0.1])
def test_biclique_cells_big_chain_decomposition(eps):
    # big chains force the level decomposition at every eps
    import numpy as np
    rng = random.Random(11)
    t, s = 300, 280
    bx2, by2, ax2, ay2 = make_chains(rng, t, s, span=2000)
    cells = biclique_cells(bx2, by2, ax2, ay2, eps)
    assert len(cells) < t * s, "decomposition path not taken"
    cx1 = np.array([c[0] for c in cells])
    cy1 = np.array([c[1] for c in cells])
    cx2 = np.array([c[2] for c in cells])
    cy2 = np.array([c[3] for c in cells])
    cw = np.array([c[4] for c in cells])
    bx = np.array(bx2)
    by = np.array(by2)
    ax = np.array(ax2)
    ay = np.array(ay2)
    samples = [(rng.randint(-3, 8003), rng.randint(-3, 8003)) for _ in range(900)]
    # zone seams: separation lines and threshold rows/columns
    xstar, ystar = bx2[-1] + 1, by2[0] + 1
    for v in (xstar - 1, xstar, xstar + 1):
        for w in (ystar - 1, ystar, ystar + 1):
            samples.append((v, w))
    samples += [(bx2[i], by2[j]) for i in range(0, t, 37) for j in range(0, t, 41)]
    samples += [(ax2[i], ay2[j]) for i in range(0, s, 37) for j in range(0, s, 41)]
    samples += [(bx2[i], ay2[j]) for i in range(0, t, 53) for j in range(0, s, 59)]
    for zx2, zy2 in samples:
        mask = (cx1 <= zx2) & (zx2 <= cx2) & (cy1 <= zy2) & (zy2 <= cy2)
        hits = int(mask.sum())
        val = int(cw[mask].sum())
        k = int(((bx <= zx2) & (by <= zy2)).sum())
        l = int(((ax >= zx2) & (ay >= zy2)).sum())
        true = k * l
        assert hits <= 1, f"cells overlap at ({zx2},{zy2})"
        assert val <= true, f"overcount at ({zx2},{zy2}): {val} > {true}"
        assert val >= (1 - eps) * true - 1e-9, \
            f"undercount at ({zx2},{zy2}): {val} < (1-{eps})*{true}"


def test_biclique_cells_size_scales():
    rng = random.Random(9)
    bx2, by2, ax2, ay2 = make_chains(rng, 200, 180, span=600)
    for eps in (0.5, 0.25):
        cells = biclique_cells(bx2, by2, ax2, ay2, eps)
        n = 380
        levels = (1 + math.log2(n)) / (eps / 5)
        assert len(cells) <= 8 * n / eps + 4 * levels * levels


def mirror_x(ps):
    return validate([(-x, y) for x, y in ps.coords()])


def doubled_cells(ps, cover, eps):
    """_cover_cells' rank codes mapped back to doubled coordinates."""
    x1, y1, x2, y2, w = _cover_cells(cover, ps, eps)
    xs = coord_array(_lattice(ps.xs, ps.by_x))
    ys = coord_array(_lattice(ps.ys, ps.by_y))
    return xs[x1], ys[y1], xs[x2], ys[y2], w


def test_cover_cells_are_rank_codes():
    """The cells do not move when the set is shifted, even past int64: they
    are int64 rank codes.  Two-diagonals m = 64 takes the level cells at
    eps 0.5, in either orientation once mirrored."""
    for base in (uniform(50, 1), two_diagonals(64)):
        for ps in (base, mirror_x(base)):
            big = validate([(x + (1 << 70), y - (1 << 66))
                            for x, y in ps.coords()])
            cols = _cover_cells(build_cover(ps), ps, 0.5)
            big_cols = _cover_cells(build_cover(big), big, 0.5)
            for col, big_col in zip(cols, big_cols):
                assert col.dtype == big_col.dtype == np.int64
                assert np.array_equal(col, big_col)


def test_level_cells_output_pinned():
    """The level cells of the extremal sets (each also x-mirrored, so both
    orientations take them) and of random chain pairs, sorted, hash to the
    digest of the per-cell tuple builder they replaced.  The chain pairs
    reach the subsampling edges: a last gap of one level and curves of at
    most two corners."""
    digest = hashlib.sha256()
    bases = [two_diagonals(m) for m in (64, 128, 256)]
    bases += [gen_lower_bound(n).ps for n in (192, 256)]
    for ps in bases + [mirror_x(ps) for ps in bases]:
        cover = build_cover(ps)
        for eps in (0.5, 0.25, 0.1):
            cols = doubled_cells(ps, cover, eps)
            assert not any(np.issubdtype(col.dtype, np.floating)
                           for col in cols)
            rows = sorted(zip(*(col.tolist() for col in cols)))
            count = DepthIndex(ps, eps, cover).cell_count
            digest.update(repr((count, rows)).encode())
    rng = random.Random(15)
    for _ in range(60):
        t, s = rng.randint(20, 300), rng.randint(20, 300)
        eps = rng.choice((0.5, 0.25, 0.1))
        chains = make_chains(rng, t, s, span=3 * max(t, s))
        digest.update(repr(sorted(biclique_cells(*chains, eps))).encode())
    assert digest.hexdigest() == \
        "51dd9136fe71058b2c19117d6b6a5ff6ff9d811663de20e4f9e187eca66c3d88"


def test_eps_validation():
    ps = small_uniform(10, 0)
    for bad in (0, 1, -0.5, 1.5):
        with pytest.raises(EpsOutOfRange):
            build_depth_index(ps, bad)


def test_two_points_index():
    ps = validate([(0, 0), (3, 3)])
    ix = build_depth_index(ps, 0.5)
    assert ix.query((1, 1)) == 1
    assert ix.query((0, 3)) == 1
    assert ix.query((10, 10)) == 0
    assert ix.query((Fraction(1, 2), Fraction(5, 2))) == 1


def query_grid(ps, rng, count):
    xs = sorted(ps.xs)
    ys = sorted(ps.ys)
    qs = []
    for _ in range(count):
        qs.append((Fraction(rng.randint(2 * xs[0] - 2, 2 * xs[-1] + 2), 2),
                   Fraction(rng.randint(2 * ys[0] - 2, 2 * ys[-1] + 2), 2)))
    return qs


@pytest.mark.parametrize("eps", [0.5, 0.25, 0.1])
def test_index_contract_two_diagonals(eps):
    ps = two_diagonals(4)
    ix = build_depth_index(ps, eps)
    rng = random.Random(1)
    qs = query_grid(ps, rng, 400)
    edges = brute_rig(ps)
    truths = brute_depth_many(ps, qs, edges)
    for q, true in zip(qs, truths):
        a = ix.query(q)
        assert (1 - eps) * true - 1e-9 <= a <= true


@pytest.mark.parametrize("n,seed", [(40, 0), (120, 1), (250, 2)])
@pytest.mark.parametrize("eps", [0.5, 0.1])
def test_index_contract_random(n, seed, eps):
    ps = small_uniform(n, seed)
    ix = build_depth_index(ps, eps)
    rng = random.Random(seed + 7)
    qs = query_grid(ps, rng, 300)
    truths = brute_depth_many(ps, qs)
    for q, true in zip(qs, truths):
        a = ix.query(q)
        assert (1 - eps) * true - 1e-9 <= a <= true


def test_deep_cell_two_diagonals_m2():
    ps = two_diagonals(2)
    ix = build_depth_index(ps, 0.5)
    q = (Fraction(5, 2), Fraction(1, 2))
    assert brute_depth(ps, q) == 4
    a = ix.query(q)
    assert math.ceil((1 - 0.5) * 4) <= a <= 4


def test_query_determinism():
    ps = small_uniform(60, 3)
    ix = build_depth_index(ps, 0.25)
    q = (Fraction(41, 2), Fraction(33, 2))
    assert ix.query(q) == ix.query(q) == query_depth(ix, q)


def cell_sum_sets():
    """Uniform, extremal and x-mirrored sets small enough to scan every
    lattice point.  Only two-diagonals m = 64 has a biclique past the
    verbatim size (at eps 0.5), in either orientation once mirrored."""
    yield from (small_uniform(n, n) for n in (2, 3, 40))
    yield two_diagonals(8)
    yield gen_lower_bound(6).ps
    yield validate([(-x, y) for x, y in gen_lower_bound(6).ps.coords()])
    yield two_diagonals(64)
    yield validate([(-x, y) for x, y in two_diagonals(64).coords()])


@pytest.mark.parametrize("eps", [0.5, 0.25, 0.1])
def test_depth_index_matches_its_cell_sums(eps):
    """query2 at every doubled lattice point of the bounding box, padded
    by 2, is the total weight of the cover's cells containing it."""
    for ps in cell_sum_sets():
        ix = build_depth_index(ps, eps)
        x1, y1, x2, y2, w = doubled_cells(ps, ix.cover, eps)
        assert ix.cell_count == len(w)
        qys = np.arange(2 * min(ps.ys) - 4, 2 * max(ps.ys) + 5)
        inside_y = (y1[:, None] <= qys) & (qys < y2[:, None])
        for qx2 in range(2 * min(ps.xs) - 4, 2 * max(ps.xs) + 5):
            active = (x1 <= qx2) & (qx2 < x2)
            want = w[active] @ inside_y[active]
            got = [ix.query2(qx2, qy2) for qy2 in qys.tolist()]
            assert got == want.tolist(), f"column x2={qx2}"


@pytest.mark.parametrize("eps", [0.5, 0.25, 0.1])
def test_approx_max_is_first_lattice_maximum(eps):
    """approx_max_depth is the first maximum of query2 over every doubled
    lattice point of the bounding box, padded by 2, scanned x-major and
    then y ascending: the exact value and the tie-break."""
    for ps in cell_sum_sets():
        ix = build_depth_index(ps, eps)
        best = None
        for qx2 in range(2 * min(ps.xs) - 4, 2 * max(ps.xs) + 5):
            for qy2 in range(2 * min(ps.ys) - 4, 2 * max(ps.ys) + 5):
                v = ix.query2(qx2, qy2)
                if best is None or v > best[1]:
                    best = ((Fraction(qx2, 2), Fraction(qy2, 2)), v)
        assert approx_max_depth(ps, eps) == best


def test_depth_index_tables_stay_small():
    # a full events x leaves table would take 67 MB in int32 here
    ps = uniform(2048, 5)
    ix = build_depth_index(ps, 0.5)
    arrays = [a for a in vars(ix).values() if isinstance(a, memoryview)]
    assert any(a is ix._table for a in arrays)
    assert sum(a.nbytes for a in arrays) < 32 * 2 ** 20


def test_dropped_index_frees_its_tree_without_collection():
    ps = small_uniform(60, 4)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        ix = build_depth_index(ps, 0.5)
        table = weakref.ref(ix._table.obj)
        del ix
        assert table() is None, "reference cycle keeps the depth table"
    finally:
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize("dx,dy", [(1 << 70, -(1 << 66)), (1 << 62, 0)],
                         ids=["2^70,-2^66", "2^62,0"])
@pytest.mark.parametrize("base,eps", [
    (small_uniform(50, 3), 0.5), (small_uniform(50, 3), 0.25),
    (two_diagonals(64), 0.5), (gen_lower_bound(192).ps, 0.5),
    (mirror_x(gen_lower_bound(192).ps), 0.5)],
    ids=["uniform50-0.5", "uniform50-0.25", "two-diagonals64-0.5",
         "lower-bound192-0.5", "lower-bound192-mirrored-0.5"])
def test_depth_index_and_max_at_huge_coordinates(dx, dy, base, eps):
    # the cells only shift with the points, so the shifted structures must
    # answer exactly as the unshifted ones; doubled coordinates leave int64
    # (two-diagonals m = 64 takes the level cells at eps 0.5 in one
    # biclique, lower-bound n = 192 in three, in either orientation)
    ps = validate([(x + dx, y + dy) for x, y in base.coords()])
    rng = random.Random(6)
    qs = [(2 * qx, 2 * qy) for qx, qy in query_grid(base, rng, 400)]
    qs += [(2 * x + rng.choice((-1, 0, 1)), 2 * y + rng.choice((-1, 0, 1)))
           for x, y in base.coords()]
    ix, shifted = build_depth_index(base, eps), build_depth_index(ps, eps)
    assert shifted.cell_count == ix.cell_count
    assert [shifted.query2(qx2 + 2 * dx, qy2 + 2 * dy) for qx2, qy2 in qs] \
        == [ix.query2(qx2, qy2) for qx2, qy2 in qs]
    assert shifted.query((dx + Fraction(1, 2), dy)) == ix.query((Fraction(1, 2), 0))
    (px, py), v = approx_max_depth(base, eps)
    assert approx_max_depth(ps, eps) == ((px + dx, py + dy), v)


def test_depth_index_build_runs_few_collections():
    """The level cells of two-diagonals m = 256 are built as numpy columns,
    not one tracked tuple per cell: the build barely wakes the collector."""
    ps = two_diagonals(256)
    cover = build_cover(ps)
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.callbacks.append(count)
    try:
        DepthIndex(ps, 0.5, cover)
    finally:
        gc.callbacks.remove(count)
    assert len(starts) <= 10, f"{len(starts)} collector passes"


def exact_depth_sets():
    """Uniform, extremal and x-mirrored sets: both cover orientations carry
    large sides, and queries fall on both sides of their separation lines."""
    yield small_uniform(80, 5)
    yield two_diagonals(16)
    yield gen_lower_bound(14).ps
    yield validate([(-x, y) for x, y in two_diagonals(13).coords()])
    yield validate([(-x, y) for x, y in gen_lower_bound(12).ps.coords()])
    yield validate([(-x, y) for x, y in small_uniform(60, 8).coords()])


def exact_depth_queries(ps, rng):
    """Box queries, input points, grid vertices and points outside the
    hull (the bounding box corners pushed out, plus sampled shadow points)."""
    xs, ys = sorted(ps.xs), sorted(ps.ys)
    qs = query_grid(ps, rng, 150) + ps.coords()
    qs += [(rng.choice(xs), rng.choice(ys)) for _ in range(80)]
    hull = build_hull(ps)
    outside = [q for q in query_grid(ps, rng, 200) if not hull.contains(q)]
    outside += [(xs[0] - 1, ys[0] - 1), (xs[-1] + 1, ys[-1] + 1),
                (xs[0] - 1, ys[-1] + 1), (Fraction(2 * xs[-1] + 1, 2), ys[0])]
    return qs, outside


def test_exact_depth_at_matches_oracle():
    rng = random.Random(2)
    for ps in exact_depth_sets():
        cov = build_cover(ps)
        qs, outside = exact_depth_queries(ps, rng)
        truths = brute_depth_many(ps, qs + outside)
        got = [exact_depth_at(cov, ps, q) for q in qs + outside]
        assert got == truths.tolist()
        assert got[len(qs):] == [0] * len(outside)


def test_exact_depth_at_huge_coordinates():
    # depth is translation invariant; beyond int64 the view still works on
    # ranks, while the oracle runs on the unshifted set
    base = small_uniform(50, 3)
    dx, dy = 1 << 70, -(1 << 66)
    ps = validate([(x + dx, y + dy) for x, y in base.coords()])
    cov = build_cover(ps)
    qs, outside = exact_depth_queries(base, random.Random(4))
    truths = brute_depth_many(base, qs + outside)
    got = [exact_depth_at(cov, ps, (qx + dx, qy + dy))
           for qx, qy in qs + outside]
    assert got == truths.tolist()


def test_exact_depth_at_checks_the_point_set():
    ps = small_uniform(40, 1)
    cov = build_cover(ps)
    with pytest.raises(ValueError):
        exact_depth_at(cov, small_uniform(41, 1), (3, 3))
    with pytest.raises(ValueError):
        exact_depth_at(cov, small_uniform(39, 1), (3, 3))
    # an equal but distinct point set rebuilds the view and answers alike
    twin = validate(ps.coords())
    qs = query_grid(ps, random.Random(5), 60) + ps.coords()
    first = [exact_depth_at(cov, ps, q) for q in qs]
    view = cov._side_ranks[1]
    assert [exact_depth_at(cov, twin, q) for q in qs] == first
    assert cov._side_ranks[0] is twin and cov._side_ranks[1] is not view
    assert first == brute_depth_many(ps, qs).tolist()


def test_depth_index_checks_its_cover():
    # a cover of another size would index the point columns out of step
    big, small = gen_uniform(80, 2).ps, gen_uniform(40, 2).ps
    for ps, other in ((big, small), (small, big)):
        with pytest.raises(ValueError, match="cover has"):
            DepthIndex(ps, 0.5, build_cover(other))
    given, built = DepthIndex(big, 0.5, build_cover(big)), DepthIndex(big, 0.5)
    assert [given.query(q) for q in big.coords()] == \
        [built.query(q) for q in big.coords()]


def test_exact_depth_at_answers_from_its_view(monkeypatch):
    """After the first call the cover's columns are not read again: the
    rank-space view is built once and answers every later query."""
    ps = small_uniform(90, 6)
    cov = build_cover(ps)
    qs = query_grid(ps, random.Random(7), 80) + ps.coords()
    truths = brute_depth_many(ps, qs).tolist()
    assert exact_depth_at(cov, ps, qs[0]) == truths[0]
    view = cov._side_ranks[1]

    def refuse(*args, **kwargs):
        raise AssertionError("exact_depth_at re-derived biclique sides")

    monkeypatch.setattr(boxrig.depth, "_cover_cells", refuse)
    monkeypatch.setattr(boxrig.depth, "_SideRanks", refuse)
    for column in ("sides", "starts", "anti"):
        monkeypatch.setattr(cov, column, None)    # unreadable from here on
    assert [exact_depth_at(cov, ps, q) for q in qs] == truths
    assert cov._side_ranks[1] is view


def test_dropped_cover_frees_its_depth_view_without_collection():
    ps = small_uniform(60, 9)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        cov = build_cover(ps)
        exact_depth_at(cov, ps, ps.coords()[0])
        view = weakref.ref(cov._side_ranks[1])
        del cov
        assert view() is None, "reference cycle keeps the depth view"
    finally:
        if was_enabled:
            gc.enable()


def test_approx_max_two_points():
    ps = validate([(0, 0), (3, 3)])
    pt, v = approx_max_depth(ps, 0.5)
    assert v == 1
    assert brute_depth(ps, pt) >= 1


@pytest.mark.parametrize("eps", [0.5, 0.25, 0.1])
def test_approx_max_two_diagonals(eps):
    ps = two_diagonals(4)
    _, dmax = brute_max_depth(ps)
    pt, v = approx_max_depth(ps, eps)
    assert (1 - eps) * dmax - 1e-9 <= v <= dmax
    assert brute_depth(ps, pt) >= v  # reported value never overstates


def test_approx_max_builds_no_depth_index(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("approx_max_depth built a DepthIndex")

    monkeypatch.setattr(DepthIndex, "__init__", refuse)
    ps = small_uniform(40, 6)
    _, dmax = brute_max_depth(ps)
    _, v = approx_max_depth(ps, 0.5)
    assert 0.5 * dmax <= v <= dmax


@pytest.mark.parametrize("n,seed", [(2, 0), (50, 1), (150, 2), (200, 3)])
def test_approx_max_random(n, seed):
    ps = small_uniform(n, seed)
    _, dmax = brute_max_depth(ps)
    pt, v = approx_max_depth(ps, 0.25)
    assert (1 - 0.25) * dmax - 1e-9 <= v <= dmax
    assert brute_depth(ps, pt) >= v


def test_log_approx_two_points():
    ps = validate([(0, 0), (3, 3)])
    pt, v = log_approx_max_depth(ps)
    assert v == 1
    assert brute_depth(ps, pt) == 1


def test_log_approx_two_diagonals():
    ps = two_diagonals(4)
    pt, v = log_approx_max_depth(ps)
    _, dmax = brute_max_depth(ps)
    assert v == brute_depth(ps, pt)
    assert v >= dmax / (4 * math.log2(ps.n))


def test_log_approx_builds_no_cover(monkeypatch):
    # the slab lines need no cover, and neither does the exact depth at the
    # winner: it is the whole set's depth on the winner's line
    sizes = []

    def counting(ps, *args, **kwargs):
        sizes.append(ps.n)
        return build_cover(ps, *args, **kwargs)

    monkeypatch.setattr(boxrig.depth, "build_cover", counting)
    ps = small_uniform(256, 7)
    pt, v = log_approx_max_depth(ps)
    assert sizes == []
    assert v == exact_depth_at(build_cover(ps), ps, pt)


def median_slabs(ps, level=0, lo=0, hi=None):
    """Reference pre-order x-median split: (level, cut, the slab's x ranks
    in y order) per slab [lo, hi) of at least two x ranks."""
    hi = ps.n if hi is None else hi
    if hi - lo < 2:
        return
    cut = (lo + hi) // 2
    yield level, cut, sorted(range(lo, hi), key=lambda r: ps.ys[ps.by_x[r]])
    yield from median_slabs(ps, level + 1, lo, cut)
    yield from median_slabs(ps, level + 1, cut, hi)


def stabbed_intervals(ps, cut, ranks):
    """brute_rig edges of the slab whose closed x-span holds the x of the
    cut point, as (bottom, top) y positions into ranks."""
    sub = validate([(ps.xs[ps.by_x[r]], ps.ys[ps.by_x[r]]) for r in ranks])
    cx = ps.xs[ps.by_x[cut]]
    return [(i, j) for i, j in brute_rig(sub).edges
            if min(sub.xs[i], sub.xs[j]) <= cx <= max(sub.xs[i], sub.xs[j])]


def stab_sets():
    rng = random.Random(11)
    rand = [validate(list(zip(rng.sample(range(-90, 90), n),
                              rng.sample(range(-90, 90), n))))
            for n in (2, 3, 7, 23, 40)]
    return [small_uniform(60, 8), small_uniform(33, 3), two_diagonals(13),
            two_diagonals(4), gen_lower_bound(16).ps, gen_lower_bound(12).ps,
            *rand]


def test_slabs_walk_the_median_split(monkeypatch):
    # slabs carry their x ranks in y order down the walk, and validate runs
    # only at the boundary
    sets = stab_sets()
    calls = []
    for name, mod in list(sys.modules.items()):
        if name.startswith("boxrig") and getattr(mod, "validate", None) is validate:
            monkeypatch.setattr(mod, "validate",
                                lambda *a: calls.append(a) or validate(*a))
    for ps in sets:
        slabs = list(boxrig.depth._slabs(ps))
        assert slabs == list(median_slabs(ps))
        assert len(slabs) == ps.n - 1   # every internal node of the split
    assert calls == []


def test_stabbed_sweep_matches_brute_rig():
    for ps in stab_sets():
        for _, cut, ranks in boxrig.depth._slabs(ps):
            m = len(ranks)
            edges = stabbed_intervals(ps, cut, ranks)
            upper, top = boxrig.depth._stabbed(ranks, cut)
            lower = boxrig.depth._stabbed(ranks[::-1], cut)[0][::-1]
            assert upper == [sum(j == i for _, j in edges) for i in range(m)]
            assert lower == [sum(b == i for b, _ in edges) for i in range(m)]
            assert top == [max((b for b, j in edges if j == i), default=-1)
                           for i in range(m)]


def test_mis_is_the_greedy_interval_mis_of_the_best_level():
    # per slab line: tops ascending, ties to the highest bottom, taken when
    # the bottom lies above the last top taken; the first largest level wins
    for ps in stab_sets():
        levels = {}
        for level, cut, ranks in median_slabs(ps):
            chosen = levels.setdefault(level, [])
            last = -1
            for b, j in sorted(stabbed_intervals(ps, cut, ranks),
                               key=lambda e: (e[1], -e[0])):
                if b > last:
                    left, right = sorted((ranks[b], ranks[j]))
                    chosen.append(rect_of(ps[ps.by_x[left]],
                                          ps[ps.by_x[right]]))
                    last = j
        assert approx_mis(ps) == max(levels.values(), key=len)


@pytest.mark.parametrize("n,seed", [(60, 2), (150, 5), (300, 2)])
def test_log_approx_random(n, seed):
    ps = small_uniform(n, seed)
    pt, v = log_approx_max_depth(ps)
    assert v == brute_depth(ps, pt), "reported value must be exact at witness"
    _, dmax = brute_max_depth(ps)
    assert v >= dmax / (4 * math.log2(ps.n))


def test_mis_two_points():
    ps = validate([(0, 0), (3, 3)])
    out = approx_mis(ps)
    assert len(out) == 1


def test_mis_chain8():
    ps = validate([(i, i) for i in range(8)])
    out = approx_mis(ps)
    for a, b in itertools.combinations(out, 2):
        assert not a.intersects(b)


@pytest.mark.parametrize("n,seed", [(8, 1), (10, 2), (12, 4)])
def test_mis_vs_brute(n, seed):
    ps = small_uniform(n, seed)
    out = approx_mis(ps)
    edges = brute_rig(ps)
    for r in out:
        assert tuple(sorted(r.support)) in edges
    for a, b in itertools.combinations(out, 2):
        assert not a.intersects(b)
    opt = len(brute_mis(ps))
    assert len(out) >= opt / (4 * math.log2(n))


def test_mis_disjoint_on_larger():
    ps = small_uniform(120, 7)
    out = approx_mis(ps)
    edges = brute_rig(ps)
    for r in out:
        assert tuple(sorted(r.support)) in edges
    for a, b in itertools.combinations(out, 2):
        assert not a.intersects(b)

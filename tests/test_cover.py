import gc
import hashlib
import math
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from boxrig.cover import (ORIENT_DOM, Biclique, _pack, build_cover,
                          build_cover_basic, build_k_cover, edge_set,
                          expand_edges, rect_families, verify_cover)
from boxrig.depth import DepthIndex, approx_max_depth
from boxrig.geom import validate
from boxrig.lab import gen_lower_bound
from boxrig.oracle import brute_k_rig, brute_rig
from conftest import small_uniform, two_diagonals, uniform


def assert_exact(cover, ps, k=None):
    counts = Counter(expand_edges(cover))
    assert all(c == 1 for c in counts.values()), "an edge is covered twice"
    want = brute_rig(ps).edges if k is None else brute_k_rig(ps, k).edges
    assert set(counts) == want


def test_two_point_cover():
    ps = validate([(0, 0), (5, 3)])
    cov = build_cover(ps)
    assert cov.stats.edges == 1
    assert cov.stats.weight >= 2
    assert cov.stats.count == 1
    assert_exact(cov, ps)


def test_two_diagonals_m8_exact_once():
    ps = two_diagonals(8)
    cov = build_cover(ps)
    assert_exact(cov, ps)
    assert cov.stats.edges == 16 * 16 // 4 + 16 - 2


@pytest.mark.parametrize("builder", [build_cover, build_cover_basic])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n", [2, 3, 7, 16, 40, 80, 170])
def test_cover_oracle_equivalence(builder, n, seed):
    ps = small_uniform(n, seed)
    assert_exact(builder(ps), ps)


def test_cover_compact_path_larger():
    ps = uniform(300, 11)
    cov = build_cover(ps)
    assert cov.stats.variant == "compact"
    assert_exact(cov, ps)


@pytest.mark.parametrize("n", [50, 150])
@pytest.mark.parametrize("dx,dy", [(1 << 70, 0), (1 << 62, 0), (0, -(1 << 70)),
                                   (-(1 << 64), 1 << 80)],
                         ids=["x+2^70", "x+2^62", "y-2^70", "x-2^64,y+2^80"])
def test_covers_exact_beyond_int64(n, dx, dy):
    # every builder's sentinels must stay below coordinates of any size,
    # also after the anti orientation negates x
    ps = validate([(x + dx, y + dy) for x, y in small_uniform(n, 3).coords()])
    assert_exact(build_cover(ps), ps)
    assert_exact(build_cover_basic(ps), ps)
    assert_exact(build_k_cover(ps, 2), ps, k=2)


@pytest.mark.parametrize("shift", [1 << 70, -(1 << 70)], ids=["+2^70", "-2^70"])
@pytest.mark.parametrize("make", [lambda: two_diagonals(64),
                                  lambda: gen_lower_bound(128).ps],
                         ids=["two-diagonals-64", "lower-bound-128"])
def test_stack_backed_strips_exact_beyond_int64(make, shift):
    # these sets give the compact cover stack-backed strips, whose suffix
    # queries cut at the strip maxima already taken
    ps = make()
    want = build_cover(ps).bicliques
    for dx, dy in [(shift, 0), (0, shift), (shift, -shift)]:
        moved = validate([(x + dx, y + dy) for x, y in ps.coords()])
        cov = build_cover(moved)
        assert cov.stats.variant == "compact"
        assert cov.bicliques == want
        assert_exact(cov, moved)


# sha256 of repr(build_cover(ps).bicliques), taken before the compact
# cover's strip walks were batched in numpy
PINNED_COVERS = {
    "uniform-1024": ("031fca58f379f8b86366e57a5dc485bb"
                     "ffe45ff092158c6d29e4fd6a0e8bb6ef"),
    "uniform-4096": ("407bc7c829803f9ffa415b1eb6e2a724"
                     "5a31585fb36f57c18795f90158cfa153"),
    "two-diagonals-1024": ("db46f6fe8ca44c5ad22af2a5084c06f9"
                           "ad93368c437ccd4acdccc535bad42024"),
    "lower-bound-512": ("bbb004f206099c2d5ad8022ea48a01b8"
                        "c906058290b870029c9d5319a4a21657"),
}


@pytest.mark.parametrize("name", sorted(PINNED_COVERS))
def test_compact_cover_output_pinned(name):
    family, size = name.rsplit("-", 1)
    make = {"uniform": lambda m: uniform(m, 0), "two-diagonals": two_diagonals,
            "lower-bound": lambda m: gen_lower_bound(m).ps}[family]
    bicliques = build_cover(make(int(size))).bicliques
    # numpy integers can repr like ints, so the hash alone would miss them
    assert all(type(i) is int for b in bicliques for i in b.left + b.right)
    digest = hashlib.sha256(repr(bicliques).encode()).hexdigest()
    assert digest == PINNED_COVERS[name]


# sha256 of repr(build_k_cover(ps, k).bicliques), taken before the leveled
# pipeline moved onto the compact cover's lanes and pairs
PINNED_LEVELED = {
    ("uniform-1024", 0): "7d7f2802056b656d58e3d07980df0d0d2cfa5c65dfa3ce4a1348152437eb35e1",
    ("uniform-1024", 1): "ebcba68bada7e16185e8bc6bf54d4f0ec847ea2e46a93e026fa71f0f7efbfbc4",
    ("uniform-1024", 3): "12f12b48b3752a446b564761bc5cc9642e5ebec0ae895b1d7321f1c277e53778",
    ("two-diagonals-256", 0): "dece1b653062d0b32a0699c390616482017ac7e10ac7d14321fb7ef55080c293",
    ("two-diagonals-256", 1): "cabf86ce2a5890607d5fbaf1de7999207754f6c565e17857e5c6203faf0301c0",
    ("two-diagonals-256", 3): "1c148d9c383d5996c866f45afca7b67bb08ed4dcc112f83c21f343bc7a10f735",
    ("lower-bound-256", 0): "bcd656bd65f07d8f6e298826e812c5138fdc4208e1a32681dd899ccfeb9296e5",
    ("lower-bound-256", 1): "0604c410cc9e78650fa94fd8c3c0e777db58caec01b70524e783192c6afbd6e0",
    ("lower-bound-256", 3): "394c9d1f2fea6bfaa4dc227a63a0aa19ea95f614295e275ef02a20ab6670f21f",
}


@pytest.mark.parametrize("name,k", sorted(PINNED_LEVELED))
def test_leveled_cover_output_pinned(name, k):
    family, size = name.rsplit("-", 1)
    make = {"uniform": lambda m: uniform(m, 0), "two-diagonals": two_diagonals,
            "lower-bound": lambda m: gen_lower_bound(m).ps}[family]
    bicliques = build_k_cover(make(int(size)), k).bicliques
    assert all(type(i) is int for b in bicliques for i in b.left + b.right)
    digest = hashlib.sha256(repr(bicliques).encode()).hexdigest()
    assert digest == PINNED_LEVELED[(name, k)]


def test_builds_leave_no_cyclic_garbage():
    # the collector is off here, so every cycle a build leaves behind
    # stays until the explicit collection
    sets = [uniform(1024, 2), gen_lower_bound(512).ps]
    builders = [build_cover, build_cover_basic, lambda ps: build_k_cover(ps, 2),
                lambda ps: DepthIndex(ps, 0.5),
                lambda ps: approx_max_depth(ps, 0.5)]
    for build in builders:
        build(small_uniform(80, 1))    # warm-up
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for ps in sets:
            for build in builders:
                cov = build(ps)
                del cov
                assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


def test_orientations_partition_edges():
    ps = small_uniform(60, 5)
    cov = build_cover(ps)
    xs, ys = ps.xs, ps.ys
    for b in cov.bicliques:
        for a in b.left:
            for c in b.right:
                if b.orientation == ORIENT_DOM:
                    assert xs[a] < xs[c] and ys[a] < ys[c]
                else:
                    assert xs[a] > xs[c] and ys[a] < ys[c]


def test_sides_are_staircases():
    ps = small_uniform(120, 8)
    cov = build_cover(ps)
    xs, ys = ps.xs, ps.ys
    for b in cov.bicliques:
        for side in (b.left, b.right):
            sx = [xs[i] for i in side]
            sy = [ys[i] for i in side]
            assert sx == sorted(sx)
            dy = [b2 - a2 for a2, b2 in zip(sy, sy[1:])]
            if b.orientation == ORIENT_DOM:
                assert all(d < 0 for d in dy)
            else:
                assert all(d > 0 for d in dy)


def test_basic_weight_bound_n500():
    ps = uniform(500, 11)
    cov = build_cover_basic(ps)
    assert_exact(cov, ps)
    n = 500
    c = cov.stats.weight / (n * math.log2(n) ** 2)
    assert c <= 4.0, f"basic weight constant {c:.2f}"


def test_compact_counts_scale():
    for n, seed in [(256, 0), (1024, 1)]:
        ps = uniform(n, seed)
        cov = build_cover(ps)
        assert cov.stats.count / n <= 8
        assert cov.stats.weight / (n * math.log2(n) ** 2) <= 4


def test_k_cover_zero_matches_cover():
    ps = small_uniform(100, 2)
    assert edge_set(build_k_cover(ps, 0)) == edge_set(build_cover(ps))


def test_k_cover_chain3(chain3):
    cov = build_k_cover(chain3, 1)
    assert edge_set(cov) == {(0, 1), (1, 2), (0, 2)}


def mirrored(ps):
    return validate([(-x, y) for x, y in ps.coords()])


EXTREMAL = {"two-diagonals-24": two_diagonals(24),
            "lower-bound-24": gen_lower_bound(24).ps}
EXTREMAL.update({f"{name}-mirrored": mirrored(ps)
                 for name, ps in list(EXTREMAL.items())})


@pytest.mark.parametrize(
    "ps,k",
    [pytest.param(small_uniform(200, 5), k, id=str(k)) for k in (1, 2, 3)]
    + [pytest.param(ps, k, id=f"{name}-{k}")
       for name, ps in EXTREMAL.items() for k in (1, 2, 3)])
def test_k_cover_oracle_equivalence(ps, k):
    assert_exact(build_k_cover(ps, k), ps, k=k)


@pytest.mark.parametrize("ps", [small_uniform(90, 4), two_diagonals(16),
                                gen_lower_bound(20).ps],
                         ids=["uniform", "two-diagonals", "lower-bound"])
def test_k_cover_zero_is_the_basic_cover(ps):
    # one pipeline: k = 0 gives the basic cover's bicliques, in list order
    assert build_k_cover(ps, 0).bicliques == build_cover_basic(ps).bicliques


@pytest.mark.parametrize("k", [True, 1.0, 1.5, "1", None])
def test_k_cover_rejects_non_integer_k(k):
    with pytest.raises(ValueError, match="k must be an integer"):
        build_k_cover(small_uniform(12, 1), k)


def test_k_cover_takes_numpy_integer_k():
    ps = small_uniform(40, 2)
    cov = build_k_cover(ps, np.int64(1))
    assert cov.bicliques == build_k_cover(ps, 1).bicliques
    assert cov.stats.variant == "k-level(k=1)"


@pytest.mark.parametrize("k", [0, 1, 2, 3, 5])
@pytest.mark.parametrize("seed", [3, 4])
def test_k_cover_small_random(k, seed):
    ps = small_uniform(24, seed)
    assert_exact(build_k_cover(ps, k), ps, k=k)


def test_k_cover_weight_bound():
    n = 200
    ps = small_uniform(n, 5)
    for k in (1, 2, 3):
        cov = build_k_cover(ps, k)
        assert cov.stats.weight <= 4 * (k + 1) * n * math.log2(n) ** 2


def test_rect_families_star_and_counts():
    ps = small_uniform(50, 7)
    cov = build_cover(ps)
    total = 0
    for left, right in rect_families(cov, ps):
        total += len(left) * len(right)
    assert total == len(brute_rig(ps))


def test_verify_cover_green():
    ps = small_uniform(80, 9)
    rep = verify_cover(build_cover(ps), ps)
    assert rep.ok


def packed(ps, bicliques):
    """A cover of the given bicliques, packed as the builders pack theirs:
    an anti biclique's sides are handed over in reflected x order, as its
    pipeline emits them."""
    runs = []
    for b in bicliques:
        anti = b.orientation != ORIENT_DOM
        left, right = (b.left[::-1], b.right[::-1]) if anti else (b.left, b.right)
        runs.append(([*left, *right], [len(left), len(right)], anti))
    return _pack(ps.n, runs, "edited", time.perf_counter())


def test_packed_roundtrip():
    ps = small_uniform(60, 3)
    cov = build_cover(ps)
    again = packed(ps, cov.bicliques)
    assert again.bicliques == cov.bicliques
    assert again.stats.edges == cov.stats.edges


def test_verify_cover_flags_duplicate():
    ps = validate([(0, 0), (5, 3), (9, 8)])
    bicliques = build_cover(ps).bicliques
    bicliques.append(bicliques[0])
    rep = verify_cover(packed(ps, bicliques), ps)
    assert not rep.ok
    assert rep.duplicate_edges


def test_verify_cover_flags_missing():
    ps = validate([(0, 0), (5, 3), (9, 8)])
    bicliques = build_cover(ps).bicliques
    dropped = bicliques.pop()
    rep = verify_cover(packed(ps, bicliques), ps)
    assert not rep.ok
    assert rep.missing_edges
    pair = (dropped.left[0], dropped.right[0])
    pair = (min(pair), max(pair))
    assert pair in set(rep.missing_edges) or rep.missing_edges


def test_verify_cover_flags_separation():
    ps = validate([(0, 0), (5, 3), (9, 8)])
    bicliques = build_cover(ps).bicliques
    bicliques.append(Biclique((0, 2), (1,), ORIENT_DOM))
    rep = verify_cover(packed(ps, bicliques), ps)
    assert rep.separation_violations or rep.duplicate_edges
    assert not rep.ok


def test_verify_cover_reports_ids_out_of_range_and_empty_sides():
    ps = validate([(0, 0), (5, 3), (9, 8)])
    # a cover of five points checked against three
    rep = verify_cover(build_cover(validate([(0, 0), (5, 3), (9, 8), (1, 7),
                                             (6, 1)])), ps)
    assert not rep.ok
    assert any(why == "point id out of range"
               for _, why in rep.separation_violations)
    bicliques = build_cover(ps).bicliques
    bicliques.append(Biclique((), (1,), ORIENT_DOM))
    rep = verify_cover(packed(ps, bicliques), ps)
    assert not rep.ok
    assert rep.separation_violations == [(len(bicliques) - 1, "empty side")]


def test_bicliques_is_a_fresh_view():
    ps = small_uniform(80, 4)
    cov = build_cover(ps)
    columns = [col.copy() for col in (cov.sides, cov.starts, cov.anti)]
    stats = repr(cov.stats)
    view = cov.bicliques
    assert cov.bicliques == view and cov.bicliques is not view
    view.append(view[0])
    view.append(Biclique((0, 1), (2,), ORIENT_DOM))
    assert len(cov.bicliques) == cov.stats.count == len(view) - 2
    assert repr(cov.stats) == stats
    for col, kept in zip((cov.sides, cov.starts, cov.anti), columns):
        assert np.array_equal(col, kept)
    assert verify_cover(cov, ps).ok


@pytest.mark.parametrize("build", [build_cover, build_cover_basic,
                                   lambda ps: build_k_cover(ps, 2)],
                         ids=["compact", "basic", "k2"])
def test_stats_come_from_the_columns(build):
    ps = uniform(300, 5)
    cov = build(ps)
    bicliques = cov.bicliques
    count, weight, edges = cov.stats.count, cov.stats.weight, cov.stats.edges
    assert all(type(v) is int for v in (count, weight, edges))
    assert count == len(cov.anti) == len(bicliques)
    assert weight == len(cov.sides) == sum(len(b.left) + len(b.right)
                                           for b in bicliques)
    assert edges == sum(len(b.left) * len(b.right) for b in bicliques)
    assert len(cov.starts) == 2 * count + 1


def test_kept_cover_is_columnar():
    # the columns hold 8 bytes per unit of weight plus two offsets per
    # biclique; a list of Biclique tuples holds about 28
    ps = uniform(16384, 0)
    build_cover(small_uniform(200, 1))    # warm-up
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        cov = build_cover(ps)
        kept = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert kept <= 12 * cov.stats.weight, kept / cov.stats.weight

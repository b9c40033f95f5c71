"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they go.
"""

import math
import random
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from boxrig.boxhull import build_hull, disjoint_cover
from boxrig.cover import (build_cover, build_k_cover, expand_edges,
                          separation_lines)
from boxrig.depth import (approx_max_depth, approx_mis, build_depth_index,
                          log_approx_max_depth)
from boxrig.lab import (edge_count_experiment, gen_lower_bound,
                        gen_two_diagonals, gen_uniform, structural_fuzz)
from boxrig.oracle import (brute_depth, brute_depth_many, brute_hull_members,
                           brute_k_rig, brute_max_depth, brute_mis, brute_rig,
                           hull_union_area, union_area)
from boxrig.rangestack import RangeStack
from conftest import small_uniform


def report(name: str, detail: str = ""):
    print(f"ACCEPTANCE {name}: PASS {detail}")


def grid_queries2(ps, count, rng, pad=2):
    """Doubled-coordinate query arrays: random half-integer grid points plus
    exact boundary-grid vertices."""
    xs = sorted(ps.xs)
    ys = sorted(ps.ys)
    qx = [rng.randint(2 * (xs[0] - pad), 2 * (xs[-1] + pad))
          for _ in range(count // 2)]
    qy = [rng.randint(2 * (ys[0] - pad), 2 * (ys[-1] + pad))
          for _ in range(count // 2)]
    qx += [2 * rng.choice(xs) for _ in range(count - count // 2)]
    qy += [2 * rng.choice(ys) for _ in range(count - count // 2)]
    return np.array(qx, dtype=np.int64), np.array(qy, dtype=np.int64)


def halves(qx2, qy2):
    """Doubled-coordinate arrays as half-integer (x, y) queries."""
    return [(Fraction(int(x), 2), Fraction(int(y), 2)) for x, y in zip(qx2, qy2)]


def members(h, qs):
    return np.array([h.contains(q) for q in qs])


def test_01_extremal_count():
    t0 = time.perf_counter()
    for m in (2, 4, 8, 16, 32):
        ps = gen_two_diagonals(m).ps
        n = 2 * m
        want = n * n // 4 + n - 2
        assert len(brute_rig(ps)) == want
        cov = build_cover(ps)
        counts = Counter(expand_edges(cov))
        assert len(counts) == want and all(c == 1 for c in counts.values())
    dt = time.perf_counter() - t0
    assert dt < 5.0
    report("1 extremal count", f"m in 2..32, {dt:.2f}s")


def test_02_cover_exactness():
    t0 = time.perf_counter()
    cases = [(16, 7), (64, 6), (256, 6), (1024, 6)]
    total = 0
    for n, reps in cases:
        for seed in range(reps):
            ps = gen_uniform(n, seed).ps
            cov = build_cover(ps)
            counts = Counter(expand_edges(cov))
            assert all(c == 1 for c in counts.values())
            assert set(counts) == brute_rig(ps).edges
            for b in cov.bicliques:
                separation_lines(b, ps)  # raises if not quadrant-separated
            total += 1
    dt = time.perf_counter() - t0
    assert total == 25
    assert dt < 60.0
    report("2 cover exactness", f"25 instances, {dt:.1f}s")


def test_03_compactness_scaling():
    import gc
    ps = gen_uniform(100_000, 3).ps
    gc.collect()
    t0 = time.perf_counter()
    build_cover(ps)
    dt = time.perf_counter() - t0
    assert dt < 10.0
    del ps
    worst_count = worst_weight = 0.0
    for k in range(6, 17):
        n = 2 ** k
        ps = gen_uniform(n, 1).ps
        cov = build_cover(ps)
        worst_count = max(worst_count, cov.stats.count / n)
        worst_weight = max(worst_weight, cov.stats.weight / (n * math.log2(n) ** 2))
    assert worst_count <= 8.0
    assert worst_weight <= 4.0
    report("3 compactness", f"count/n<={worst_count:.2f}, "
           f"weight/(n log^2 n)<={worst_weight:.3f}, build(1e5)={dt:.1f}s")


def _stack_script(n, seed):
    rng = random.Random(seed)
    s = RangeStack(n)
    keys = []
    pushes = []
    pops = []
    key = 0
    for _ in range(n):
        if s.size and rng.random() < 0.35:
            k = rng.randint(1, s.size) if rng.random() < 0.3 else 1
            t = s.pop(k)
            pops.append((t, k))
            del keys[len(keys) - k:]
        else:
            key += rng.randint(1, 3)
            t = s.push(key, key)
            pushes.append((t, key))
            keys.append(key)
    return s, pushes, key


def _expanded_keys(s, canons, elems):
    """Sorted keys of a (canonical ids, elements) range answer."""
    keys = [k for cid in canons for k, _ in s.canonical_elements(cid)]
    return sorted(keys + [k for k, _ in elems])


def test_04_stack_amortized_bounds():
    for n in (1000, 10_000, 100_000):
        s, pushes, maxkey = _stack_script(n, seed=9)
        logn = math.log2(n)
        assert s.created_count <= 4 * n
        assert s.created_weight <= 4 * n * logn
        # numpy replay oracle over (push step, pop step) half-open lifetimes
        keys = np.array([k for _, k in pushes], dtype=np.int64)
        born = np.array([t for t, _ in pushes], dtype=np.float64)
        died = np.full(len(keys), np.inf)
        live = []
        replay = RangeStack(n)
        idx = 0
        # reconstruct lifetimes by replaying the recorded steps
        for t in range(1, s.step + 1):
            if idx < len(pushes) and pushes[idx][0] == t:
                live.append(idx)
                idx += 1
            else:
                drop = len(live) - int(s._v_size[t])
                for j in live[len(live) - drop:]:
                    died[j] = t
                del live[len(live) - drop:]
        rng = random.Random(5)
        parts_worst = 0
        for _ in range(1000):
            t = rng.randint(0, s.step)
            lo = rng.randint(0, maxkey)
            hi = rng.randint(lo, maxkey + 2)
            canons, elems = s.report_at_time(t, lo, hi)
            parts_worst = max(parts_worst, len(canons) + len(elems))
            i, j = np.searchsorted(keys, (lo, hi + 1))
            mask = (born[i:j] <= t) & (t < died[i:j])
            expect = keys[i:j][mask].tolist()
            assert _expanded_keys(s, canons, elems) == expect
        assert parts_worst <= 4 * logn
    report("4 stack bounds",
           f"n up to 1e5, worst report parts {parts_worst}")


def test_05_box_hull():
    rng = random.Random(12)
    t0 = time.perf_counter()
    for idx in range(20):
        n = rng.randint(8, 300)
        ps = small_uniform(n, seed=idx + 100)
        h = build_hull(ps)
        qs = halves(*grid_queries2(ps, 10_000, rng))
        fast = members(h, qs)
        slow = brute_hull_members(ps, qs)
        assert np.array_equal(fast, slow), f"membership mismatch, instance {idx}"
        # axis convexity on 1000 random lines: membership row has one run
        xs = sorted(ps.xs)
        ys = sorted(ps.ys)
        for _ in range(500):
            c2 = rng.randint(2 * xs[0] - 2, 2 * xs[-1] + 2)
            samp = np.array(sorted(rng.randint(2 * ys[0] - 2, 2 * ys[-1] + 2)
                                   for _ in range(24)), dtype=np.int64)
            row = members(h, halves(np.full(len(samp), c2), samp))
            assert np.count_nonzero(np.diff(row.astype(np.int8))) <= 2
        for _ in range(500):
            c2 = rng.randint(2 * ys[0] - 2, 2 * ys[-1] + 2)
            samp = np.array(sorted(rng.randint(2 * xs[0] - 2, 2 * xs[-1] + 2)
                                   for _ in range(24)), dtype=np.int64)
            row = members(h, halves(samp, np.full(len(samp), c2)))
            assert np.count_nonzero(np.diff(row.astype(np.int8))) <= 2
        dc = disjoint_cover(ps)
        boxes = [(p.lo[0], p.lo[1], p.hi[0], p.hi[1]) for p in dc.pieces]
        x1 = np.array([b[0] for b in boxes])
        y1 = np.array([b[1] for b in boxes])
        x2 = np.array([b[2] for b in boxes])
        y2 = np.array([b[3] for b in boxes])
        inter = ((x1[:, None] < x2[None, :]) & (x1[None, :] < x2[:, None])
                 & (y1[:, None] < y2[None, :]) & (y1[None, :] < y2[:, None]))
        np.fill_diagonal(inter, False)
        assert not inter.any(), "pieces overlap"
        assert dc.total_area() == union_area(boxes) == hull_union_area(ps)
    report("5 box hull", f"20 instances, {time.perf_counter() - t0:.1f}s")


@pytest.mark.parametrize("eps", [0.5, 0.25, 0.1])
def test_06_depth_contract(eps):
    rng = random.Random(31)
    for idx in range(10):
        n = rng.randint(10, 300)
        ps = small_uniform(n, seed=idx + 50)
        ix = build_depth_index(ps, eps)
        qs = halves(*grid_queries2(ps, 300, rng))
        truths = brute_depth_many(ps, qs)
        for q, true in zip(qs, truths):
            a = ix.query(q)
            assert a <= true, f"overcount at {q}"
            assert a >= (1 - eps) * true - 1e-9, f"undercount at {q}"
        pt, v = approx_max_depth(ps, eps)
        _, dmax = brute_max_depth(ps)
        assert (1 - eps) * dmax - 1e-9 <= v <= dmax
    report(f"6 depth contract eps={eps}", "10 instances, zero violations")


def test_07_log_approx_max_depth():
    rng = random.Random(77)
    for idx in range(10):
        n = rng.randint(10, 300)
        ps = small_uniform(n, seed=idx + 50)
        pt, v = log_approx_max_depth(ps)
        assert v == brute_depth(ps, pt), "reported value not exact at witness"
        _, dmax = brute_max_depth(ps)
        assert v >= dmax / (4 * math.log2(ps.n))
    report("7 log-approx max depth", "exact at witness, ratio held")


@pytest.mark.parametrize("k", [1, 2, 3])
def test_08_k_cover(k):
    for n, seed in ((32, 0), (128, 1), (256, 2)):
        ps = small_uniform(n, seed)
        cov = build_k_cover(ps, k)
        counts = Counter(expand_edges(cov))
        assert all(c == 1 for c in counts.values())
        assert set(counts) == brute_k_rig(ps, k).edges
    report(f"8 k-cover k={k}", "exact vs brute_k_rig up to n=256")


def test_09_lower_bound_weight():
    ratios = []
    weights = []
    for k in range(8, 15):
        inst = gen_lower_bound(2 ** k)
        cov = build_cover(inst.ps)
        n = 2 ** k
        ratios.append(cov.stats.weight / (n * math.log2(n)))
        weights.append(cov.stats.weight)
    c = min(ratios)
    assert c > 0.1
    assert all(a <= b for a, b in zip(ratios, ratios[1:])), \
        "normalised curve not monotone"
    report("9 lower-bound weight",
           f"fitted c={c:.2f}, normalised curve monotone")


def test_10_random_edge_band():
    rep = edge_count_experiment([2 ** k for k in range(8, 14)], range(5))
    band = rep.fitted["band_ratio"]
    assert band <= 4.0
    report("10 random edges", f"band [{rep.fitted['c1']:.3f}, "
           f"{rep.fitted['c2']:.3f}], ratio {band:.2f}")


def test_11_no_k5():
    rng = random.Random(4)
    ns = [rng.randint(5, 60) for _ in range(100)]
    rep = structural_fuzz(sorted(set(ns)), range(2))
    # top up to exactly 100 instances
    done = len(rep.rows)
    extra = structural_fuzz([60], range(max(0, 100 - done)))
    assert rep.fitted["k5_violations"] == 0
    assert extra.fitted["k5_violations"] == 0
    report("11 structure", f"{done + len(extra.rows)} instances, zero K5")


def test_12_mis():
    rng = random.Random(8)
    for idx in range(12):
        n = rng.randint(4, 12)
        ps = small_uniform(n, seed=idx)
        out = approx_mis(ps)
        edges = brute_rig(ps)
        for r in out:
            assert tuple(sorted(r.support)) in edges
        for i in range(len(out)):
            for j in range(i + 1, len(out)):
                assert not out[i].intersects(out[j])
        opt = len(brute_mis(ps))
        assert len(out) >= opt / (4 * math.log2(max(n, 2)))
    for n, seed in ((80, 3), (200, 4)):
        ps = small_uniform(n, seed)
        out = approx_mis(ps)
        edges = brute_rig(ps)
        for r in out:
            assert tuple(sorted(r.support)) in edges
        for i in range(len(out)):
            for j in range(i + 1, len(out)):
                assert not out[i].intersects(out[j])
    report("12 MIS", "disjoint + empty everywhere; ratio held at n<=12")

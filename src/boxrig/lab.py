"""Instance generators, scaling experiments, and structural fuzzing.

Every generator is deterministic in its parameters: the same (name, params,
seed) regenerates the identical instance bit for bit.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .geom import PointSet, validate
from .oracle import brute_rig

GRID_BITS = 40  # uniform coordinates live on a 2^40 integer grid


@dataclass(frozen=True)
class Instance:
    name: str
    params: dict
    ps: PointSet
    provenance: str

    @property
    def n(self) -> int:
        return self.ps.n


def gen_two_diagonals(m: int) -> Instance:
    """Two anti-chains of m points each; every upper point dominates every
    lower point.  The densest known family: exactly n^2/4 + n - 2 edges for
    n = 2m."""
    if m < 1:
        raise ValueError("m must be >= 1")
    coords = [(i, -i) for i in range(1, m + 1)]
    coords += [(m + j, m + 1 - j) for j in range(1, m + 1)]
    return Instance("two-diagonals", {"m": m}, validate(coords),
                    f"gen_two_diagonals(m={m})")


def gen_lower_bound(n: int) -> Instance:
    """Two facing chains forcing any biclique cover to carry near-linear-log
    weight.  2n points total.

    The textbook construction puts both chains on the same y values; that
    violates general position, so the y coordinates are de-tied (2i vs 2i+1)
    and the chains widely separated in x.  This adds one extra cross edge per
    level but keeps the forced-weight phenomenon intact.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    coords = [(-i, 2 * i) for i in range(1, n + 1)]
    coords += [(4 * n - i, 2 * i + 1) for i in range(1, n + 1)]
    return Instance("lower-bound", {"n": n}, validate(coords),
                    f"gen_lower_bound(n={n})")


def gen_uniform(n: int, seed: int) -> Instance:
    """n points uniform on the 2^40 grid; coordinate ties resolved by
    re-sampling the colliding coordinate."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = random.Random(seed)
    xs_used: set[int] = set()
    ys_used: set[int] = set()
    coords = []
    for _ in range(n):
        x = rng.getrandbits(GRID_BITS)
        while x in xs_used:
            x = rng.getrandbits(GRID_BITS)
        y = rng.getrandbits(GRID_BITS)
        while y in ys_used:
            y = rng.getrandbits(GRID_BITS)
        xs_used.add(x)
        ys_used.add(y)
        coords.append((x, y))
    return Instance("uniform", {"n": n, "seed": seed}, validate(coords),
                    f"gen_uniform(n={n}, seed={seed})")


# ---------------------------------------------------------------------------
# centre point with a support matching


def center_point(ps: PointSet):
    """A point contained in about n/2 influence rectangles with pairwise
    distinct supports.

    Splits the plane by a vertical line at the x median, then slides a
    horizontal line through the y order until the up-right and down-left
    quadrants balance; each gap move shifts the balance by exactly one, so a
    balanced gap always exists.  Returns (point, pairs) where every pair's
    rectangle contains the point and no point supports two rectangles.
    """
    n = ps.n
    if n < 2:
        raise ValueError("need at least two points")
    xs_sorted = [ps.xs[i] for i in ps.by_x]
    mid = n // 2
    # vertical line between x ranks mid-1 and mid (half-integer)
    lv = Fraction(xs_sorted[mid - 1] + xs_sorted[mid], 2)
    right = [i for i in range(n) if ps.xs[i] > lv]
    above_right = 0
    below_left = sum(1 for i in range(n) if ps.xs[i] < lv)
    # sweep the horizontal line downward through the y order
    by_y_desc = list(reversed(ps.by_y))
    ys_desc = [ps.ys[i] for i in by_y_desc]
    lh = None
    if above_right == below_left:
        lh = Fraction(2 * ys_desc[0] + 2, 2)  # above everything
    else:
        for idx, i in enumerate(by_y_desc):
            if ps.xs[i] > lv:
                above_right += 1
            else:
                below_left -= 1
            if above_right == below_left:
                nxt = ys_desc[idx + 1] if idx + 1 < n else ys_desc[idx] - 2
                lh = Fraction(ys_desc[idx] + nxt, 2)
                break
    assert lh is not None, "balanced gap must exist"
    q1 = [i for i in range(n) if ps.xs[i] > lv and ps.ys[i] > lh]
    q2 = [i for i in range(n) if ps.xs[i] < lv and ps.ys[i] > lh]
    q3 = [i for i in range(n) if ps.xs[i] < lv and ps.ys[i] < lh]
    q4 = [i for i in range(n) if ps.xs[i] > lv and ps.ys[i] < lh]
    assert len(q1) == len(q3)
    pairs = list(zip(q1, q3)) + list(zip(q2, q4))
    pt = (lv, lh)
    for a, b in pairs:
        assert min(ps.xs[a], ps.xs[b]) < lv < max(ps.xs[a], ps.xs[b])
        assert min(ps.ys[a], ps.ys[b]) < lh < max(ps.ys[a], ps.ys[b])
    return pt, pairs


# ---------------------------------------------------------------------------
# experiments


@dataclass
class ExperimentReport:
    rows: list = field(default_factory=list)
    fitted: dict = field(default_factory=dict)
    ok: bool = True

    def to_dict(self) -> dict:
        return {"schema": 1, "rows": self.rows, "fitted": self.fitted, "ok": self.ok}


def edge_count_experiment(ns, seeds) -> ExperimentReport:
    """Measure |edges| via cover expansion counts on uniform instances and
    check that e(n)/(n ln n) stays inside a fixed band."""
    from .chains import MAX_DOM, maxima
    from .cover import build_cover

    ns = list(ns)
    seeds = list(seeds)
    if not ns or not seeds:
        raise ValueError("need at least one n and one seed")
    rep = ExperimentReport()
    ratios = []
    for n in ns:
        for seed in seeds:
            inst = gen_uniform(n, seed)
            cov = build_cover(inst.ps)
            edges = cov.stats.edges
            ratio = edges / (n * math.log(n))
            ratios.append(ratio)
            rep.rows.append({
                "n": n, "seed": seed, "edges": edges,
                "cover_weight": cov.stats.weight,
                "biclique_count": cov.stats.count,
                "maxima_len": len(maxima(inst.ps, MAX_DOM).ids),
                "ratio": ratio,
            })
    # sanity check: the extremal family at m=2 has exactly 6 edges
    sanity_edges = len(brute_rig(gen_two_diagonals(2).ps))
    c1, c2 = min(ratios), max(ratios)
    rep.fitted = {"c1": c1, "c2": c2, "band_ratio": c2 / c1,
                  "sanity_two_diagonals_m2_edges": sanity_edges}
    rep.ok = rep.fitted["band_ratio"] <= 4.0 and sanity_edges == 6
    return rep


def _max_clique_size(n: int, edges, cap: int = 5) -> int:
    """Size of the largest clique, early-exiting once cap is reached.
    Bitmask Bron-Kerbosch with pivoting; fine for n <= 60."""
    adj = [0] * n
    for a, b in edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    best = 0

    def bk(r_size: int, p: int, x: int):
        nonlocal best
        if best >= cap:
            return
        if not p and not x:
            best = max(best, r_size)
            return
        # pivot: vertex in p|x with most neighbours in p
        px = p | x
        cand, most = -1, -1
        while px:
            v = (px & -px).bit_length() - 1
            px &= px - 1
            cnt = bin(adj[v] & p).count("1")
            if cnt > most:
                most, cand = cnt, v
        ext = p & ~adj[cand]
        while ext:
            v = (ext & -ext).bit_length() - 1
            ext &= ext - 1
            vb = 1 << v
            bk(r_size + 1, p & adj[v], x & adj[v])
            p &= ~vb
            x |= vb
            if best >= cap:
                return

    bk(0, (1 << n) - 1, 0)
    return best


def _find_triclique(n: int, edges):
    """Search for disjoint R, G, B with |R|,|G|,|B| >= 2 and all cross pairs
    adjacent.  Returns one witness or None."""
    adj = [0] * n
    for a, b in edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a

    def bits(mask):
        while mask:
            v = (mask & -mask).bit_length() - 1
            mask &= mask - 1
            yield v

    for u in range(n):
        for v in range(u + 1, n):
            c1 = adj[u] & adj[v] & ~((1 << u) | (1 << v))
            if bin(c1).count("1") < 4:
                continue
            for a in bits(c1):
                for b in bits(c1):
                    if b <= a:
                        continue
                    c2 = c1 & adj[a] & adj[b] & ~((1 << a) | (1 << b))
                    if bin(c2).count("1") < 2:
                        continue
                    rest = list(bits(c2))
                    for w in rest:
                        for z in rest:
                            if z <= w:
                                continue
                            return ((u, v), (a, b), (w, z))
    return None


def structural_fuzz(ns, seeds) -> ExperimentReport:
    """Assert no 5-clique exists in any sampled graph; record (not assert)
    whether any all-sides>=2 triclique shows up."""
    ns = list(ns)
    seeds = list(seeds)
    if not ns or not seeds:
        raise ValueError("need at least one n and one seed")
    if max(ns) > 60:
        raise ValueError("fuzz capped at n <= 60 (clique search cost)")
    rep = ExperimentReport()
    k5 = 0
    tricliques = []
    for n in ns:
        for seed in seeds:
            inst = gen_uniform(n, seed)
            edges = brute_rig(inst.ps).edges
            clique = _max_clique_size(n, edges)
            if clique >= 5:
                k5 += 1
            tri = _find_triclique(n, edges)
            if tri is not None:
                tricliques.append({"n": n, "seed": seed, "witness": tri})
            rep.rows.append({"n": n, "seed": seed, "edges": len(edges),
                             "max_clique": clique, "triclique": tri is not None})
    rep.fitted = {"k5_violations": k5, "tricliques_observed": len(tricliques)}
    rep.ok = k5 == 0
    return rep

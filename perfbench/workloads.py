"""The three benchmark workloads: seeded inputs, set-up and operation cycles.

Inputs are raw integer coordinates made here from the seed, so a change to
``boxrig.lab`` cannot change them.  Every library call goes through the
``boxrig`` module attributes at call time (``B.build_cover``), so the traced
run sees the wrapped functions.

A workload yields its operations in cycles.  A cycle is a fixed stratified
list of jobs (or a batch of queries); the seed only changes coordinates and
query points, never the sizes, so runs with different seeds do the same
amount of work.  Each operation times only the library calls it makes, and
returns zero-argument checks that the runner calls afterwards, outside every
timed region.
"""

from __future__ import annotations

import random
from array import array
from fractions import Fraction
from time import perf_counter_ns

import boxrig as B

import checks as C

GRID = 1 << 40      # coordinates are drawn from [0, 2^40)


# ---------------------------------------------------------------------------
# inputs


def uniform_coords(rng: random.Random, n: int) -> list[tuple[int, int]]:
    return list(zip(rng.sample(range(GRID), n), rng.sample(range(GRID), n)))


def two_diagonals_coords(m: int) -> list[tuple[int, int]]:
    """Two anti-chains of m points, every upper point dominating every lower
    one: n^2/4 + n - 2 empty rectangles for n = 2m."""
    return ([(i, -i) for i in range(1, m + 1)]
            + [(m + j, m + 1 - j) for j in range(1, m + 1)])


def lower_bound_coords(n: int) -> list[tuple[int, int]]:
    """Two facing chains of n points each (2n points) that force any
    biclique cover to carry near-linear-log weight."""
    return ([(-i, 2 * i) for i in range(1, n + 1)]
            + [(4 * n - i, 2 * i + 1) for i in range(1, n + 1)])


def relabel(rng: random.Random, coords):
    """Fresh random coordinate values with the same x and y orders (mirrored
    in x half the time): the same combinatorial instance, new numbers."""
    n = len(coords)
    xv = sorted(rng.sample(range(GRID), n))
    yv = sorted(rng.sample(range(GRID), n))
    rx = [0] * n
    ry = [0] * n
    for r, i in enumerate(sorted(range(n), key=lambda i: coords[i][0])):
        rx[i] = r
    for r, i in enumerate(sorted(range(n), key=lambda i: coords[i][1])):
        ry[i] = r
    if rng.random() < 0.5:
        rx = [n - 1 - r for r in rx]
    return [(xv[rx[i]], yv[ry[i]]) for i in range(n)]


def family_coords(rng: random.Random, family: str, size: int):
    if family == "uniform":
        return uniform_coords(rng, size)
    if family == "two-diagonals":
        return relabel(rng, two_diagonals_coords(size))
    if family == "lower-bound":
        return relabel(rng, lower_bound_coords(size))
    raise ValueError(f"unknown family {family!r}")


def near_query(rng: random.Random, coords):
    """A half-integer point diagonally beside a random input point, where
    rectangles are dense."""
    x, y = coords[rng.randrange(len(coords))]
    return (Fraction(2 * x + rng.choice((-1, 1)), 2),
            Fraction(2 * y + rng.choice((-1, 1)), 2))


def bbox(coords):
    xs = [c[0] for c in coords]
    ys = [c[1] for c in coords]
    return min(xs), min(ys), max(xs), max(ys)


def box_query(rng: random.Random, box):
    """A half-integer point uniform over the box (x1, y1, x2, y2)."""
    return (Fraction(2 * rng.randrange(box[0], box[2]) + 1, 2),
            Fraction(2 * rng.randrange(box[1], box[3]) + 1, 2))


def cycle_rng(name: str, seed: int, tag) -> random.Random:
    return random.Random(f"{name}:{seed}:{tag}")


# ---------------------------------------------------------------------------
# timing


class Timer:
    """Times single library calls.  ``op_ns`` sums the raw latencies of the
    current operation's calls; ``commit(factor)`` files them, raw in
    ``lat_raw[label]`` and scaled by the machine-speed factor (see
    child.Calibrator) in ``lat[label]``.

    Latencies live in typed arrays, not lists of int objects: objects kept
    for the whole run but allocated between a job's allocations would pin
    the job's freed memory and make peak RSS depend on allocation order."""

    LABELS = ("depth", "hull", "witness")

    def __init__(self):
        self.op_ns = 0
        self.pending: list = []
        self.lat = {k: array("d") for k in self.LABELS}
        self.lat_raw = {k: array("q") for k in self.LABELS}

    def call(self, label, fn, *args):
        t0 = perf_counter_ns()
        try:
            return fn(*args)
        finally:
            d = perf_counter_ns() - t0
            self.op_ns += d
            if label:
                self.pending.append((label, d))

    def commit(self, factor: float):
        for label, d in self.pending:
            self.lat[label].append(d * factor)
            self.lat_raw[label].append(d)
        self.pending.clear()
        self.op_ns = 0


class Op:
    """One closed-loop operation: a query or a job."""

    __slots__ = ("kind", "points", "key", "run")

    def __init__(self, kind: str, points: int, key, run):
        self.kind = kind        # operation class, e.g. "depth" or "index:uniform"
        self.points = points    # input points the operation processes
        self.key = key          # identity of its input, for inputs.repeat_share
        self.run = run          # run(timer) -> list of checks


def _probe(t: Timer, chk, coords, ps, hull, q, out: list, depth_fn=None):
    """One served query point: hull membership, a witness, and a depth
    (approximate through the index, or exact through the cover)."""
    inside = t.call("hull", hull.contains, q)
    try:
        w, missing = t.call("witness", B.witness_rect, ps, hull, q), False
    except B.NotInHull:
        w, missing = None, True
    d = t.call("depth", depth_fn, q) if depth_fn else None
    out.append(lambda: C.check_contains(chk, q, inside))
    out.append(lambda: C.check_witness(chk, coords, q, w, missing))
    return d


# ---------------------------------------------------------------------------
# query-mix: the read path of one served index


class QueryMix:
    """Setup builds one served index (cover, hull, depth index) over uniform
    points; each cycle is a seeded batch of single public query calls."""

    name = "query-mix"
    setup_repeats = 3
    params = {"n": 8192, "eps": 0.5, "cycle_ops": 4096, "fixed_cycles": 4,
              "mix": {"depth": 0.70, "hull": 0.25, "witness": 0.05},
              "near_share": 0.5, "check_every": 64}

    def __init__(self, seed: int):
        self.seed = seed
        self.coords = uniform_coords(cycle_rng(self.name, seed, "points"),
                                     self.params["n"])
        self.served = None

    def setup(self, t: Timer):
        self.served = None
        ps = t.call(None, B.validate, self.coords)
        cover = t.call(None, B.build_cover, ps)
        hull = t.call(None, B.build_hull, ps)
        ix = t.call(None, B.DepthIndex, ps, self.params["eps"], cover)
        self.served = (ps, hull, ix)
        self.chk = C.PointChecker(self.coords)

    def cycle(self, k: int) -> list[Op]:
        p = self.params
        rng = cycle_rng(self.name, self.seed, k)
        ps, hull, ix = self.served
        coords, chk, eps = self.coords, self.chk, p["eps"]
        box = bbox(coords)
        ops = []
        for i in range(p["cycle_ops"]):
            u = rng.random()
            kind = ("depth" if u < p["mix"]["depth"] else
                    "hull" if u < p["mix"]["depth"] + p["mix"]["hull"] else
                    "witness")
            if kind == "witness" or rng.random() < p["near_share"]:
                q = near_query(rng, coords)
            else:
                q = box_query(rng, box)
            checked = kind == "witness" or i % p["check_every"] == 0
            ops.append(Op(kind, 1, q, self._query(kind, q, checked, ps, hull,
                                                  ix, chk, coords, eps)))
        return ops

    @staticmethod
    def _query(kind, q, checked, ps, hull, ix, chk, coords, eps):
        if kind == "depth":
            def run(t):
                d = t.call("depth", B.query_depth, ix, q)
                return [lambda: C.check_depth_approx(chk, q, d, eps)] if checked else []
        elif kind == "hull":
            def run(t):
                inside = t.call("hull", hull.contains, q)
                return [lambda: C.check_contains(chk, q, inside)] if checked else []
        else:
            def run(t):
                try:
                    w, missing = t.call("witness", B.witness_rect, ps, hull, q), False
                except B.NotInHull:
                    w, missing = None, True
                return [lambda: C.check_witness(chk, coords, q, w, missing)]
        return run


# ---------------------------------------------------------------------------
# index-build: the write path, one fresh servable index per point set


class IndexBuild:
    """Each job validates a point set and builds a servable index (cover,
    hull, interior-disjoint decomposition, depth index), then answers its
    first queries.  The smallest set of each family also gets an
    approx_max_depth job."""

    name = "index-build"
    setup_repeats = 5
    # (family, size, eps); size is n for uniform and lower-bound (2n points)
    # and m for two-diagonals (2m points).
    schedule = [
        ("uniform", 512, 0.5), ("two-diagonals", 128, 0.25),
        ("lower-bound", 128, 0.5), ("max", 0, 0.5),
        ("uniform", 724, 0.25), ("two-diagonals", 181, 0.5),
        ("lower-bound", 181, 0.25), ("max", 1, 0.5),
        ("uniform", 1024, 0.5), ("two-diagonals", 256, 0.5),
        ("lower-bound", 256, 0.25), ("max", 2, 0.5),
        ("uniform", 1448, 0.25), ("uniform", 2048, 0.5),
    ]
    # Probes sit beside input points: box probes would land outside the
    # extremal families' hulls at a seed-dependent rate, and a NotInHull
    # witness is 25x faster than a found one.
    params = {"schedule": schedule, "probes": 24, "warmup_n": 1024,
              "fixed_cycles": 1}

    def __init__(self, seed: int):
        self.seed = seed
        self.warm = uniform_coords(cycle_rng(self.name, seed, "warmup"),
                                   self.params["warmup_n"])

    def setup(self, t: Timer):
        """A warm-up build, so lazy first-call costs are paid before timing
        starts."""
        ps = t.call(None, B.validate, self.warm)
        cover = t.call(None, B.build_cover, ps)
        t.call(None, B.build_hull, ps)
        t.call(None, B.disjoint_cover, ps)
        t.call(None, B.DepthIndex, ps, 0.5, cover)

    def cycle(self, k: int) -> list[Op]:
        rng = cycle_rng(self.name, self.seed, k)
        ops = []
        made = []       # point sets of this cycle; ("max", i, eps) reuses made[i]
        for family, size, eps in self.schedule:
            if family == "max":
                coords = made[size]
                ops.append(Op("max", len(coords), hash(tuple(coords)),
                              self._max_job(coords, eps)))
                continue
            coords = family_coords(rng, family, size)
            made.append(coords)
            probes = [near_query(rng, coords) for _ in range(self.params["probes"])]
            expect = size * size + 2 * size - 2 if family == "two-diagonals" else None
            ops.append(Op(f"index:{family}", len(coords), hash(tuple(coords)),
                          self._index_job(coords, eps, probes, expect,
                                          random.Random(rng.random()))))
        return ops

    @staticmethod
    def _index_job(coords, eps, probes, expect_edges, crng):
        def run(t):
            ps = t.call(None, B.validate, coords)
            cover = t.call(None, B.build_cover, ps)
            hull = t.call(None, B.build_hull, ps)
            dc = t.call(None, B.disjoint_cover, ps)
            ix = t.call(None, B.DepthIndex, ps, eps, cover)
            chk = C.PointChecker(coords)
            out = [lambda: C.check_cover(chk, ps, cover, crng, expect_edges=expect_edges),
                   lambda: C.check_disjoint_cover(chk, ps, hull, dc, crng)]
            for q in probes:
                d = _probe(t, chk, coords, ps, hull, q, out,
                           lambda q: B.query_depth(ix, q))
                out.append(lambda q=q, d=d: C.check_depth_approx(chk, q, d, eps))
            return out
        return run

    @staticmethod
    def _max_job(coords, eps):
        def run(t):
            ps = t.call(None, B.validate, coords)
            point, value = t.call(None, B.approx_max_depth, ps, eps)
            chk = C.PointChecker(coords)
            return [lambda: C.check_max_depth(chk, ps, point, value, eps)]
        return run


# ---------------------------------------------------------------------------
# cover-analysis: batch analytics on covers, no depth index


class CoverAnalysis:
    """Large compact covers, k-level and basic covers, the two maximum-depth
    searches and the independent-set approximation, plus a batch of exact
    depth queries against a cover built at set-up."""

    name = "cover-analysis"
    setup_repeats = 5
    schedule = [
        ("cover", "uniform", 16384), ("k1", "uniform", 1024),
        ("log-max", "uniform", 1024), ("exact-batch", "uniform", 10),
        ("basic", "uniform", 2048), ("mis", "uniform", 1024),
        ("cover", "uniform", 65536), ("exact-batch", "uniform", 10),
        ("k2", "uniform", 1448), ("log-max", "lower-bound", 256),
        ("mis", "lower-bound", 512), ("k3", "uniform", 2048),
        ("basic", "uniform", 4096),
    ]
    params = {"schedule": schedule, "batch_cover_n": 4096, "fixed_cycles": 1}

    def __init__(self, seed: int):
        self.seed = seed
        self.batch_coords = uniform_coords(cycle_rng(self.name, seed, "batch"),
                                           self.params["batch_cover_n"])
        self.batch = None

    def setup(self, t: Timer):
        """The cover and hull the exact-depth batches query."""
        self.batch = None
        ps = t.call(None, B.validate, self.batch_coords)
        cover = t.call(None, B.build_cover, ps)
        hull = t.call(None, B.build_hull, ps)
        self.batch = (ps, cover, hull)
        self.batch_chk = C.PointChecker(self.batch_coords)

    def cycle(self, k: int) -> list[Op]:
        rng = cycle_rng(self.name, self.seed, k)
        ops = []
        for job, family, size in self.schedule:
            crng = random.Random(rng.random())
            if job == "exact-batch":
                coords = self.batch_coords
                box = bbox(coords)
                qs = [near_query(rng, coords) if i % 2 else box_query(rng, box)
                      for i in range(size)]
                ops.append(Op(job, size, tuple(qs), self._batch_job(qs)))
                continue
            coords = family_coords(rng, family, size)
            ops.append(Op(f"{job}:{family}", len(coords), hash(tuple(coords)),
                          self._job(job, coords, crng)))
        return ops

    def _batch_job(self, qs):
        ps, cover, hull = self.batch
        coords, chk = self.batch_coords, self.batch_chk

        def run(t):
            out = []
            for q in qs:
                d = _probe(t, chk, coords, ps, hull, q, out,
                           lambda q: B.exact_depth_at(cover, ps, q))
                out.append(lambda q=q, d=d: C.check_exact_depth(chk, q, d))
            return out
        return run

    @staticmethod
    def _job(job, coords, crng):
        def run(t):
            ps = t.call(None, B.validate, coords)
            chk = C.PointChecker(coords)
            if job == "cover":
                cover = t.call(None, B.build_cover, ps)
                return [lambda: C.check_cover(chk, ps, cover, crng)]
            if job == "basic":
                cover = t.call(None, B.build_cover_basic, ps)
                return [lambda: C.check_cover(chk, ps, cover, crng)]
            if job in ("k1", "k2", "k3"):
                kk = int(job[1])
                cover = t.call(None, B.build_k_cover, ps, kk)
                return [lambda: C.check_cover(chk, ps, cover, crng, k=kk)]
            if job == "log-max":
                point, value = t.call(None, B.log_approx_max_depth, ps)
                return [lambda: C.check_log_max_depth(chk, ps, point, value)]
            if job == "mis":
                rects = t.call(None, B.approx_mis, ps)
                return [lambda: C.check_mis(chk, coords, rects)]
            raise ValueError(f"unknown job {job!r}")
        return run


WORKLOADS = {w.name: w for w in (QueryMix, IndexBuild, CoverAnalysis)}

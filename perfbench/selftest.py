"""Cross-checks the benchmark's independent checkers against boxrig.oracle
on small random instances.  Run: python3 perfbench/selftest.py"""

from __future__ import annotations

import dataclasses
import random
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from boxrig import oracle  # noqa: E402
from boxrig.boxhull import build_hull, disjoint_cover  # noqa: E402
from boxrig.geom import validate  # noqa: E402

import checks as C  # noqa: E402
import workloads as W  # noqa: E402


def instances(rng):
    for _ in range(40):
        n = rng.randrange(2, 40)
        yield list(zip(rng.sample(range(3 * n), n), rng.sample(range(3 * n), n)))
    for m in (2, 5, 9):
        yield W.relabel(rng, W.two_diagonals_coords(m))
        yield W.lower_bound_coords(m)


def _meet(a, b) -> bool:
    return (a.lo[0] < b.hi[0] and b.lo[0] < a.hi[0]
            and a.lo[1] < b.hi[1] and b.lo[1] < a.hi[1])


def disjoint_cases(rng, coords, ps, chk) -> str | None:
    """check_disjoint_cover accepts the real decomposition, and
    overlapping_pieces agrees with an all-pairs test on shifted copies."""
    dc = disjoint_cover(ps)
    why = C.check_disjoint_cover(chk, ps, build_hull(ps), dc, rng)
    if why is not None:
        return f"real disjoint cover rejected: {why}"
    for _ in range(10):
        pieces = list(dc.pieces)
        k, j = rng.randrange(len(pieces)), rng.randrange(len(pieces))
        dx, dy = rng.randrange(-2, 3), rng.randrange(-2, 3)
        src = pieces[j]
        pieces[k] = dataclasses.replace(
            src, lo=(src.lo[0] + dx, src.lo[1] + dy), hi=(src.hi[0] + dx, src.hi[1] + dy))
        want = any(_meet(a, b) for x, a in enumerate(pieces) for b in pieces[x + 1:])
        got = C.overlapping_pieces(pieces, block=rng.choice((1, 7, 1 << 20)))
        if (got is not None) != want or (got is not None and not _meet(*got)):
            return f"overlap test says {got}, all pairs say {want}"
    return None


def main() -> int:
    rng = random.Random(7)
    cases = 0
    for coords in instances(rng):
        ps = validate(coords)
        chk = C.PointChecker(coords)
        xs = sorted(c[0] for c in coords)
        ys = sorted(c[1] for c in coords)
        for _ in range(30):
            # integer, half-integer, on-line and outside points alike
            q = (Fraction(rng.randrange(2 * xs[0] - 2, 2 * xs[-1] + 3), 2),
                 Fraction(rng.randrange(2 * ys[0] - 2, 2 * ys[-1] + 3), 2))
            want = oracle.brute_depth(ps, q)
            got = chk.depth(q)
            if got != want:
                print(f"depth mismatch at {q}: {got} != {want} on {coords}")
                return 1
            cases += 1
        if ps.n >= 2:
            why = disjoint_cases(rng, coords, ps, chk)
            if why is not None:
                print(f"{why} on {coords}")
                return 1
            cases += 11
        for k in (0, 1, 2):
            edges = oracle.brute_k_rig(ps, k)
            for p in range(ps.n):
                want = sorted(b if a == p else a for a, b in edges.edges if p in (a, b))
                got = chk.partners(p, k).tolist()
                if got != want:
                    print(f"partners mismatch p={p} k={k}: {got} != {want}")
                    return 1
                cases += 1
    print(f"selftest ok: {cases} cases")
    return 0


if __name__ == "__main__":
    sys.exit(main())

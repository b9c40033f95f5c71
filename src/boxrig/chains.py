"""Staircase chains: the four extremal staircases of a point set, found in
one sweep over the x order, and a brute-force definition filter as their
test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from .geom import PointSet

MAX_DOM = "max-dominance"   # up-right frontier: x increasing, y decreasing
MIN_DOM = "min-dominance"   # down-left frontier: x increasing, y decreasing
MAX_ANTI = "max-anti"       # up-left frontier:  x increasing, y increasing
MIN_ANTI = "min-anti"       # down-right frontier: x increasing, y increasing

KINDS = (MAX_DOM, MIN_DOM, MAX_ANTI, MIN_ANTI)


@dataclass(frozen=True)
class Chain:
    ids: tuple
    kind: str


def maxima(ps: PointSet, kind: str) -> Chain:
    """Extremal staircase of the requested kind, one sweep over the x order."""
    if kind not in KINDS:
        raise ValueError(f"unknown chain kind {kind!r}")
    ys = ps.ys
    out: list[int] = []
    if kind == MAX_DOM:
        # right-to-left, keep points above everything to their right
        best = None
        for i in reversed(ps.by_x):
            if best is None or ys[i] > best:
                out.append(i)
                best = ys[i]
        out.reverse()
    elif kind == MIN_DOM:
        best = None
        for i in ps.by_x:
            if best is None or ys[i] < best:
                out.append(i)
                best = ys[i]
    elif kind == MAX_ANTI:
        best = None
        for i in ps.by_x:
            if best is None or ys[i] > best:
                out.append(i)
                best = ys[i]
    else:  # MIN_ANTI
        best = None
        for i in reversed(ps.by_x):
            if best is None or ys[i] < best:
                out.append(i)
                best = ys[i]
        out.reverse()
    return Chain(tuple(out), kind)


def maxima_bruteforce(ps: PointSet, kind: str) -> Chain:
    """O(n^2) definition-checking filter; test oracle for maxima()."""
    from .geom import anti_dominates, dominates
    keep = []
    for p in ps:
        if kind == MAX_DOM:
            bad = any(dominates(q, p) for q in ps if q.id != p.id)
        elif kind == MIN_DOM:
            bad = any(dominates(p, q) for q in ps if q.id != p.id)
        elif kind == MAX_ANTI:
            bad = any(anti_dominates(q, p) for q in ps if q.id != p.id)
        else:
            bad = any(anti_dominates(p, q) for q in ps if q.id != p.id)
        if not bad:
            keep.append(p.id)
    keep.sort(key=lambda i: ps.xs[i])
    return Chain(tuple(keep), kind)

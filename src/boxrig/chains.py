"""Staircase chains: the four extremal staircases of a point set, found in
one sweep over the x order, and a brute-force definition filter as their
test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geom import PointSet, coord_array

MAX_DOM = "max-dominance"   # up-right frontier: x increasing, y decreasing
MIN_DOM = "min-dominance"   # down-left frontier: x increasing, y decreasing
MAX_ANTI = "max-anti"       # up-left frontier:  x increasing, y increasing
MIN_ANTI = "min-anti"       # down-right frontier: x increasing, y increasing

KINDS = (MAX_DOM, MIN_DOM, MAX_ANTI, MIN_ANTI)


@dataclass(frozen=True)
class Chain:
    ids: tuple
    kind: str


# kind -> (running extreme, sweep from the right)
_SWEEPS = {MAX_DOM: (np.maximum, True), MIN_DOM: (np.minimum, False),
           MAX_ANTI: (np.maximum, False), MIN_ANTI: (np.minimum, True)}


def chain_ids(order: np.ndarray, yo: np.ndarray, kind: str) -> tuple:
    """Ids, in x order, of the chain of this kind: the points whose y is the
    running extreme of the x-ordered sweep.  ``order`` holds the ids in x
    order and ``yo`` their y values.  All y are distinct, so a point equals
    the extreme that includes it exactly when it sets a new one."""
    extreme, backward = _SWEEPS[kind]
    ys = yo[::-1] if backward else yo
    keep = np.flatnonzero(ys == extreme.accumulate(ys))
    if backward:
        keep = (len(ys) - 1 - keep)[::-1]
    return tuple(order[keep].tolist())


def maxima(ps: PointSet, kind: str) -> Chain:
    """Extremal staircase of the requested kind, one sweep over the x order."""
    if kind not in KINDS:
        raise ValueError(f"unknown chain kind {kind!r}")
    order = np.asarray(ps.by_x, dtype=np.intp)
    yo = coord_array([ps.ys[i] for i in ps.by_x])
    return Chain(chain_ids(order, yo, kind), kind)


def maxima_bruteforce(ps: PointSet, kind: str) -> Chain:
    """O(n^2) definition-checking filter; test oracle for maxima()."""
    from .geom import anti_dominates, dominates
    keep, pts = [], list(ps)
    for p in pts:
        if kind == MAX_DOM:
            bad = any(dominates(q, p) for q in pts if q.id != p.id)
        elif kind == MIN_DOM:
            bad = any(dominates(p, q) for q in pts if q.id != p.id)
        elif kind == MAX_ANTI:
            bad = any(anti_dominates(q, p) for q in pts if q.id != p.id)
        else:
            bad = any(anti_dominates(p, q) for q in pts if q.id != p.id)
        if not bad:
            keep.append(p.id)
    keep.sort(key=lambda i: ps.xs[i])
    return Chain(tuple(keep), kind)

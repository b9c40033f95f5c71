from boxrig.chains import (KINDS, MAX_ANTI, MAX_DOM, MIN_ANTI, MIN_DOM,
                           maxima, maxima_bruteforce)
from boxrig.geom import validate
from boxrig.lab import gen_lower_bound
from conftest import small_uniform, two_diagonals


def test_maxima_antichain_keeps_all(antichain3):
    assert maxima(antichain3, MAX_DOM).ids == (0, 1, 2)


def test_maxima_chain_keeps_last(chain3):
    assert maxima(chain3, MAX_DOM).ids == (2,)
    assert maxima(chain3, MIN_DOM).ids == (0,)
    assert maxima(chain3, MAX_ANTI).ids == (0, 1, 2)
    assert maxima(chain3, MIN_ANTI).ids == (0, 1, 2)


def test_maxima_matches_definition_filter():
    sets = [small_uniform(50, seed=1), two_diagonals(12), gen_lower_bound(10).ps,
            validate([(-x, y) for x, y in gen_lower_bound(9).ps.coords()]),
            validate([((1 << 70) + x, -(1 << 66) - y)
                      for x, y in small_uniform(40, seed=2).coords()]),
            validate([(7, -3)])]
    for ps in sets:
        for kind in KINDS:
            assert maxima(ps, kind).ids == maxima_bruteforce(ps, kind).ids


def test_maxima_monotonicity():
    ps = small_uniform(60, seed=9)
    for kind in KINDS:
        ch = maxima(ps, kind).ids
        xs = [ps.xs[i] for i in ch]
        ys = [ps.ys[i] for i in ch]
        assert xs == sorted(xs)
        dy = [b - a for a, b in zip(ys, ys[1:])]
        if kind in (MAX_DOM, MIN_DOM):
            assert all(d < 0 for d in dy)
        else:
            assert all(d > 0 for d in dy)

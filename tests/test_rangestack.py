import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxrig.rangestack import (NonMonotoneKey, RangeStack, StackUnderflow)


def forest_sizes(s: RangeStack):
    return [s._tree_size(t) for t in s.forest_ids()]


def ranks_of(s: RangeStack):
    return [s._t_rank[t] for t in s.forest_ids()]


def expand(s: RangeStack, answer):
    """Key-ordered (key, payload) pairs of a (canonical ids, elements)
    answer; both lists must come key-ascending."""
    canons, elems = answer
    out = [kp for cid in canons for kp in s.canonical_elements(cid)]
    assert out == sorted(out) and elems == sorted(elems)
    return sorted(out + elems)


def parts(answer):
    canons, elems = answer
    return len(canons) + len(elems)


class ShadowScript:
    """Replay oracle: every element records its push/pop step; the content
    at step t is reconstructed independently of the forest machinery."""

    def __init__(self):
        self.keys = []
        self.payloads = []
        self.push_step = []
        self.pop_step = []
        self.live = []  # indices of currently live elements, bottom->top

    def push(self, key, payload, step):
        self.keys.append(key)
        self.payloads.append(payload)
        self.push_step.append(step)
        self.pop_step.append(math.inf)
        self.live.append(len(self.keys) - 1)

    def pop(self, k, step):
        for idx in self.live[len(self.live) - k:]:
            self.pop_step[idx] = step
        del self.live[len(self.live) - k:]

    def content_at(self, t, lo=-math.inf, hi=math.inf):
        return [(self.keys[i], self.payloads[i]) for i in range(len(self.keys))
                if self.push_step[i] <= t < self.pop_step[i]
                and lo <= self.keys[i] <= hi]


def run_script(n, seed, buffered=False, pop_bias=0.35):
    rng = random.Random(seed)
    s = RangeStack(n, buffered=buffered)
    shadow = ShadowScript()
    key = 0
    for _ in range(n):
        if s.size and rng.random() < pop_bias:
            k = rng.randint(1, s.size) if rng.random() < 0.3 else 1
            t = s.pop(k)
            shadow.pop(k, t)
        else:
            key += rng.randint(1, 3)
            t = s.push(key, key * 7)
            shadow.push(key, key * 7, t)
    return s, shadow, key


def test_push_four_forest_shape():
    s = RangeStack(16)
    for k in range(4):
        s.push(k)
    assert forest_sizes(s) == [2, 1, 1]


def test_push_one():
    s = RangeStack(16)
    s.push(5)
    assert forest_sizes(s) == [1]
    assert ranks_of(s) == [0]


def test_push_equal_key_rejected():
    s = RangeStack(16)
    s.push(5)
    with pytest.raises(NonMonotoneKey):
        s.push(5)


def test_popped_keys_may_reenter():
    s = RangeStack(16)
    for k in (1, 2, 3):
        s.push(k)
    s.pop(2)
    s.push(2)  # above the new top, fine
    with pytest.raises(NonMonotoneKey):
        s.push(1)
    assert [k for k, _ in expand(s, s.report_at_time(s.step, 0, 9))] == [1, 2]


def test_pop_examples():
    s = RangeStack(16)
    for k in range(4):
        s.push(k)
    s.pop(1)
    assert forest_sizes(s) == [2, 1]
    s.pop(s.size)
    assert forest_sizes(s) == []
    before = s.step
    s.pop(0)
    assert s.step == before + 1  # no-op still records a version


def test_pop_underflow():
    s = RangeStack(16)
    s.push(1)
    with pytest.raises(StackUnderflow):
        s.pop(2)


def test_invariants_after_every_op():
    s, _, _ = run_script(300, seed=2)
    # exercised as a property below; spot-check final state here
    r = ranks_of(s)
    assert r == sorted(r, reverse=True)
    assert all(r.count(v) <= 2 for v in set(r))


@given(st.integers(0, 10_000), st.booleans())
@settings(max_examples=25, deadline=None)
def test_rank_invariants_random_scripts(seed, buffered):
    rng = random.Random(seed)
    s = RangeStack(64, buffered=buffered)
    key = 0
    for _ in range(64):
        if s.size and rng.random() < 0.4:
            s.pop(rng.randint(1, s.size))
        else:
            key += 1
            s.push(key)
        r = ranks_of(s)
        assert r == sorted(r, reverse=True)
        assert all(r.count(v) <= 2 for v in set(r))
        assert s.size == sum(forest_sizes(s)) + s._buffer_len


def test_report_full_tree_of_8():
    s = RangeStack(16)
    for k in range(1, 9):
        s.push(k)
    rep = s.report_at_time(s.step, 3, 6)
    assert [k for k, _ in expand(s, rep)] == [3, 4, 5, 6]
    assert parts(rep) <= 5  # 2*height - 1 with height 3


def test_report_full_range_returns_roots():
    s = RangeStack(16)
    for k in range(1, 9):
        s.push(k)
    assert s.report_at_time(s.step, 1, 8) == (s.forest_ids(), [])


@pytest.mark.parametrize("buffered", [False, True])
def test_suffix_at_matches_report(buffered):
    s, shadow, maxkey = run_script(400, seed=21, buffered=buffered)
    rng = random.Random(3)
    for _ in range(200):
        t = rng.randint(0, s.step)
        lo = rng.randint(-2, maxkey + 2)
        got = s.suffix_at(t, lo)
        assert expand(s, got) == shadow.content_at(t, lo + 1, math.inf)
        # integer keys: the open suffix is the closed range from lo + 1
        assert got == s.report_at_time(t, lo + 1, maxkey)


@pytest.mark.parametrize("buffered", [False, True])
def test_report_matches_shadow_randomized(buffered):
    s, shadow, maxkey = run_script(500, seed=9, buffered=buffered)
    rng = random.Random(1)
    for _ in range(300):
        lo = rng.randint(-2, maxkey + 2)
        hi = rng.randint(lo, maxkey + 3)
        rep = s.report_at_time(s.step, lo, hi)
        assert expand(s, rep) == shadow.content_at(s.step, lo, hi)


@pytest.mark.parametrize("buffered", [False, True])
def test_report_at_time_matches_shadow(buffered):
    s, shadow, maxkey = run_script(600, seed=4, buffered=buffered)
    rng = random.Random(2)
    for _ in range(400):
        t = rng.randint(0, s.step)
        lo = rng.randint(-2, maxkey + 2)
        hi = rng.randint(lo, maxkey + 3)
        rep = s.report_at_time(t, lo, hi)
        assert expand(s, rep) == shadow.content_at(t, lo, hi)


@pytest.mark.parametrize("buffered", [False, True])
def test_reads_reject_steps_outside_the_history(buffered):
    s = RangeStack(16, buffered=buffered)
    for key in range(1, 6):
        s.push(key)
    assert s.step == 5
    for t in (-1, -6, 6, 100):
        with pytest.raises(IndexError, match=rf"step {t} outside \[0, 5\]"):
            s.report_at_time(t, 0, 9)
        with pytest.raises(IndexError, match=rf"step {t} outside \[0, 5\]"):
            s.suffix_at(t, 0)
    assert s.suffix_at(0, 0) == ([], [])
    assert expand(s, s.report_at_time(5, 0, 9)) == [(k, None) for k in range(1, 6)]


def test_report_at_current_equals_report():
    # the version the last step recorded is the live forest and buffer
    s, _, maxkey = run_script(200, seed=6, buffered=True)
    live = [kp for cid in s.forest_ids() for kp in s.canonical_elements(cid)]
    live += s.buffer_items()
    rep = s.report_at_time(s.step, 3, maxkey)
    assert expand(s, rep) == [kp for kp in live if kp[0] >= 3]


def test_persistence_pop_then_query_past():
    s = RangeStack(16)
    ta = s.push(1, "a")
    tb = s.push(2, "b")
    s.pop(1)
    rep = s.report_at_time(tb, 1, 5)
    assert [p for _, p in expand(s, rep)] == ["a", "b"]
    rep = s.report_at_time(s.step, 1, 5)
    assert [p for _, p in expand(s, rep)] == ["a"]
    assert ta == 1


def test_mutation_never_changes_history():
    s, shadow, maxkey = run_script(300, seed=13)
    frozen = [(t, expand(s, s.report_at_time(t, 0, maxkey)))
              for t in range(0, s.step, 17)]
    key = maxkey
    for _ in range(100):
        key += 1
        s.push(key)
        if s.size > 3:
            s.pop(3)
    for t, expect in frozen:
        assert expand(s, s.report_at_time(t, 0, maxkey)) == expect


def test_buffered_flush_rule_n256():
    s = RangeStack(256, buffered=True)
    assert s.tau == 24 and s.block == 8
    for k in range(1, 25):
        s.push(k)
    assert s.created_count == 0
    assert s._buffer_len == 24
    s.push(25)
    assert s.created_count == 1  # 25th push flushed the 8 oldest
    assert s._buffer_len == 17
    assert s.canonical_payloads(0) == [None] * 8
    assert forest_sizes(s) == [8]


def test_buffered_small_scripts_make_no_canonicals():
    s = RangeStack(256, buffered=True)
    assert s.tau == RangeStack.buffer_limit(256)
    for k in range(s.tau):
        s.push(k, -k)
    assert s.created_count == 0
    # the compact cover walks chain links in place of such a stack
    assert s.suffix_at(s.step, 9) == ([], [(k, -k) for k in range(10, s.tau)])


def test_buffered_canonical_sizes_at_least_block():
    s, _, _ = run_script(2000, seed=3, buffered=True)
    for cid in range(s.created_count):
        assert len(s.canonical_payloads(cid)) >= s.block


@pytest.mark.parametrize("buffered", [False, True])
def test_canonical_columns_hold_each_tree_run(buffered):
    # the cover builds slice every created tree's payloads off these columns
    s, _, _ = run_script(1500, seed=5, buffered=buffered, pop_bias=0.1)
    payloads, starts = s.canonical_columns()
    ends = starts[1:] + [len(payloads)]
    assert s.created_count > 0
    assert [payloads[a:b] for a, b in zip(starts, ends)] == [
        s.canonical_payloads(cid) for cid in range(s.created_count)]


def test_buffered_noncanonical_count_bound():
    n = 4096
    s, _, _ = run_script(n, seed=8, buffered=True, pop_bias=0.3)
    assert s.created_count <= 4 * n / math.log2(n)


def numpy_replay_oracle(shadow):
    keys = np.array(shadow.keys, dtype=np.int64)
    push = np.array(shadow.push_step, dtype=np.float64)
    pop = np.array(shadow.pop_step, dtype=np.float64)

    def query(t, lo, hi):
        i = np.searchsorted(keys, lo, side="left")
        j = np.searchsorted(keys, hi, side="right")
        mask = (push[i:j] <= t) & (t < pop[i:j])
        return keys[i:j][mask].tolist()

    return query


@pytest.mark.parametrize("n", [1000, 10_000])
def test_amortized_bounds_and_replay(n):
    s, shadow, maxkey = run_script(n, seed=5)
    logn = math.log2(n)
    assert s.created_count <= 4 * n
    assert s.created_weight <= 4 * n * logn
    oracle = numpy_replay_oracle(shadow)
    rng = random.Random(7)
    for _ in range(300):
        t = rng.randint(0, s.step)
        lo = rng.randint(-2, maxkey + 2)
        hi = rng.randint(lo, maxkey + 3)
        rep = s.report_at_time(t, lo, hi)
        assert parts(rep) <= 4 * logn
        assert [k for k, _ in expand(s, rep)] == oracle(t, lo, hi)


def monotone_script(n, seed):
    """Strictly increasing keys with pop counts that stay within the stack,
    long enough runs to flush blocks and deep enough pops to re-buffer."""
    rng = random.Random(seed)
    keys, payloads, pops = [], [], []
    key = size = 0
    for _ in range(n):
        key += rng.randint(1, 3)
        c = rng.randint(0, size) if rng.random() < 0.01 else \
            min(size, rng.choice((0, 0, 0, 1, 2)))
        size += 1 - c
        keys.append(key)
        payloads.append(-key)
        pops.append(c)
    return keys, payloads, pops


@pytest.mark.parametrize("n,seed", [(64, 0), (300, 1), (2000, 2)])
def test_monotone_script_matches_replace_top_replay(n, seed):
    keys, payloads, pops = monotone_script(n, seed)
    bulk = RangeStack(n, buffered=True)
    twin = RangeStack(n, buffered=True)
    bulk.push(0, "base")
    twin.push(0, "base")
    steps = bulk.run_monotone_script(keys, payloads, pops)
    assert steps == [twin.replace_top(c, k, p)
                     for k, p, c in zip(keys, payloads, pops)]
    assert steps == list(range(2, n + 2))
    assert bulk.created_count == twin.created_count > 0
    rng = random.Random(seed)
    for t in range(bulk.step + 1):
        assert bulk.forest_ids(t) == twin.forest_ids(t)
        assert bulk.buffer_items(t) == twin.buffer_items(t)
        lo = rng.randint(-1, keys[-1])
        for q in ((lo, rng.randint(lo, keys[-1] + 1)), (-1, keys[-1])):
            assert bulk.report_at_time(t, *q) == twin.report_at_time(t, *q)


def test_monotone_script_checks_keys_against_the_script():
    s = RangeStack(64, buffered=True)
    s.push(10)
    with pytest.raises(NonMonotoneKey):
        s.run_monotone_script([10], [None], [1])   # not above the live top
    # 5 is popped by the next arrival, which a plain replace_top would accept
    with pytest.raises(NonMonotoneKey):
        RangeStack(64, buffered=True).run_monotone_script(
            [5, 3], [None, None], [0, 1])
    with pytest.raises(ValueError):
        RangeStack(64).run_monotone_script([1], [None], [0])


@pytest.mark.parametrize("keys,payloads,pops,error", [
    ([1, 2, 3], [None, None], [0, 0, 0], ValueError),       # a payload short
    ([1, 2, 3], [None] * 3, [0, 0], ValueError),            # a pop count short
    ([1, 5, 3], [None] * 3, [0, 0, 1], NonMonotoneKey),     # a key falls
    ([1, 2, 3], [None] * 3, [0, 0, 4], StackUnderflow),     # pops past the bottom
    ([1, 2], [None] * 2, [0, -1], StackUnderflow),
])
def test_failed_script_leaves_the_stack_as_it_was(keys, payloads, pops, error):
    s = RangeStack(64, buffered=True)
    s.push(0, "base")
    with pytest.raises(error):
        s.run_monotone_script(keys, payloads, pops)
    assert (s.step, s.size, s.buffer_items()) == (1, 1, [(0, "base")])
    # the stack takes a good script afterwards
    assert s.run_monotone_script([1, 2], [None, None], [1, 0]) == [2, 3]
    assert s.buffer_items() == [(1, None), (2, None)]

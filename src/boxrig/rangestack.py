"""Stack over key-increasing elements with historical range reporting.

A lazy Bentley-Saxe forest of perfect trees backs the stack: pushes append
rank-0 trees and cascade-merge whenever three trees share a rank (two per
rank are allowed; the laziness is what keeps pops cheap), pops reuse
previously built subtrees by handle, and every created tree is registered as
an immutable canonical set.  A range report is one top-down walk over a
version: it answers O(log n) canonical ids plus at most two partial runs
(and, buffered, explicit buffer elements).  A version is recorded after every
operation, so reports can be answered against any past step; forest and
buffer are immutable cons chains, making each version O(1) amortized space.

The buffered variant keeps up to tau incoming singletons in a FIFO buffer
and flushes the oldest ceil(log2 n) of them into one canonical block when
the buffer overflows, so every canonical set has at least logarithmic size.
The buffer is the persistent chain alone: a flush reads its oldest block off
the chain and rebuilds the rest, O(tau) like the flush itself.

Every arrival (push, replace_top, each entry of run_monotone_script) is one
private step: pop a count, push one element, record the version.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right


class NonMonotoneKey(ValueError):
    """Pushed key does not strictly exceed every key currently stored."""


class StackUnderflow(ValueError):
    """pop(k) asked for more elements than the stack holds."""


class RangeStack:
    """See module docstring.  ``capacity`` sizes the buffer: tau is
    3*ceil(log2 capacity) and blocks hold ceil(log2 capacity) elements; the
    unbuffered variant uses single-element blocks and no buffer."""

    __slots__ = ("block", "tau", "buffered", "_ekeys", "_epayload",
                 "_t_rank", "_t_start", "_t_orig",
                 "_fhead", "_bhead", "_buffer_len", "_size",
                 "_top", "_v_forest", "_v_buffer", "_v_size")

    def __init__(self, capacity: int, buffered: bool = False):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.block = max(1, (capacity - 1).bit_length()) if buffered else 1
        self.tau = self.buffer_limit(capacity) if buffered else 0
        self.buffered = buffered
        # canonical element storage: one contiguous run per created tree
        self._ekeys: list = []
        self._epayload: list = []
        # created trees (canonical sets)
        self._t_rank: list[int] = []   # block-level rank; size = (1<<rank)*block
        self._t_start: list[int] = []
        # origin tree ids of the two copied halves, for merged trees only
        self._t_orig: dict[int, tuple[int, int]] = {}
        # live state (immutable chains; mutation rebinds the heads)
        self._fhead: tuple | None = None          # (tree_id, next), top first
        self._bhead: tuple | None = None          # (key, payload, next), newest first
        self._buffer_len = 0
        self._size = 0
        self._top = None
        # history, three parallel arrays; index 0 is the empty initial state
        self._v_forest: list = [None]
        self._v_buffer: list = [None]
        self._v_size: list[int] = [0]

    @staticmethod
    def buffer_limit(capacity: int) -> int:
        """tau of a buffered stack of this capacity.  The buffer flushes a
        block only when it holds more than tau elements, so a stack whose
        size never exceeds tau has no canonical sets and suffix_at answers
        from the buffer alone: the live elements above the cut, in key
        order."""
        return 3 * max(1, (capacity - 1).bit_length())

    # -- basic accessors ----------------------------------------------------

    @property
    def size(self) -> int:
        return self._size

    @property
    def step(self) -> int:
        return len(self._v_size) - 1

    @property
    def created_count(self) -> int:
        return len(self._t_rank)

    @property
    def created_weight(self) -> int:
        return len(self._ekeys)

    def forest_ids(self, t: int | None = None) -> list[int]:
        """Tree handles bottom -> top at step t (default: current)."""
        head = self._fhead if t is None else self._v_forest[t]
        out = []
        while head is not None:
            out.append(head[0])
            head = head[1]
        out.reverse()
        return out

    def buffer_items(self, t: int | None = None) -> list:
        """Buffer (key, payload) pairs oldest -> newest at step t."""
        head = self._bhead if t is None else self._v_buffer[t]
        out = []
        while head is not None:
            out.append((head[0], head[1]))
            head = head[2]
        out.reverse()
        return out

    def canonical_elements(self, cid: int) -> list:
        s = self._t_start[cid]
        e = s + self._tree_size(cid)
        return list(zip(self._ekeys[s:e], self._epayload[s:e]))

    def canonical_payloads(self, cid: int) -> list:
        s = self._t_start[cid]
        return self._epayload[s:s + self._tree_size(cid)]

    def canonical_columns(self) -> tuple[list, list]:
        """(payloads, starts) of the created trees.  Each tree copies its
        run to the end of the storage when it is created, so tree cid holds
        payloads[starts[cid]:starts[cid + 1]], the last one up to the end."""
        return self._epayload, self._t_start

    def _tree_size(self, tid: int) -> int:
        return (1 << self._t_rank[tid]) * self.block

    # -- tree creation ------------------------------------------------------

    def _merge(self, a: int, b: int) -> int:
        """Deep-copy both halves into a fresh canonical run; the new tree's
        internal nodes share content with the originals via origin links."""
        ek, ep, starts, ranks = self._ekeys, self._epayload, self._t_start, self._t_rank
        sa, sb = starts[a], starts[b]
        z = self.block << ranks[a]          # both halves have a's rank
        starts.append(len(ek))
        ek += ek[sa:sa + z] + ek[sb:sb + z]
        ep += ep[sa:sa + z] + ep[sb:sb + z]
        ranks.append(ranks[a] + 1)
        self._t_orig[len(ranks) - 1] = (a, b)
        return len(ranks) - 1

    def _insert_tree(self, tid: int):
        """Append a rank-0 tree on top, then merge the two trees below the
        cascade point while three consecutive ranks coincide."""
        ranks = self._t_rank
        head = self._fhead
        spine = []
        cur = tid
        while head is not None:
            below = head[1]
            if below is None:
                break
            r = ranks[cur]
            if ranks[head[0]] != r or ranks[below[0]] != r:
                break
            m = self._merge(below[0], head[0])
            head = below[1]
            spine.append(cur)
            cur = m
        head = (cur, head)
        for t in reversed(spine):
            head = (t, head)
        self._fhead = head

    # -- operations ---------------------------------------------------------

    def push(self, key, payload=None) -> int:
        """Append an element; its key must strictly exceed every key still
        in the stack (pops lower the bar, so popped keys may be re-entered).
        Returns the step index of this operation."""
        return self._arrive(0, key, payload)

    def run_monotone_script(self, keys, payloads, popcounts) -> list[int]:
        """Bulk arrivals for the buffered variant: for each i, pop
        popcounts[i] elements then push keys[i] (one recorded step per
        arrival, as replace_top).  Keys must be strictly increasing.
        Returns the step index of every arrival."""
        if not self.buffered:
            raise ValueError("bulk scripts are a buffered-variant fast path")
        arrive = self._arrive
        prev = self._top if self._size else None
        out: list[int] = []
        for i in range(len(keys)):
            k = keys[i]
            if prev is not None and k <= prev:
                raise NonMonotoneKey(f"key {k!r} <= previous {prev!r}")
            prev = k
            out.append(arrive(popcounts[i], k, payloads[i]))
        return out

    def replace_top(self, count: int, key, payload=None) -> int:
        """Pop `count` elements, then push one, recorded as a single step:
        the combined arrival event of a point that dominates `count` chain
        elements.  Equivalent to pop(count) followed by push(key, payload)
        except that only the final state is recorded.  This is the one
        arrival step (``_arrive``), so push and the bulk scripts share it;
        returns its step index."""
        if count:
            self._pop_body(count)
        if self._size and key <= self._top:
            raise NonMonotoneKey(f"key {key!r} <= current top {self._top!r}")
        self._top = key
        if self.buffered:
            self._bhead = (key, payload, self._bhead)
            self._buffer_len += 1
            if self._buffer_len > self.tau:
                self._flush()
        else:
            # a rank-0 tree of its own (this is the arrival of every
            # unbuffered build), cascading only when the two trees below it
            # have rank 0 too
            ek, ranks = self._ekeys, self._t_rank
            ek.append(key)
            self._epayload.append(payload)
            tid = len(ranks)
            ranks.append(0)
            self._t_start.append(len(ek) - 1)
            head = self._fhead
            if head is None or head[1] is None or ranks[head[0]] or ranks[head[1][0]]:
                self._fhead = (tid, head)
            else:
                self._insert_tree(tid)
        self._size += 1
        self._v_forest.append(self._fhead)
        self._v_buffer.append(self._bhead)
        vs = self._v_size
        vs.append(self._size)
        return len(vs) - 1

    _arrive = replace_top       # the untraced name the other arrivals call

    def _flush(self):
        """Move the oldest `block` buffer elements into one canonical block.
        The chain is newest first, so the elements that stay are re-linked."""
        nodes = []
        node = self._bhead
        while node is not None:
            nodes.append(node)
            node = node[2]
        keep = len(nodes) - self.block
        for k, p, _ in reversed(nodes[keep:]):
            self._ekeys.append(k)
            self._epayload.append(p)
        head = None
        for k, p, _ in reversed(nodes[:keep]):
            head = (k, p, head)
        self._bhead = head
        self._buffer_len = keep
        self._t_rank.append(0)          # a rank-0 tree over the block
        self._t_start.append(len(self._ekeys) - self.block)
        self._insert_tree(len(self._t_rank) - 1)

    def pop(self, k: int) -> int:
        """Remove the top k elements; O(log n) plus any block re-buffering."""
        if k:
            self._pop_body(k)
        self._v_forest.append(self._fhead)
        self._v_buffer.append(self._bhead)
        vs = self._v_size
        vs.append(self._size)
        return len(vs) - 1

    def _pop_body(self, k: int):
        if k < 0 or k > self._size:
            raise StackUnderflow(f"pop({k}) from stack of size {self._size}")
        remaining = k
        if remaining and self._buffer_len:
            drop = self._buffer_len if self._buffer_len < remaining else remaining
            node = self._bhead
            for _ in range(drop):
                node = node[2]
            self._bhead = node
            self._buffer_len -= drop
            remaining -= drop
        head = self._fhead
        ranks, block = self._t_rank, self.block
        while remaining:
            z = block << ranks[head[0]]
            if remaining < z:
                break
            remaining -= z
            head = head[1]
        if remaining:
            tid = head[0]
            head = head[1]
            kb, rem = divmod((block << ranks[tid]) - remaining, block)
            for t in self._prefix_subtrees(tid, kb):
                head = (t, head)
            if rem:
                # re-buffer the partial block; everything above it was popped
                s = self._t_start[tid] + kb * self.block
                bh = None
                for i in range(s, s + rem):
                    bh = (self._ekeys[i], self._epayload[i], bh)
                self._bhead = bh
                self._buffer_len = rem
        self._fhead = head
        self._size -= k
        if not self._size:
            self._top = None
        elif self._bhead is not None:
            self._top = self._bhead[0]
        else:
            tid = head[0]
            self._top = self._ekeys[self._t_start[tid] + (block << ranks[tid]) - 1]

    def _origin(self, tid: int, block_off: int, rank: int) -> int:
        """Tree id whose run equals the subtree at (block_off, rank) of tid."""
        ranks, orig = self._t_rank, self._t_orig
        while ranks[tid] > rank:
            half = 1 << (ranks[tid] - 1)
            if block_off < half:
                tid = orig[tid][0]
            else:
                block_off -= half
                tid = orig[tid][1]
        return tid

    def _prefix_subtrees(self, tid: int, kb: int) -> list[int]:
        """Previously-created subtrees covering the first kb blocks of tid,
        ranks strictly decreasing (bottom -> top order)."""
        out = []
        off = 0
        for rank in range(self._t_rank[tid] - 1, -1, -1):
            if kb >> rank & 1:
                out.append(self._origin(tid, off, rank))
                off += 1 << rank
        return out

    # -- reporting ----------------------------------------------------------

    def report_at_time(self, t: int, lo, hi) -> tuple[list, list]:
        """(canonical ids, explicit (key, payload) pairs) of the elements
        with key in [lo, hi] at step t, both key-ascending."""
        return self._walk(t, lo, hi, False)

    def suffix_at(self, t: int, lo_exclusive) -> tuple[list, list]:
        """The same answer for the elements with key > lo_exclusive: the
        quadrant query of the cover builds."""
        return self._walk(t, lo_exclusive, None, True)

    def _walk(self, t: int, lo, hi, strict_lo: bool) -> tuple[list, list]:
        """One top-down walk over version t: skip what lies above hi (None:
        no upper bound), take whole trees, split at most two boundary trees
        and stop below lo.  Collects key-descending, returns ascending."""
        canons: list[int] = []
        elems: list = []
        node = self._v_buffer[t]
        while node is not None:
            key = node[0]
            if key < lo or strict_lo and key == lo:
                break
            if hi is None or key <= hi:
                elems.append((key, node[1]))
            node = node[2]
        # a walk that stops inside the buffer has the whole forest below lo
        head = self._v_forest[t] if node is None else None
        ek, starts, ranks = self._ekeys, self._t_start, self._t_rank
        block = self.block
        while head is not None:
            tid, head = head
            s = starts[tid]
            first = ek[s]
            if hi is not None and first > hi:
                continue                    # above the range
            in_lo = first > lo or first == lo and not strict_lo
            if in_lo and (hi is None or ek[s + (block << ranks[tid]) - 1] <= hi):
                canons.append(tid)          # inside the range
                continue
            if not in_lo:
                last = ek[s + (block << ranks[tid]) - 1]
                if last < lo or strict_lo and last == lo:
                    break                   # below lo, as is every tree under it
            part_canons, part_elems = [], []
            self._decompose(tid, lo, hi, strict_lo, part_canons, part_elems)
            canons.extend(reversed(part_canons))
            elems.extend(reversed(part_elems))
            if not in_lo:
                break
        canons.reverse()
        elems.reverse()
        return canons, elems

    def _decompose(self, tid: int, lo, hi, strict_lo: bool, canons: list,
                   elems: list):
        """Boundary tree: partial blocks go out explicitly, aligned full
        blocks as canonical subtree ids (<= 2*rank of them), key-ascending."""
        ek, ep = self._ekeys, self._epayload
        s = self._t_start[tid]
        z = self._tree_size(tid)
        i = (bisect_right if strict_lo else bisect_left)(ek, lo, s, s + z) - s
        j = z if hi is None else bisect_right(ek, hi, s, s + z) - s
        if i >= j:
            return
        block = self.block
        bi, ri = divmod(i, block)
        bj, rj = divmod(j, block)
        if bi == bj:
            elems.extend(zip(ek[s + i:s + j], ep[s + i:s + j]))
            return
        if ri:
            e = s + (bi + 1) * block
            elems.extend(zip(ek[s + i:e], ep[s + i:e]))
            bi += 1
        self._aligned_nodes(tid, bi, bj, canons)
        if rj:
            b0 = s + bj * block
            elems.extend(zip(ek[b0:s + j], ep[b0:s + j]))

    def _aligned_nodes(self, tid: int, blo: int, bhi: int, canons: list):
        """Canonical cover of full-block range [blo, bhi) inside tid; the
        emitted handles are the origin trees the copies were made from,
        left to right."""
        orig = self._t_orig
        todo = [(0, self._t_rank[tid], tid)]   # (block offset, rank, origin)
        while todo:
            off, rank, origin = todo.pop()
            end = off + (1 << rank)
            if blo <= off and end <= bhi:
                canons.append(origin)
            elif off < bhi and blo < end:
                half = 1 << (rank - 1)
                lo_half, hi_half = orig[origin]
                todo.append((off + half, rank - 1, hi_half))
                todo.append((off, rank - 1, lo_half))

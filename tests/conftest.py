import heapq
import math
import os
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from hfsac import (
    CoderParams,
    CorruptStreamError,
    FullMachine,
    GrayImage,
    NonEmittingCycleError,
    ReducedMachine,
    SplitMix64,
    TruncatedStreamError,
    WrongKeyError,
    attach_tables,
    bernoulli_bits,
    build_full_fsm,
    reduce_machine,
    swap_codeword,
)
from hfsac import prefix
from hfsac.crypto import TAG_JUMP, TAG_STATE, TAG_SWAP

# child processes that run the package (`python -m hfsac.cli`) find it where
# pytest's `pythonpath` setting finds it
_PATH = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, _PATH))

# parameter grid shared by the property suites: every (n, p0_num, f_max)
# combination the package promises to handle well
SWEEP = [
    (n, p0, fm)
    for n in range(3, 9)
    for p0 in sorted({1, int(0.2 * (1 << n)), int(0.44 * (1 << n)), 1 << (n - 1)})
    for fm in (1, 3)
]


class ReferenceSplitMix:
    """Scalar splitmix64 written from its definition (Steele, Lea & Flood,
    OOPSLA 2014), independent of the package's kernels: a substream's
    state, its next draw, and the jump and swap draws made of it."""

    def __init__(self, state: int):
        self.state = state

    def next(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) % 2**64
        z = self.state
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 % 2**64
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB % 2**64
        return z ^ (z >> 31)

    def below(self, m: int) -> int:
        return self.next() % m

    def jumps(self, q: int) -> bool:
        return self.next() >> 56 < q


def reference_streams(ks):
    """The jump, target and swap substreams of the schedule `ks`."""
    tags = (TAG_JUMP, TAG_STATE, TAG_SWAP)
    return tuple(ReferenceSplitMix(ks.substream(t).state) for t in tags)


def rand_bits(seed: int, n: int, p_zero: float = 0.5) -> str:
    return bernoulli_bits(SplitMix64(seed), n, p_zero)


def full_from_rows(params, states, edges) -> FullMachine:
    """A hand-written full machine as the builder's columns: (low, high,
    follow) per state and (emitted bits, target) per edge, edge 2*s + symbol."""
    low, high, follow = zip(*states)
    emitted, target = zip(*edges)
    return FullMachine(
        params, low, high, follow, target,
        [len(e) for e in emitted], [int(e or "0", 2) for e in emitted],
    )


def reduced_from_rows(params, rows, origin) -> ReducedMachine:
    """A hand-written reduced machine as the reducer's columns: per-state
    tuples of `ReducedTransition`s and one origin triple per state."""
    flat = [t for row in rows for t in row]
    return ReducedMachine(
        params,
        [len(row) for row in rows],
        [len(t.input_block) for t in flat],
        [int(b) for t in flat for b in t.input_block],
        [len(t.output_bits) for t in flat],
        [int(t.output_bits or "0", 2) for t in flat],
        [t.to for t in flat],
        origin,
    )


def reference_full_fsm(params) -> FullMachine:
    """`build_full_fsm` as a scalar BFS: the queue is the state columns
    themselves, read as they grow, and a dict numbers each new state as it
    is first met, in (parent, edge) order.  Each edge splits its parent
    and renormalizes with the coder's doubling rules written out here,
    its emitted bits carried as (length, value); a state is keyed by one
    int: low, then high (n_bits + 1 bits), then follow (4 bits).
    """
    n, p0, f_max = params.n_bits, params.p0_num, params.f_max
    half = 1 << (n - 1)
    quarter = half >> 1
    three_quarter = half + quarter
    low, high, follow = [0], [1 << n], [0]
    index = {(1 << n) << 4: 0}
    target: list[int] = []
    emit_len: list[int] = []
    emit_val: list[int] = []
    for lo, hi, fo in zip(low, high, follow):  # the BFS queue: grows as it is read
        s = min(max(lo + (((hi - lo) * p0) >> n), lo + 1), hi - 1)
        for rl, rh in ((lo, s), (s, hi)):
            rf, length, value = fo, 0, 0
            while True:
                if rh <= half:
                    length += rf + 1
                    value = (value << (rf + 1)) | ((1 << rf) - 1)  # 0 then rf ones
                    rf = 0
                    rl, rh = rl * 2, rh * 2
                elif rl >= half:
                    length += rf + 1
                    value = ((value << 1) | 1) << rf  # 1 then rf zeros
                    rf = 0
                    rl, rh = (rl - half) * 2, (rh - half) * 2
                elif rl >= quarter and rh <= three_quarter and rf < f_max:
                    rf += 1
                    rl, rh = (rl - quarter) * 2, (rh - quarter) * 2
                else:
                    break
            key = (((rl << (n + 1)) | rh) << 4) | rf
            to = index.setdefault(key, len(low))
            if to == len(low):
                low.append(rl)
                high.append(rh)
                follow.append(rf)
            target.append(to)
            emit_len.append(length)
            emit_val.append(value)
    return FullMachine(params, low, high, follow, target, emit_len, emit_val)


def reference_reduce(machine) -> ReducedMachine:
    """`reduce_machine` by a depth-first walk of each reduced state's parse
    tree, one state at a time from a BFS queue.

    An emitting edge ends a row, a mute edge continues the block into its
    successor's two edges; the stack pops the 0 edge first, so the rows come
    out in parse-tree order and their targets are numbered as they come. A
    row's block, the bits read along its chain, is appended to one
    bytearray as 0/1 bytes. A state met again on the chain being walked is
    a non-emitting cycle.
    """
    target = machine.target.tolist()
    mute = (machine.emit_len == 0).tolist()
    numbered = bytearray(len(machine.low))
    numbered[0] = 1
    # the chain being walked has state path[d] and bit chain[d] at depth d;
    # a state last entered at depth entered[t] is on it if path still holds it there
    path = [0]
    chain = bytearray(1)
    entered = [-1] * len(machine.low)
    order = [0]
    counts: list[int] = []
    block_len: list[int] = []
    blocks = bytearray()
    row_edge: list[int] = []
    for old_s in order:  # the BFS queue: grows as it is read
        first = len(row_edge)
        path[0] = old_s
        entered[old_s] = 0
        # (edge, length of the block through its bit); the edge leaves the
        # state at depth length - 1
        stack = [(2 * old_s + 1, 1), (2 * old_s, 1)]
        while stack:
            e, length = stack.pop()
            chain[length - 1] = e & 1
            to = target[e]
            if mute[e]:
                d = entered[to]
                if 0 <= d < length and path[d] == to:
                    raise NonEmittingCycleError("non-emitting cycle")
                if length == len(path):
                    path.append(to)
                    chain.append(0)
                else:
                    path[length] = to
                entered[to] = length
                length += 1
                stack += ((2 * to + 1, length), (2 * to, length))
                continue
            if not numbered[to]:
                numbered[to] = 1
                order.append(to)
            block_len.append(length)
            blocks += chain[:length]
            row_edge.append(e)
        counts.append(len(row_edge) - first)
    edges = np.array(row_edge, np.int64)
    renumber = np.zeros(len(numbered), np.int32)
    renumber[order] = np.arange(len(order), dtype=np.int32)
    origin = np.stack([machine.low, machine.high, machine.follow], 1)[order]
    return ReducedMachine(
        machine.params, counts, block_len, np.frombuffer(blocks, np.uint8),
        machine.emit_len[edges], machine.emit_val[edges],
        renumber[machine.target[edges]], origin,
    )


def reference_index(table, max_entries: int = (1 << 28) - 1) -> np.ndarray:
    """`PrefixTable.index` by numpy rounds, one per 8-bit level of the
    longest word, from the layout's rules alone.

    The root nodes come first, 256 entries per state.  In each round the
    words that end at this level fill the entries their kept bits prefix;
    the others are grouped by the entry they continue from, in order of
    that entry (a stable sort), and each group becomes a child node,
    appended in that order, 2**w entries wide where w is the most bits any
    of its words has left, at most 8.  Its link entry holds
    -2 - (start << 3 | 8 - w); every other entry is -1.  Fills that
    overlap raise "not a prefix code", and an index of over `max_entries`
    entries raises before it.
    """
    k = 8
    lengths = np.asarray(table.lengths, np.int32)
    bits = np.asarray(table._bits, np.uint8)
    packed = np.packbits(bits)
    last = len(packed) - 1
    rows = np.arange(len(lengths), dtype=np.int32)
    start = np.asarray(table._row_state, np.int64) << k  # first entry of each word's node
    width = k  # its node's width
    off = np.cumsum(lengths, dtype=np.int64) - lengths
    left = lengths
    size = (len(table._row_base) - 1) << k
    fills = []  # (first entry, log2 of its entries, value) of words and links
    while True:
        if size > max_entries:
            raise ValueError(f"a window index of over {max_entries} entries")
        keep = np.minimum(left, width)
        drop = width - keep
        # a word's kept bits lie in the byte holding bit `off` and the next
        at = off >> 3
        pair = packed[at].astype(np.int64) << 8 | packed[np.minimum(at + 1, last)]
        pair >>= 16 - (off & 7) - keep
        first = start + ((pair & ((1 << keep) - 1)) << drop)
        short = left <= width
        fills.append((first[short], drop[short], rows[short]))
        at = np.flatnonzero(~short)
        if not at.size:
            break
        link = first[at]
        order = link.argsort(kind="stable")
        at, link = at[order], link[order]
        rows, off, left = rows[at], off[at] + k, left[at] - k
        head = np.empty(link.size, bool)
        head[:1] = True
        np.not_equal(link[1:], link[:-1], out=head[1:])
        heads = np.flatnonzero(head)
        widths = np.minimum(np.maximum.reduceat(left, heads), k)
        sizes = 1 << widths
        starts = size + np.cumsum(sizes) - sizes
        fills.append((link[heads], np.zeros_like(heads), -2 - (starts << 3 | (k - widths))))
        child = np.cumsum(head) - 1
        start, width = starts[child], widths[child]
        size += int(sizes.sum())
    first, drop, value = (np.concatenate(c).astype(np.int64) for c in zip(*fills))
    order = first.argsort(kind="stable")
    first, span = first[order], 1 << drop[order]
    # gap, fill, ..., fill, gap: a gap below 0 is an overlap
    runs = np.empty(2 * len(order) + 1, np.int64)
    runs[1::2] = span
    runs[::2] = np.append(first, size) - np.append(0, first + span)
    if (runs < 0).any():
        raise ValueError("the words are not a prefix code")
    values = np.full(len(runs), -1, np.int32)
    values[1::2] = value[order]
    return np.repeat(values, runs)


def reference_match(rm, state: int, bits: str, pos: int, blocks: dict) -> tuple[int, int]:
    """(transition index, block length) of the row of `state` whose input
    block prefixes bits[pos:], zero-padded; read off `rm.transitions` alone.
    `blocks` caches, per state, its blocks' transition indexes by block and
    their lengths, shortest first, which are tried in turn."""
    if state not in blocks:
        words = [t.input_block for t in rm.transitions[state]]
        blocks[state] = ({w: i for i, w in enumerate(words)}, sorted(set(map(len, words))))
    code, lengths = blocks[state]
    for length in lengths:
        idx = code.get(bits[pos : pos + length].ljust(length, "0"))
        if idx is not None:
            return idx, length
    raise AssertionError(f"no block of state {state} matches at {pos}")


def reference_parse(rm, bits: str) -> tuple[list[tuple[int, int]], str]:
    """`fsac_parse` by `reference_match`: (state, transition index) per step
    and the zero-padded input."""
    blocks = {}
    steps = []
    pos = state = 0
    while pos < len(bits):
        idx, length = reference_match(rm, state, bits, pos, blocks)
        steps.append((state, idx))
        pos += length
        state = rm.transitions[state][idx].to
    return steps, bits.ljust(pos, "0")


def reference_encrypt(codec, bits: str, ks) -> str:
    """`encrypt` step by step through the substreams' scalar draws and
    `reference_match`: the cipher as '0'/'1' text."""
    rm = codec.rm
    jump, state_gen, swap = reference_streams(ks)
    blocks = {}
    out = []
    pos = state = 0
    while pos < len(bits):
        if jump.jumps(ks.jump_q_num) or not out:
            state = state_gen.below(rm.state_count)
        table = codec.tables[state]
        swap_pos = swap.below(table.max_len + 1)
        idx, length = reference_match(rm, state, bits, pos, blocks)
        out.append(swap_codeword(table.codewords[idx], swap_pos))
        pos += length
        state = rm.transitions[state][idx].to
    return "".join(out)


def reference_decrypt(codec, cipher: str, ks, n_bits: int) -> str:
    """`decrypt` step by step through the substreams' scalar draws, on
    '0'/'1' text: the first n_bits decoded bits, or the same error class and
    message.  With `ks` None it is `hfac_decode`: no jumps, no swaps, and
    `CorruptStreamError` for every failure."""
    rm = codec.rm
    if ks is None:
        truncated = corrupt = CorruptStreamError
    else:
        truncated, corrupt = TruncatedStreamError, WrongKeyError
        jump, state_gen, swap = reference_streams(ks)
    codes = {}  # state: ({codeword: transition index}, its codeword lengths)
    out = []
    pos = state = steps = done = 0
    while done < n_bits:
        if ks is not None and (jump.jumps(ks.jump_q_num) or not steps):
            state = state_gen.below(rm.state_count)
        table = codec.tables[state]
        swap_pos = table.max_len if ks is None else swap.below(table.max_len + 1)
        if state not in codes:
            words = table.codewords
            codes[state] = ({w: i for i, w in enumerate(words)}, sorted(set(map(len, words))))
        code, lengths = codes[state]
        idx = None
        for length in lengths:
            # complementing is its own inverse: undo the swap on the cipher
            word = swap_codeword(cipher[pos : pos + length], swap_pos)
            if len(word) == length and word in code:
                idx = code[word]
                break
        if idx is None:
            where = f"step {steps}, bit {pos}"
            if pos + table.max_len > len(cipher):
                raise truncated(f"stream ends inside a codeword at {where}")
            raise corrupt(f"no codeword of state {state} matches at {where}")
        t = rm.transitions[state][idx]
        out.append(t.input_block)
        pos += len(table.codewords[idx])
        done += len(t.input_block)
        steps += 1
        state = t.to
    if pos != len(cipher):
        raise corrupt(
            f"{len(cipher) - pos} stream bits left over after step {steps}, at bit {pos}"
        )
    return "".join(out)[:n_bits]


def is_prefix_free(codes) -> bool:
    codes = sorted(codes)
    return not any(
        codes[i + 1].startswith(codes[i]) for i in range(len(codes) - 1)
    )


def kraft(codes) -> Fraction:
    return sum(Fraction(1, 1 << len(c)) for c in codes)


def heuristic_weights(rm, state: int) -> list[Fraction]:
    """Normalized 2**(-output length) weights, in transition order: the
    reference form of `integer_weights`, which scales them per state."""
    rows = slice(rm.row_base[state], rm.row_base[state + 1])
    raw = [Fraction(1, 1 << n) for n in rm.out_len[rows].tolist()]
    total = sum(raw)
    return [w / total for w in raw]


def huffman_code_lengths(weights) -> list[int]:
    """Optimal prefix-code lengths by pairwise merging of smallest weights,
    one state at a time: the reference for `code_lengths`.

    Deterministic tie-break: equal weights prefer leaves over merged nodes,
    then the node holding the smallest transition index.  Each merge records
    its children's parent; one pass from the root down then gives depths.
    """
    k = len(weights)
    if k < 2:
        raise ValueError("need at least 2 weights")
    # (weight, merged, smallest leaf index, node); no two live nodes share a
    # smallest leaf index, so the node id never decides an order
    heap = [(w, 0, i, i) for i, w in enumerate(weights)]
    heapq.heapify(heap)
    parent = [0] * (2 * k - 1)
    for node in range(k, 2 * k - 1):
        wa, _, ia, na = heapq.heappop(heap)
        wb, _, ib, nb = heap[0]
        heapq.heapreplace(heap, (wa + wb, 1, min(ia, ib), node))
        parent[na] = parent[nb] = node
    # parents are numbered after their children; the root is the last node
    depth = [0] * (2 * k - 1)
    for i in range(2 * k - 3, -1, -1):
        depth[i] = depth[parent[i]] + 1
    return depth[:k]


def canonical_codewords(lengths) -> list[str]:
    """Canonical assignment: sort by (length, index), count upward; the
    reference for `canonical_bits`."""
    order = sorted(zip(lengths, range(len(lengths))))
    codes = [""] * len(lengths)
    code, prev = -1, order[0][0]
    for n, i in order:
        code = (code + 1) << (n - prev)
        codes[i] = format(code, "b").zfill(n)
        prev = n
    return codes


def build_state_code(weights) -> list[str]:
    """Canonical Huffman codewords for one state's weights."""
    return canonical_codewords(huffman_code_lengths(weights))


@lru_cache(maxsize=None)
def _depth_multisets(n: int):
    """Sorted leaf-depth tuples of every full binary tree with n leaves."""
    if n == 1:
        return frozenset({(0,)})
    out = set()
    for left in range(1, n):
        for dl in _depth_multisets(left):
            for dr in _depth_multisets(n - left):
                out.add(tuple(sorted(d + 1 for d in dl + dr)))
    return frozenset(out)


def optimal_expected_length(weights) -> Fraction:
    """Brute force over all prefix-code shapes: the oracle for optimality."""
    ws = sorted(weights, reverse=True)
    best = None
    for depths in _depth_multisets(len(ws)):
        cost = sum(w * d for w, d in zip(ws, depths))
        if best is None or cost < best:
            best = cost
    return best


class _CodecCache:
    def __init__(self):
        self._machines = {}
        self._reduced = {}
        self._codecs = {}

    def machine(self, n, p0, fm, q=0):
        key = (n, p0, fm, q)
        if key not in self._machines:
            self._machines[key] = build_full_fsm(CoderParams(n, p0, fm, q))
        return self._machines[key]

    def reduced(self, n, p0, fm, q=0):
        key = (n, p0, fm, q)
        if key not in self._reduced:
            self._reduced[key] = reduce_machine(self.machine(n, p0, fm, q))
        return self._reduced[key]

    def codec(self, n, p0, fm, q=0):
        key = (n, p0, fm, q)
        if key not in self._codecs:
            self._codecs[key] = attach_tables(self.reduced(n, p0, fm, q))
        return self._codecs[key]


@pytest.fixture(scope="session", autouse=True)
def kernels():
    """The compiled kernels, built before any test runs.  A CLI child that
    compiled them would count the compiler's peak RSS in its own: the memory
    tests read `RUSAGE_CHILDREN` (`_cli_peak_mib` in test_cli.py), which
    takes the largest of a child and the children it waited for."""
    return prefix.kernel()


@pytest.fixture(scope="session")
def cache():
    return _CodecCache()


def synthetic_image(width: int = 256, height: int = 256) -> GrayImage:
    """Deterministic smooth test image: strongly correlated neighbors."""
    px = bytearray()
    for y in range(height):
        for x in range(width):
            v = (
                128
                + 60 * math.sin(2 * math.pi * x / 71) * math.sin(2 * math.pi * y / 83)
                + 24 * math.sin(2 * math.pi * (x + y) / 47)
            )
            px.append(min(max(int(v), 0), 255))
    return GrayImage(width, height, bytes(px))


@pytest.fixture(scope="session")
def test_image():
    return synthetic_image()

"""Mute-transition elimination.

Forward composition replaces each transition without output by the
transitions of its successor (input blocks concatenate, outputs are
adopted), until every edge emits.  The result is a machine whose per-state
input blocks form a complete prefix-free set, so any bit stream parses
unambiguously.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .bitio import BitSource, Bits
from .coder import CoderParams, FullMachine
from .prefix import PrefixTable, bit_string, kraft_bits, no_jumps, walk


class NonEmittingCycleError(RuntimeError):
    """Composition depth blew past its bound; the source machine is broken."""


@dataclass(frozen=True)
class ReducedTransition:
    from_state: int
    input_block: str
    output_bits: str
    to: int


class ReducedMachine:
    """Block-input machine, as columns; immutable after construction.

    State s owns `counts[s]` rows, the global rows `row_base[s]` up to
    `row_base[s + 1]` in parse-tree order; `row_state[r]` is row r's state,
    and the prefix tables `inputs` and `codec.outputs` share this layout.
    Row r reads the input block of `block_len[r]` bits, kept only in
    `inputs` (`block_bits` is every block's 0/1 bytes, in row order), emits
    the output of `out_len[r]` bits `out_bits[r]`, and moves to `next_state[r]`.
    `origin_bounds[s]` is the (low, high, follow) the state came from.
    `transitions` is an object view, built on first access.
    """

    def __init__(
        self, params: CoderParams, counts, block_len, block_bits, out_len, out_bits,
        next_state, origin_bounds,
    ):
        self.params = params
        self.counts = np.asarray(counts, np.int64)
        self.state_count = len(self.counts)
        self.row_base = np.zeros(self.state_count + 1, np.int64)
        np.cumsum(self.counts, out=self.row_base[1:])
        self.row_state = np.repeat(np.arange(self.state_count, dtype=np.int32), self.counts)
        self.block_len = np.asarray(block_len, np.int32)
        self.inputs = PrefixTable(self.row_base, self.row_state, self.block_len, block_bits)
        self.out_len = np.asarray(out_len, np.int32)
        self.out_bits = np.asarray(out_bits, np.int64)
        self.next_state = np.asarray(next_state, np.int32)
        self.origin_bounds = np.asarray(origin_bounds, np.int64).reshape(-1, 3)

    @functools.cached_property
    def transitions(self) -> tuple[tuple[ReducedTransition, ...], ...]:
        rows = list(
            map(
                ReducedTransition,
                self.row_state.tolist(),
                self.inputs.words(),
                map(bit_string, self.out_len.tolist(), self.out_bits.tolist()),
                self.next_state.tolist(),
            )
        )
        base = self.row_base.tolist()
        return tuple(tuple(rows[a:b]) for a, b in zip(base, base[1:]))

    def _columns(self):
        return (
            self.counts, self.block_len, self.inputs._bits, self.out_len, self.out_bits,
            self.next_state, self.origin_bounds,
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ReducedMachine)
            and self.params == other.params
            and all(map(np.array_equal, self._columns(), other._columns()))
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"ReducedMachine(params={self.params!r}, "
            f"states={self.state_count}, transitions={len(self.next_state)})"
        )


# the symbols of a state's two edges, 2*s + symbol
_SYMBOLS = np.arange(2, dtype=np.int32)


def reduce_machine(machine: FullMachine) -> ReducedMachine:
    """Eliminate mute transitions, drop unreachable states, renumber by BFS.

    A state's parse tree reads one bit per level: an emitting edge ends a
    row, a mute edge continues the block into its successor's two edges.
    The trees of every candidate state, state 0 and the targets of the
    emitting edges, grow together, one array pass per chain depth.  Each
    node's rows are counted bottom-up, then each subtree's rows are placed
    top-down, so a state's rows come out in parse-tree order, the
    lexicographic order of its blocks.  Breadth first from state 0, the
    targets of those rows number the reduced states, a whole wave at a
    time, and candidates never reached are dropped.  Mute chains are
    loop-free on valid machines (follow never decreases without an
    emission, and at fixed follow the intervals strictly nest), so a chain
    deeper than the machine's state count, which must pass some state
    twice, is reported as a coder bug.
    """
    n_states = len(machine.low)
    mute = machine.emit_len == 0
    kids = 2 * machine.target[:, None] + _SYMBOLS  # the two edges after each edge
    cand = np.zeros(n_states, bool)
    cand[0] = True
    cand[machine.target[~mute]] = True
    cand = np.flatnonzero(cand).astype(np.int32)
    # every level's edges in one array, level after level: level d, from
    # bounds[d] up to bounds[d + 1], holds the edges that read bit d of a
    # block, in parse-tree order within each tree, and the k-th mute edge
    # of a level continues into the 2k-th and (2k + 1)-th edges of the next.
    # Flat columns, not an array per level: a skewed machine has 2**(n - 1)
    # levels of two edges, whose objects would scatter the heap
    lo, hi = 0, 2 * len(cand)
    bounds = [lo, hi]
    edges = np.empty(4 * hi, np.int32)
    edges[:hi] = (2 * cand[:, None] + _SYMBOLS).ravel()
    while lo < hi:
        if len(bounds) > n_states + 1:
            raise NonEmittingCycleError("non-emitting cycle")
        level = edges[lo:hi]
        on = level[mute[level]]
        lo, hi = hi, hi + 2 * len(on)
        if hi > len(edges):
            edges = np.concatenate((edges[:lo], np.empty(max(hi, 2 * lo) - lo, np.int32)))
        edges[lo:hi] = kids.take(on, 0).ravel()
        bounds.append(hi)
    n_levels = len(bounds) - 2
    n_nodes = hi
    edges = edges[:n_nodes]
    going = mute[edges]
    del kids, mute
    # rows under each edge, bottom-up
    rows = np.ones(n_nodes, np.int32)
    for d in range(n_levels - 1, -1, -1):
        lo, hi, below = bounds[d], bounds[d + 1], rows[bounds[d + 1] : bounds[d + 2]]
        rows[lo:hi][going[lo:hi]] = below[0::2] + below[1::2]
    sizes = rows[0 : bounds[1] : 2] + rows[1 : bounds[1] : 2]  # rows of each candidate
    tree_base = np.cumsum(sizes, dtype=np.int32) - sizes
    # each edge's first row, top-down: a 1-edge's is its 0-sibling's plus
    # the rows under that sibling, and a 0-edge's is its parent's
    first = np.empty(n_nodes, np.int32)
    first[0 : bounds[1] : 2] = tree_base
    for d in range(n_levels):
        lo, hi = bounds[d], bounds[d + 1]
        at = first[lo:hi]
        at[1::2] = at[0::2] + rows[lo:hi:2]
        first[hi : bounds[d + 2] : 2] = at[going[lo:hi]]
    del rows
    depth = np.repeat(np.arange(1, n_levels + 1, dtype=np.int32), np.diff(bounds[:-1]))
    done = ~going
    leaf = first[done]
    n_rows = len(leaf)
    row_edge = np.empty(n_rows, np.int32)
    row_edge[leaf] = edges[done]
    row_len = np.empty(n_rows, np.int32)
    row_len[leaf] = depth[done]
    # the index of each block's last 1, -1 in a tree's first block: a
    # 1-edge's first row has it at the edge's own bit (levels hold edge
    # pairs, so the 1-edges are the odd entries of the whole column)
    branch = np.full(n_rows, -1, np.int32)
    branch[first[1::2]] = depth[1::2] - 1
    del first, done, edges, going, depth, leaf
    # the reduced states, breadth first: the candidates that each wave's
    # rows reach, in order of their first row
    index = np.zeros(n_states, np.int32)
    index[cand] = np.arange(len(cand), dtype=np.int32)
    row_to = index[machine.target[row_edge]]
    seen = np.zeros(len(cand), bool)
    seen[0] = True
    waves = [np.zeros(1, np.int32)]
    while waves[-1].size:
        wave = waves[-1]
        to = row_to[_spans(tree_base[wave], sizes[wave])]
        to = to[~seen[to]]
        by = to.argsort(kind="stable")  # np.unique would import numpy.ma
        head = np.ones(len(to), bool)
        np.not_equal(to[by[1:]], to[by[:-1]], out=head[1:])
        wave = to[np.sort(by[head])]
        seen[wave] = True
        waves.append(wave)
    order = np.concatenate(waves)
    rows = _spans(tree_base[order], sizes[order])
    renumber = np.zeros(len(cand), np.int32)
    renumber[order] = np.arange(len(order), dtype=np.int32)
    next_state = renumber[row_to[rows]]
    edges = row_edge[rows]
    counts, block_len, branch = sizes[order], row_len[rows], branch[rows]
    origin = np.stack([machine.low, machine.high, machine.follow], 1)[cand[order]]
    del row_to, row_edge, row_len, rows  # the block bits are the peak: free them first
    return ReducedMachine(
        machine.params, counts, block_len, _block_bits(counts, block_len, branch),
        machine.emit_len[edges], machine.emit_val[edges], next_state, origin,
    )


def _spans(starts, lengths) -> np.ndarray:
    """starts[i] up to starts[i] + lengths[i], for every i in turn."""
    ends = np.cumsum(lengths)
    return np.repeat(starts - (ends - lengths), lengths) + np.arange(ends[-1])


def _block_bits(counts, lengths, branch) -> np.ndarray:
    """Every row's block as 0/1 bytes, in row order, from the lengths of
    each state's blocks in parse-tree order.

    Blocks of at most 63 bits are Kraft prefix sums.  Where some block is
    longer, each block is the one before it up to `branch`, the index of
    its own last 1, then that 1, then 0s; a state's first block is all 0s,
    with branch -1.  The 1s are set at once on zeroed memory, then each
    block copies its prefix from the one before, in row order, 1s included.
    """
    if lengths.max() <= 63:
        return kraft_bits(counts, lengths)
    ends = np.cumsum(lengths, dtype=np.int64)
    bits = np.zeros(int(ends[-1]), np.uint8)
    bits[(ends - lengths + branch)[branch >= 0]] = 1
    at = (ends - lengths).tolist()
    for o, q, p in zip(at, [0, *at], branch.clip(0).tolist()):  # -1 slices from the end
        bits[o : o + p] = bits[q : q + p]
    return bits


@dataclass(frozen=True)
class StateCheck:
    state: int
    prefix_free: bool
    complete: bool
    reachable: bool
    n_transitions: int

    @property
    def ok(self) -> bool:
        return (
            self.prefix_free
            and self.complete
            and self.reachable
            and self.n_transitions >= 2
        )


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[StateCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> list[StateCheck]:
        return [c for c in self.checks if not c.ok]


def _is_prefix_free(blocks) -> bool:
    blocks = sorted(blocks)
    return not any(
        blocks[i + 1].startswith(blocks[i]) for i in range(len(blocks) - 1)
    )


def kraft_complete(lengths) -> bool:
    """Kraft equality, sum 2**-length == 1, for words of the given lengths:
    an exact integer sum at the longest length."""
    top = max(lengths, default=0)
    return sum(1 << (top - n) for n in lengths) == 1 << top


def validate_reduced(rm: ReducedMachine) -> ValidationReport:
    """Per-state structural checks: prefix-freeness, Kraft equality, reachability."""
    base = rm.row_base.tolist()
    next_state = rm.next_state.tolist()
    reached, frontier = {0}, [0]
    while frontier:
        s = frontier.pop()
        for t in next_state[base[s] : base[s + 1]]:
            if t not in reached:
                reached.add(t)
                frontier.append(t)
    blocks = rm.inputs.words()
    lengths = rm.block_len.tolist()
    return ValidationReport(
        tuple(
            StateCheck(
                state=s,
                prefix_free=_is_prefix_free(blocks[a:b]),
                complete=kraft_complete(lengths[a:b]),
                reachable=s in reached,
                n_transitions=b - a,
            )
            for s, (a, b) in enumerate(zip(base, base[1:]))
        )
    )


def parse_rows(bits: Bits, rm: ReducedMachine) -> np.ndarray:
    """Global rows of the greedy block parse from state 0."""
    blocks = [rows for rows, _ in walk(rm, rm.inputs, BitSource.of(bits), bits.n, no_jumps)]
    return np.concatenate(blocks) if blocks else np.zeros(0, np.int64)


def fsac_parse(bits: str, rm: ReducedMachine):
    """Greedy block parse from state 0.

    Returns ([(state, transition index), ...], padded input); the input is
    zero-padded at the tail to complete the final block.
    """
    rows = parse_rows(Bits.from_text(bits), rm)
    states = rm.row_state[rows]
    index = rows - rm.row_base[states]
    pad = int(rm.block_len[rows].sum()) - len(bits)
    return list(zip(states.tolist(), index.tolist())), bits + "0" * pad


def fsac_encode(bits: str, rm: ReducedMachine) -> str:
    """Table-driven encode: concatenated arithmetic outputs along the parse."""
    rows = parse_rows(Bits.from_text(bits), rm)
    outputs = rm.out_len[rows].tolist(), rm.out_bits[rows].tolist()
    return "".join(map(bit_string, *outputs))

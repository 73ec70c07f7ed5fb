"""Mute-transition elimination.

Forward composition replaces each transition without output by the
transitions of its successor (input blocks concatenate, outputs are
adopted), until every edge emits.  The result is a machine whose per-state
input blocks form a complete prefix-free set, so any bit stream parses
unambiguously.  The blocks are held packed, as every table's words are.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .bitio import BitSource, Bits
from .coder import CoderParams, FullMachine
from .prefix import PrefixTable, bit_string, kernel, packed_bytes, walk


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
    `inputs` (`block_bits` is every block packed in row order, as
    `PrefixTable` takes it), emits the output of `out_len[r]` bits
    `out_bits[r]`, and moves to `next_state[r]`.  `origin_bounds[s]` is the
    (low, high, follow) the state came from.  `transitions` is an object
    view, built on first access.  Construction checks, once, what the
    kernels rely on: at least one state, no negative row count, a value per
    row in every row column, blocks of at least 1 bit and next states that
    are states.
    """

    def __init__(
        self, params: CoderParams, counts, block_len, block_bits, out_len, out_bits,
        next_state, origin_bounds,
    ):
        self.params = params
        self.counts = np.ascontiguousarray(counts, np.int64)
        self.state_count = len(self.counts)
        if not self.state_count or (self.counts < 0).any():
            raise ValueError("at least one state, and no negative row count")
        self.row_base = np.zeros(self.state_count + 1, np.int64)
        np.cumsum(self.counts, out=self.row_base[1:])
        self.row_state = np.repeat(np.arange(self.state_count, dtype=np.int32), self.counts)
        self.block_len = np.ascontiguousarray(block_len, np.int32)
        self.out_len = np.ascontiguousarray(out_len, np.int32)
        self.out_bits = np.asarray(out_bits, np.int64)
        self.next_state = np.ascontiguousarray(next_state, np.int32)
        self.origin_bounds = np.asarray(origin_bounds, np.int64).reshape(-1, 3)
        rows = self.row_base[-1]
        columns = self.block_len, self.out_len, self.out_bits, self.next_state
        if any(len(c) != rows for c in columns):
            raise ValueError("an input block, an output and a next state per row")
        if (self.block_len < 1).any():
            raise ValueError("input blocks of at least 1 bit")
        if ((self.next_state < 0) | (self.next_state >= self.state_count)).any():
            raise ValueError(f"next states in [0, {self.state_count})")
        self.inputs = PrefixTable(self.row_base, self.block_len, block_bits)
        # the arguments of `walk_block` for the rows' next states and input bits
        self._steps = (self.next_state.ctypes.data, self.block_len.ctypes.data)

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


def reduce_machine(machine: FullMachine) -> ReducedMachine:
    """Eliminate mute transitions, drop unreachable states, renumber by BFS.

    `reduce_rows` of the compiled kernels (prefix.kernel) walks each
    reduced state's parse tree depth first, from a BFS queue that starts
    at state 0: an emitting edge ends a row, a mute edge continues the
    block into its successor's two edges, and the 0-edge goes first, so a
    state's rows come out in parse-tree order, the lexicographic order of
    its blocks.  The targets of the rows number the reduced states as they
    are first met.  It writes each row's block length, the index of its
    block's last 1, next state and output into arrays held here, and stops
    when a state's rows do not fit; they are then doubled and the walk
    resumes at that state.  `block_bits` then writes the blocks from their
    lengths and last 1s, packed into an array of their exact size, once the
    walk's arrays are gone and the row columns are cut to the rows.
    Mute chains are loop-free on valid machines (follow never decreases
    without an emission, and at fixed follow the intervals strictly nest),
    so a chain that enters a state it is already in is reported as a coder
    bug.
    """
    n = len(machine.low)
    target, emit_len = (
        np.ascontiguousarray(c, np.int32) for c in (machine.target, machine.emit_len)
    )
    emit_val = np.ascontiguousarray(machine.emit_val, np.int64)
    if not n or not len(target) == len(emit_len) == len(emit_val) == 2 * n or not (
        0 <= target.min() and target.max() < n
    ):
        raise ValueError("two edges per state, each to a state")
    renumber = np.full(n, -1, np.int32)
    renumber[0] = 0
    order = np.zeros(n, np.int32)  # order[0] is state 0
    counts = np.zeros(n, np.int64)
    scratch = np.empty(5 * n + 4, np.int32)
    progress = np.array([0, 1, 0], np.int64)  # states walked, numbered, rows
    # block_len, branch, next_state, out_len and out_bits: a row per edge, at first
    columns = [np.empty(2 * n, t) for t in (np.int32,) * 4 + (np.int64,)]
    while True:
        status = kernel().reduce_rows(
            target.ctypes.data, emit_len.ctypes.data, emit_val.ctypes.data, n,
            renumber.ctypes.data, order.ctypes.data, counts.ctypes.data, scratch.ctypes.data,
            *(c.ctypes.data for c in columns), len(columns[0]), progress.ctypes.data,
        )
        if status < 0:
            raise NonEmittingCycleError("non-emitting cycle")
        if status == 0:
            break
        for k, c in enumerate(columns):
            columns[k] = np.empty(2 * len(c), c.dtype)
            columns[k][: len(c)] = c
    found, rows = int(progress[1]), int(progress[2])
    order = order[:found]
    origin = np.stack([machine.low[order], machine.high[order], machine.follow[order]], 1)
    # the walk's arrays go before the blocks are allocated, and the columns
    # are cut to the states and rows, so that the blocks come on top of little
    counts, columns = counts[:found].copy(), [c[:rows].copy() for c in columns]
    del renumber, order, scratch
    block_len, branch, next_state, out_len, out_bits = columns
    bits = np.zeros(packed_bytes(block_len.sum(dtype=np.int64)), np.uint8)
    kernel().block_bits(block_len.ctypes.data, branch.ctypes.data, rows, bits.ctypes.data)
    return ReducedMachine(
        machine.params, counts, block_len, bits, out_len, out_bits, next_state, origin,
    )


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
    blocks = []
    walk(rm, BitSource.of(bits), bits.n, blocks=blocks)
    return np.concatenate([rows for rows, _, _ in blocks]) if blocks else np.zeros(0, np.int64)


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

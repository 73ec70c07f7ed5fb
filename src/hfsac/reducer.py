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
from .prefix import PrefixTable, bit_string, kernel, kraft_bits, no_jumps, walk


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


def reduce_machine(machine: FullMachine) -> ReducedMachine:
    """Eliminate mute transitions, drop unreachable states, renumber by BFS.

    `reduce_rows` of the compiled kernels (prefix.kernel) walks each
    reduced state's parse tree depth first, from a BFS queue that starts
    at state 0: an emitting edge ends a row, a mute edge continues the
    block into its successor's two edges, and the 0-edge goes first, so a
    state's rows come out in parse-tree order, the lexicographic order of
    its blocks.  The targets of the rows number the reduced states as they
    are first met.  It writes each row's last edge, block length, the
    index of its block's last 1 and next state into arrays held here, and
    stops when a state's rows do not fit; they are then doubled and the
    walk resumes at that state.  Mute chains are loop-free on valid
    machines (follow never decreases without an emission, and at fixed
    follow the intervals strictly nest), so a chain that enters a state it
    is already in is reported as a coder bug.
    """
    n = len(machine.low)
    target, emit_len = (
        np.ascontiguousarray(c, np.int32) for c in (machine.target, machine.emit_len)
    )
    if not n or len(target) != 2 * n or len(emit_len) != 2 * n or not (
        0 <= target.min() and target.max() < n
    ):
        raise ValueError("two edges per state, each to a state")
    renumber = np.full(n, -1, np.int32)
    renumber[0] = 0
    order = np.zeros(n, np.int32)  # order[0] is state 0
    counts = np.zeros(n, np.int64)
    scratch = np.empty(5 * n + 4, np.int32)
    progress = np.array([0, 1, 0], np.int64)  # states walked, numbered, rows
    columns = [np.empty(2 * n, np.int32) for _ in range(4)]  # a row per edge, at first
    while True:
        status = kernel().reduce_rows(
            target.ctypes.data, emit_len.ctypes.data, n, renumber.ctypes.data,
            order.ctypes.data, counts.ctypes.data, scratch.ctypes.data,
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
    edges, block_len, branch, next_state = (c[:rows] for c in columns)
    counts, order = counts[:found], order[:found]
    origin = np.stack([machine.low, machine.high, machine.follow], 1)[order]
    return ReducedMachine(
        machine.params, counts, block_len, _block_bits(counts, block_len, branch),
        machine.emit_len[edges], machine.emit_val[edges], next_state, origin,
    )


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

"""Mute-transition elimination.

Forward composition replaces each transition without output by the
transitions of its successor (input blocks concatenate, outputs are
adopted), until every edge emits.  The result is a machine whose per-state
input blocks form a complete prefix-free set, so any bit stream parses
unambiguously.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .coder import CoderParams, FullMachine, gc_paused
from .prefix import BLOCK_STEPS, WINDOW_BITS, PrefixTable, no_jumps, windows


class NonEmittingCycleError(RuntimeError):
    """Composition depth blew past its bound; the source machine is broken."""


@dataclass(frozen=True)
class ReducedTransition:
    from_state: int
    input_block: str
    output_bits: str
    to: int


class ReducedMachine:
    """Block-input machine; immutable after construction.

    transitions[s] is the tuple of rows leaving state s, in parse-tree
    order; origin[s] is the (low, high, follow) triple the state came from.
    The global row ids of `inputs` number the rows of all states in order;
    next_state[r] is the target state of row r.
    """

    __slots__ = (
        "params", "state_count", "transitions", "origin", "next_state", "_inputs",
    )

    def __init__(self, params: CoderParams, transitions, origin):
        self.params = params
        self.transitions: tuple[tuple[ReducedTransition, ...], ...] = tuple(
            tuple(row) for row in transitions
        )
        self.state_count = len(self.transitions)
        self.origin: tuple[tuple[int, int, int], ...] = tuple(origin)
        self.next_state = np.fromiter(
            (t.to for row in self.transitions for t in row), np.int32
        )
        self._inputs: PrefixTable | None = None

    @property
    def inputs(self) -> PrefixTable:
        """The input blocks of every state, built on first use."""
        if self._inputs is None:
            self._inputs = PrefixTable(
                [t.input_block for t in row] for row in self.transitions
            )
        return self._inputs

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ReducedMachine)
            and self.params == other.params
            and self.transitions == other.transitions
            and self.origin == other.origin
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        n_rows = sum(len(row) for row in self.transitions)
        return (
            f"ReducedMachine(params={self.params!r}, "
            f"states={self.state_count}, transitions={n_rows})"
        )


def walk_blocks(rm: ReducedMachine, bits: str, jumps):
    """Parse `bits` into input blocks from state 0, a block of steps at a time.

    `jumps(m)` gives the next m steps' jump targets (see `prefix`).  Yields,
    per block, the global rows matched and those steps' targets.  The tail
    of `bits` is zero-padded to complete the last block.
    """
    table = rm.inputs
    index = table.index
    lengths = memoryview(table.lengths)
    next_state = memoryview(rm.next_state)
    win = windows(bits)
    n = len(bits)
    shift = WINDOW_BITS
    pos = state = 0
    while pos < n:
        targets = jumps(min(BLOCK_STEPS, n - pos))
        rows: list[int] = []
        append = rows.append
        for target in targets.tolist():
            if target >= 0:
                state = target
            row = index[(state << shift) | win[pos]]
            if row < 0:  # a block longer than the window, or none
                row = table.descend(win, row, pos)
                if row < 0:
                    raise AssertionError(f"incomplete input block set in state {state}")
            append(row)
            pos += lengths[row]
            state = next_state[row]
            if pos >= n:
                break
        yield np.array(rows, np.int32), targets[: len(rows)]


@gc_paused
def reduce_machine(machine: FullMachine) -> ReducedMachine:
    """Eliminate mute transitions, drop unreachable states, renumber by BFS.

    Each reduced state's rows come from a depth-first walk of its parse
    tree: an emitting edge ends a row, a mute edge continues the block into
    its successor's two edges, so the rows come out in parse-tree order and
    their targets are numbered as they come.  Mute chains are loop-free on
    valid machines (follow never decreases without an emission, and at
    fixed follow the intervals strictly nest), so a state met again on the
    chain being walked is reported as a coder bug.  Done iteratively: chains
    can run to ~2**n_bits on skewed splits.
    """
    # edge 2*s + symbol of full state s, flattened out of the transitions
    emitted = [t.emitted for t in machine.transitions]
    target = [t.to for t in machine.transitions]
    new_index = {0: 0}
    order = [0]
    transitions = []
    origin = []
    for new_s, old_s in enumerate(order):  # the BFS queue: grows as it is read
        rows = []
        on_chain = {old_s}
        # (edge, block before its bit); (state, None) ends that state's chain
        stack: list[tuple[int, str | None]] = [(2 * old_s + 1, ""), (2 * old_s, "")]
        while stack:
            e, block = stack.pop()
            if block is None:
                on_chain.discard(e)
                continue
            block += "1" if e & 1 else "0"
            to = target[e]
            if emitted[e]:
                if to not in new_index:
                    new_index[to] = len(order)
                    order.append(to)
                rows.append(ReducedTransition(new_s, block, emitted[e], new_index[to]))
                continue
            if to in on_chain:
                raise NonEmittingCycleError("non-emitting cycle")
            on_chain.add(to)
            stack += ((to, None), (2 * to + 1, block), (2 * to, block))
        st = machine.states[old_s]
        origin.append((st.low, st.high, st.follow))
        transitions.append(rows)
    return ReducedMachine(machine.params, transitions, origin)


@dataclass(frozen=True)
class StateCheck:
    state: int
    prefix_free: bool
    kraft_sum: Fraction
    reachable: bool
    n_transitions: int

    @property
    def complete(self) -> bool:
        return self.kraft_sum == 1

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


def validate_reduced(rm: ReducedMachine) -> ValidationReport:
    """Per-state structural checks: prefix-freeness, Kraft equality, reachability."""
    reached = {0}
    frontier = [0]
    while frontier:
        s = frontier.pop()
        for t in rm.transitions[s]:
            if t.to not in reached:
                reached.add(t.to)
                frontier.append(t.to)
    checks = []
    for s, row in enumerate(rm.transitions):
        blocks = [t.input_block for t in row]
        kraft = sum((Fraction(1, 1 << len(b)) for b in blocks), Fraction(0))
        checks.append(
            StateCheck(
                state=s,
                prefix_free=_is_prefix_free(blocks),
                kraft_sum=kraft,
                reachable=s in reached,
                n_transitions=len(row),
            )
        )
    return ValidationReport(tuple(checks))


def fsac_parse(bits: str, rm: ReducedMachine):
    """Greedy block parse from state 0.

    Returns ([(state, transition index), ...], padded input); the input is
    zero-padded at the tail to complete the final block.
    """
    blocks = [rows for rows, _ in walk_blocks(rm, bits, no_jumps)]
    rows = np.concatenate(blocks) if blocks else np.zeros(0, np.int32)
    states = rm.inputs.row_state[rows]
    index = rows - rm.inputs.row_base[states]
    pad = int(rm.inputs.lengths[rows].sum()) - len(bits)
    return list(zip(states.tolist(), index.tolist())), bits + "0" * pad


def fsac_encode(bits: str, rm: ReducedMachine) -> str:
    """Table-driven encode: concatenated arithmetic outputs along the parse."""
    steps, _ = fsac_parse(bits, rm)
    return "".join(rm.transitions[s][i].output_bits for s, i in steps)

"""Per-state prefix codes replacing the arithmetic outputs.

Each state is treated as a standalone source whose symbol weights are
2**(-output length), normalized.  A canonical Huffman code over those
weights gives every transition a self-contained codeword, which keeps the
stream parseable across keyed state jumps.  The swap transform complements
every codeword bit from a chosen position on; it permutes the code tree, so
prefix-freeness survives.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .coder import CoderParams, build_full_fsm
from .prefix import BLOCK_STEPS, WINDOW_BITS, WINDOW_MASK, PrefixTable, no_jumps, windows
from .reducer import ReducedMachine, reduce_machine

_FLIP = str.maketrans("01", "10")


class CorruptStreamError(ValueError):
    """Keyless decode hit bits that match no codeword."""


def heuristic_weights(rm: ReducedMachine, state: int) -> list[Fraction]:
    """Normalized 2**(-output length) weights, in transition order.

    The reference form of the weights; `attach_tables` builds the same codes
    from their integer multiples (see `integer_weights`).
    """
    raw = [Fraction(1, 1 << len(t.output_bits)) for t in rm.transitions[state]]
    total = sum(raw)
    return [w / total for w in raw]


def integer_weights(rm: ReducedMachine, state: int) -> list[int]:
    """`heuristic_weights` scaled to integers: 2**(longest output - length).

    Every weight is multiplied by the same positive constant, which keeps
    both the order of any two sums and their ties, so Huffman merging (and
    with it every code length and codeword) is unchanged.
    """
    lengths = [len(t.output_bits) for t in rm.transitions[state]]
    top = max(lengths)
    return [1 << (top - n) for n in lengths]


def huffman_code_lengths(weights) -> list[int]:
    """Optimal prefix-code lengths by pairwise merging of smallest weights.

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
    pop, replace = heapq.heappop, heapq.heapreplace
    for node in range(k, 2 * k - 1):
        wa, _, ia, na = pop(heap)
        wb, _, ib, nb = heap[0]
        replace(heap, (wa + wb, 1, min(ia, ib), node))
        parent[na] = parent[nb] = node
    # parents are numbered after their children; the root is the last node
    depth = [0] * (2 * k - 1)
    for i in range(2 * k - 3, -1, -1):
        depth[i] = depth[parent[i]] + 1
    return depth[:k]


def canonical_codewords(lengths) -> list[str]:
    """Canonical assignment: sort by (length, index), count upward."""
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


@dataclass(frozen=True)
class StateCodeTable:
    """Codewords for one state, aligned with its transition order."""

    state: int
    codewords: tuple[str, ...]
    max_len: int


class HfsacCodec:
    """Reduced machine plus one code table per state; immutable.

    The global row ids of `outputs` are those of `rm.inputs`.  A step's
    swap position is its swap draw modulo its state's entry of
    `swap_moduli`, max_len + 1; `no_swap_draw`, -1 modulo every entry,
    puts the swap at max_len, past the last bit of every codeword.
    """

    __slots__ = ("rm", "tables", "swap_moduli", "no_swap_draw", "_outputs")

    def __init__(self, rm: ReducedMachine, tables):
        self.rm = rm
        self.tables: tuple[StateCodeTable, ...] = tuple(tables)
        self.swap_moduli = np.array(
            [t.max_len + 1 for t in self.tables], np.uint64
        )
        self.no_swap_draw = math.lcm(*set(self.swap_moduli.tolist())) - 1
        self._outputs: PrefixTable | None = None

    @property
    def outputs(self) -> PrefixTable:
        """The codewords of every state, built on first use."""
        if self._outputs is None:
            self._outputs = PrefixTable(t.codewords for t in self.tables)
        return self._outputs

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HfsacCodec)
            and self.rm == other.rm
            and self.tables == other.tables
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"HfsacCodec(states={self.rm.state_count})"


def walk_codewords(codec: HfsacCodec, code: str, n_bits: int, jumps, swaps, fail):
    """Parse `code` into codewords from state 0 until n_bits input bits are
    decoded, a block of steps at a time.

    `jumps(m)` gives the next m steps' jump targets (see `prefix`) and
    `swaps(m)` their swap draws; a step's swap position is its draw modulo
    its state's max_len + 1.  Yields the global rows matched, per block.
    On a window that matches no codeword within `code`, calls
    `fail(state, pos)`, which raises.
    """
    table = codec.outputs
    index = table.index
    code_lengths = memoryview(table.lengths)
    block_lengths = memoryview(codec.rm.inputs.lengths)
    next_state = memoryview(codec.rm.next_state)
    modulus = memoryview(codec.swap_moduli)
    win = windows(code)
    n = len(code)
    shift, mask = WINDOW_BITS, WINDOW_MASK
    pos = done = state = 0
    while done < n_bits:
        m = min(BLOCK_STEPS, n_bits - done)
        rows: list[int] = []
        append = rows.append
        for target, draw in zip(jumps(m).tolist(), swaps(m)):
            if target >= 0:
                state = target
            swap_pos = draw % modulus[state]
            row = index[(state << shift) | (win[pos] ^ (mask >> swap_pos))]
            if row < -1:  # a codeword longer than the window
                row = table.descend(win, row, pos, swap_pos)
            if row < 0 or pos + code_lengths[row] > n:
                fail(state, pos)
            append(row)
            pos += code_lengths[row]
            done += block_lengths[row]
            state = next_state[row]
            if done >= n_bits:
                break
        yield np.array(rows, np.int32)


def attach_tables(rm: ReducedMachine) -> HfsacCodec:
    """Build the per-state code tables for a reduced machine, from each
    state's `integer_weights`."""
    tables = []
    for s in range(rm.state_count):
        lengths = huffman_code_lengths(integer_weights(rm, s))
        codes = canonical_codewords(lengths)
        tables.append(StateCodeTable(s, tuple(codes), max(lengths)))
    return HfsacCodec(rm, tables)


def build_codec(params: CoderParams) -> HfsacCodec:
    """The codec for `params`: full machine, mute-edge reduction, tables."""
    return attach_tables(reduce_machine(build_full_fsm(params)))


def swap_codeword(code: str, pos: int) -> str:
    """Complement every bit at index >= pos; pos past the end is the identity."""
    if pos < 0:
        raise ValueError(f"swap position must be >= 0, got {pos}")
    if pos >= len(code):
        return code
    return code[:pos] + code[pos:].translate(_FLIP)


def hfac_encode(bits: str, codec: HfsacCodec) -> str:
    """Keyless encode: concatenated codewords along the block parse."""
    from .reducer import fsac_parse

    steps, _ = fsac_parse(bits, codec.rm)
    return "".join(codec.tables[s].codewords[i] for s, i in steps)


def hfac_decode(code: str, codec: HfsacCodec, n_bits: int) -> str:
    """Keyless decode of hfac_encode output, truncated to n_bits."""

    def fail(state: int, pos: int):
        raise CorruptStreamError("corrupt HFAC stream")

    no_swap = codec.no_swap_draw
    blocks = walk_codewords(
        codec, code, n_bits, no_jumps, lambda m: [no_swap] * m, fail
    )
    return "".join(codec.rm.inputs.expand(rows) for rows in blocks)[:n_bits]

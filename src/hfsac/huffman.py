"""Per-state prefix codes replacing the arithmetic outputs.

Each state is treated as a standalone source whose symbol weights are
2**(-output length), normalized.  A canonical Huffman code over those
weights gives every transition a self-contained codeword, which keeps the
stream parseable across keyed state jumps.  The swap transform complements
every codeword bit from a chosen position on; it permutes the code tree, so
prefix-freeness survives.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .bitio import BitSource, Bits, BitWriter
from .coder import CoderParams, build_full_fsm
from .prefix import PrefixTable, _kraft_words, kernel, state_rows, walk
from .reducer import ReducedMachine, reduce_machine

_FLIP = str.maketrans("01", "10")


class CorruptStreamError(ValueError):
    """Keyless decode hit bits that match no codeword."""


def integer_weights(rm: ReducedMachine) -> np.ndarray:
    """The weight of every row, 2**-(output length) normalized per state,
    scaled per state to integers: 2**(the state's longest output - length).

    Every weight of a state is multiplied by the same positive constant,
    which keeps both the order of any two sums and their ties, so Huffman
    merging (and with it every code length and codeword) is unchanged.
    """
    top = np.maximum.reduceat(rm.out_len, rm.row_base[:-1])
    return np.left_shift(1, np.repeat(top, rm.counts) - rm.out_len, dtype=np.int64)


def code_lengths(counts, weights) -> np.ndarray:
    """Optimal prefix-code lengths of every state at once (int32), by
    pairwise merging of smallest weights; `counts[s]` consecutive weights
    belong to state s.  The merging is `huffman_lengths` of _walk.c, a
    binary heap per state.

    Ties break deterministically: equal weights prefer leaves over merged
    nodes, then the node holding the smallest transition index.  Both go
    into one merge key with the weight, which must fit in 62 bits.
    """
    weights = np.ascontiguousarray(weights, np.int64)
    counts = state_rows(counts, len(weights))
    width = int(counts.max(initial=0))
    lengths = np.empty(len(weights), np.int32)
    heap, scratch = np.empty(width, np.uint64), np.empty(3 * width, np.int32)
    if kernel().huffman_lengths(
        counts.ctypes.data, len(counts), weights.ctypes.data, lengths.ctypes.data,
        heap.ctypes.data, scratch.ctypes.data,
    ):
        raise OverflowError("Huffman weights too wide for the merge key")
    return lengths


def canonical_bits(counts, lengths) -> np.ndarray:
    """Canonical codewords of every state at once, as 0/1 bytes in row
    order: sorted by (length, index), they count upward: the Kraft prefix
    sums taken in that order."""
    return _kraft_words(counts, lengths, True)


@dataclass(frozen=True)
class StateCodeTable:
    """Codewords for one state, aligned with its transition order."""

    state: int
    codewords: tuple[str, ...]
    max_len: int


class HfsacCodec:
    """Reduced machine plus one prefix code per state, as columns; immutable.

    Row r of `rm` has the codeword of `code_len[r]` bits, row r of the prefix
    table `outputs`, which holds all the codewords' `bits`, 0/1 bytes in row
    order; its row ids are those of `rm.inputs`.  A step's swap position is
    its swap draw modulo its state's entry of `swap_moduli`, max_len + 1
    (uint64, as the keystream's draws), which the step loop reads per step.
    `tables` is an object view, built on first access.
    """

    def __init__(self, rm: ReducedMachine, code_len, bits):
        self.rm = rm
        self.outputs = PrefixTable(rm.row_base, rm.row_state, code_len, bits)
        self.code_len = self.outputs.lengths
        max_len = np.maximum.reduceat(self.code_len, rm.row_base[:-1])
        self.swap_moduli = (max_len + 1).astype(np.uint64)

    @functools.cached_property
    def tables(self) -> tuple[StateCodeTable, ...]:
        words = self.outputs.words()
        base = self.rm.row_base.tolist()
        return tuple(
            StateCodeTable(s, tuple(words[a:b]), m - 1)
            for s, (a, b, m) in enumerate(
                zip(base, base[1:], self.swap_moduli.tolist())
            )
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HfsacCodec)
            and self.rm == other.rm
            and np.array_equal(self.code_len, other.code_len)
            and np.array_equal(self.outputs._bits, other.outputs._bits)
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"HfsacCodec(states={self.rm.state_count})"


def attach_tables(rm: ReducedMachine) -> HfsacCodec:
    """Build the per-state code tables for a reduced machine, from each
    state's `integer_weights`, for all states at once."""
    lengths = code_lengths(rm.counts, integer_weights(rm))
    return HfsacCodec(rm, lengths, canonical_bits(rm.counts, lengths))


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


def _walk_text(codec: HfsacCodec, text: str, limit: int, **kwargs) -> str:
    """The words that a keyless walk of `codec` over `text` emits, as text."""
    buf = bytearray()
    out = BitWriter(buf.extend)
    walk(codec.rm, BitSource.of(Bits.from_text(text)), limit, codec.outputs, out=out, **kwargs)
    return Bits(buf, out.flush()).to_text()


def hfac_encode(bits: str, codec: HfsacCodec) -> str:
    """Keyless encode: concatenated codewords along the block parse."""
    return _walk_text(codec, bits, len(bits))


def hfac_decode(code: str, codec: HfsacCodec, n_bits: int) -> str:
    """Keyless decode of hfac_encode output, truncated to n_bits."""
    return _walk_text(codec, code, n_bits, fail=(CorruptStreamError, CorruptStreamError))

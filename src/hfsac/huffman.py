"""Per-state prefix codes replacing the arithmetic outputs.

Each state is treated as a standalone source whose symbol weights are
2**(-output length), normalized.  A canonical Huffman code over those
weights gives every transition a self-contained codeword, which keeps the
stream parseable across keyed state jumps.  The swap transform complements
every codeword bit from a chosen position on; it permutes the code tree, so
prefix-freeness survives.  The codewords are built packed, in row order, the
one form in which `PrefixTable` holds every table's words.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .bitio import BitSource, Bits, BitWriter
from .coder import CoderParams, build_full_fsm
from .prefix import PrefixTable, kernel, packed_bytes, walk
from .reducer import ReducedMachine, reduce_machine

_FLIP = str.maketrans("01", "10")


class CorruptStreamError(ValueError):
    """Keyless decode hit bits that match no codeword."""


@dataclass(frozen=True)
class StateCodeTable:
    """Codewords for one state, aligned with its transition order."""

    state: int
    codewords: tuple[str, ...]
    max_len: int


class HfsacCodec:
    """Reduced machine plus one prefix code per state, as columns; immutable.

    Row r of `rm` has the codeword of `code_len[r]` bits, row r of the prefix
    table `outputs`, which holds all the codewords' `bits`, packed in row
    order; its row ids are those of `rm.inputs`.  A step's swap position is
    its swap draw modulo its state's entry of `swap_moduli`, max_len + 1
    (uint64, as the keystream's draws), which the step loop reads per step.
    `tables` is an object view, built on first access.
    """

    def __init__(self, rm: ReducedMachine, code_len, bits):
        self.rm = rm
        self.outputs = PrefixTable(rm.row_base, code_len, bits)
        self.code_len = self.outputs.lengths
        if len(self.code_len) != len(rm.next_state):
            raise ValueError("a codeword per row")
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
    """Build the per-state code tables for a reduced machine, all states at
    once: `huffman_lengths` of _walk.c merges each state's rows, weighted
    2**(the state's longest output - output length), and `kraft_words`
    writes their canonical codewords, packed in row order.  Ties break
    deterministically: equal weights prefer leaves over merged nodes, then
    the node holding the smallest row.  Both go into one merge key with the
    weight, which must fit in 62 bits, and a codeword has at most 63."""
    lib, counts, width = kernel(), rm.counts.ctypes.data, int(rm.counts.max())
    lengths = np.empty(len(rm.next_state), np.int32)
    heap, scratch = np.empty(width, np.uint64), np.empty(3 * width, np.int32)
    if lib.huffman_lengths(
        counts, rm.state_count, rm.out_len.ctypes.data, lengths.ctypes.data,
        heap.ctypes.data, scratch.ctypes.data,
    ):
        raise OverflowError("Huffman weights too wide for the merge key")
    bits = np.zeros(packed_bytes(lengths.sum(dtype=np.int64)), np.uint8)
    if lib.kraft_words(counts, rm.state_count, lengths.ctypes.data, bits.ctypes.data):
        raise OverflowError("words longer than 63 bits")
    return HfsacCodec(rm, lengths, bits)


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

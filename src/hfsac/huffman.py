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

from .bitio import BitSource, Bits
from .coder import CoderParams, build_full_fsm
from .prefix import PrefixTable, kraft_bits, no_jumps, walk
from .reducer import ReducedMachine, parse_rows, reduce_machine

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


def _merge_group(weights: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Huffman code lengths of every row of a (states, width) weight array
    whose row s holds `counts[s]` weights, then padding.

    A live node sits in the column of its smallest leaf index, and its key
    (weight, merged, smallest leaf index) is packed into one int64, so one
    sort orders each row.  Merged weights only grow, so every node of the
    least live weight w exists before the first of them is merged: their
    first two, next two, ... in key order are exactly the next merges, one
    at a time, each into a node of weight 2w.  A lone node of weight w
    merges with the next key.  Node ids count up per state, children
    before parents, so the root is node 2*count - 2; depths follow the
    parent links by pointer doubling.
    """
    g, width = weights.shape
    b = width.bit_length()  # leaf index < 2**b; bit b marks a merged node
    if int(weights.sum(1).max()).bit_length() + b + 1 > 62:
        raise OverflowError("Huffman weights too wide for the merge key")
    dead = np.iinfo(np.int64).max
    cols = np.arange(width)
    key = np.where(cols < counts[:, None], (weights << (b + 1)) | cols, dead)
    node = np.tile(cols, (g, 1))  # id of the node in each column
    root = 2 * counts - 2
    parent = np.repeat(root[:, None], 2 * width - 1, 1)
    flat_key, flat_node, flat_parent = key.ravel(), node.ravel(), parent.ravel()
    next_id = counts.copy()
    live = counts.copy()
    leaf = (1 << b) - 1
    while live.max() > 1:
        ordered = np.sort(key, 1)
        # the run of least weight: keys below the next weight up
        above = ((ordered[:, :1] >> (b + 1)) + 1) << (b + 1)
        run = np.count_nonzero(ordered < above, 1)
        pairs = np.where(live > 1, np.maximum(run >> 1, 1), 0)
        p = int(pairs.max())
        take = cols[:p] < pairs[:, None]
        row = np.nonzero(take)[0]
        first, second = ordered[:, 0 : 2 * p : 2][take], ordered[:, 1 : 2 * p : 2][take]
        new = (next_id[:, None] + cols[:p])[take]
        a, c = (first & leaf) + row * width, (second & leaf) + row * width
        flat_parent[flat_node[a] + row * (2 * width - 1)] = new
        flat_parent[flat_node[c] + row * (2 * width - 1)] = new
        lo, hi = np.minimum(a, c), np.maximum(a, c)
        total = (first >> (b + 1)) + (second >> (b + 1))
        flat_key[lo] = (total << (b + 1)) | (1 << b) | (lo - row * width)
        flat_key[hi] = dead
        flat_node[lo] = new
        next_id += pairs
        live -= pairs
    up = flat_parent + np.repeat(np.arange(g) * (2 * width - 1), 2 * width - 1)
    top = root + np.arange(g) * (2 * width - 1)
    depth = np.ones(up.size, np.int64)
    depth[top] = 0
    while (up[up] != up).any():
        depth += depth[up]
        up = up[up]
    return depth.reshape(g, -1)[:, :width]


def code_lengths(counts, weights) -> np.ndarray:
    """Optimal prefix-code lengths of every state at once, by pairwise
    merging of smallest weights; `counts[s]` consecutive weights belong to
    state s.

    Ties break deterministically: equal weights prefer leaves over merged
    nodes, then the node holding the smallest transition index.  States
    merge together in groups whose row counts round up to the same power of
    two.
    """
    counts = np.asarray(counts, np.int64)
    base = np.cumsum(counts) - counts
    width = np.left_shift(1, np.ceil(np.log2(np.maximum(counts, 2))).astype(np.int64))
    lengths = np.empty(len(weights), np.int64)
    for w in sorted(set(width.tolist())):  # np.unique would import numpy.ma
        group = np.flatnonzero(width == w)
        real = np.arange(w) < counts[group, None]
        cells = (base[group, None] + np.arange(w))[real]
        padded = np.zeros((len(group), w), np.int64)
        padded[real] = weights[cells]
        lengths[cells] = _merge_group(padded, counts[group])[real]
    return lengths


def canonical_bits(counts, lengths) -> np.ndarray:
    """Canonical codewords of every state at once, as 0/1 bytes in row
    order: sorted by (length, index), they count upward: the Kraft prefix
    sums taken in that order."""
    order = np.lexsort((lengths, np.repeat(np.arange(len(counts)), counts)))
    return kraft_bits(counts, lengths, order)


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


def hfac_encode(bits: str, codec: HfsacCodec) -> str:
    """Keyless encode: concatenated codewords along the block parse."""
    return codec.outputs.expand(parse_rows(Bits.from_text(bits), codec.rm))


def hfac_decode(code: str, codec: HfsacCodec, n_bits: int) -> str:
    """Keyless decode of hfac_encode output, truncated to n_bits."""
    blocks = walk(
        codec.rm, codec.outputs, BitSource.of(Bits.from_text(code)), n_bits, no_jumps,
        fail=(CorruptStreamError, CorruptStreamError),
    )
    return "".join(codec.rm.inputs.expand(rows) for rows, _ in blocks)[:n_bits]

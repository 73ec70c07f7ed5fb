"""Prefix-code lookup by fixed-width bit windows.

A `PrefixTable` holds one prefix code per state: the input blocks of a
reduced machine, its arithmetic outputs, or the codewords of its code
tables.  Every word gets a global row id; the words of state s are rows
`row_base[s]` up to `row_base[s + 1]`, in transition order.  Word r is
given as columns: its length and its bits as an integer, most significant
bit first.

The window index maps a state and the next WINDOW_BITS bits of a stream to
the row whose word prefixes those bits, in one lookup at
`(state << WINDOW_BITS) | window`.  A word longer than the window continues
in a child node of the same width, which the entry names as `-2 - child`
and which is looked up with the window WINDOW_BITS further on; -1 marks a
window that no word prefixes.  Complementing a word's bits from
position p on commutes with taking a prefix, so a swapped word is matched by
XOR-ing the window before the lookup.

The walks over these tables run a block of steps at a time; `jumps(m)`
callables give each of the next m steps its jump target, or -1 where the
step stays on the state the last step carried over.
"""

from __future__ import annotations

import sys

import numpy as np

from .bitio import Bits

WINDOW_BITS = 8
WINDOW_MASK = (1 << WINDOW_BITS) - 1
# steps per keystream block; bounds the memory of one block's emit
BLOCK_STEPS = 1 << 13
# the window at bit k of a byte: its 16-bit read shifted right by 8 - k
_SHIFTS = np.arange(WINDOW_BITS, 0, -1, dtype=np.uint16)
_CHUNK = 1 << 12
# below these sizes numpy's per-call cost outweighs its speed: windows of
# a short stream come from one Python int, a few unswapped words are
# sliced one by one (measured crossovers: 10-12 bytes, 16-20 words)
_SHORT_BYTES = 10
_FEW_ROWS = 16
# a swap position beyond the longest word: nothing is complemented
_PAST_WORDS = sys.maxsize
_LIMB_MASK = (1 << 64) - 1


def no_jumps(m: int) -> np.ndarray:
    """Jump targets of m steps that never jump."""
    return np.full(m, -1, np.int64)


def windows(bits: Bits) -> bytearray:
    """WINDOW_BITS-bit window at every bit position of `bits`, up to the
    end of its last byte and one past it; bits past the end read as 0.

    The window at bit 8i + k is the big-endian 16-bit read of bytes i and
    i + 1, shifted right by 8 - k.  A pass covers _CHUNK bytes, which
    bounds its temporaries.
    """
    n_bytes = len(bits.data)
    if n_bytes <= _SHORT_BYTES:
        top = 8 * n_bytes
        value = int.from_bytes(bits.data, "big") << WINDOW_BITS
        return bytearray([value >> (top - p) & WINDOW_MASK for p in range(top + 1)])
    data = np.zeros(n_bytes + 1, np.uint8)
    data[:-1] = np.frombuffer(bits.data, np.uint8)
    win = bytearray(8 * n_bytes + 1)
    grid = np.frombuffer(win, np.uint8)[:-1].reshape(n_bytes, 8)
    for a in range(0, n_bytes, _CHUNK):
        b = min(a + _CHUNK, n_bytes)
        pair = data[a:b].astype(np.uint16) << 8 | data[a + 1 : b + 1]
        grid[a:b] = pair[:, None] >> _SHIFTS
    return win


def bit_string(length: int, value: int) -> str:
    """The `length`-bit big-endian string of `value` (< 2**length)."""
    return bin(value | 1 << length)[3:]


def _word_bits(lengths: np.ndarray, bits) -> np.ndarray:
    """The bits of every word as 0/1 bytes, most significant bit first.

    Python int arithmetic cuts each word into 64-bit limbs, one pass per
    limb: one pass on every practical machine, 2**(n_bits - 7) passes for
    the longest input blocks of skewed ones.  The words' big-endian bytes,
    unpacked, are cut to their lengths.
    """
    width = max(int(lengths.max(initial=0)), 1)
    n_limbs = -(-width // 64)
    limbs = np.empty((len(lengths), n_limbs), ">u8")
    for j in range(n_limbs):
        shift = 64 * (n_limbs - 1 - j)
        limbs[:, j] = [v >> shift & _LIMB_MASK for v in bits]
    n_bytes = -(-width // 8)
    raw = limbs.view(np.uint8).reshape(len(lengths), -1)[:, -n_bytes:]
    grid = np.unpackbits(raw, 1)
    starts = (8 * n_bytes - lengths)[:, None]
    return grid[np.arange(8 * n_bytes, dtype=lengths.dtype) >= starts]


class PrefixTable:
    """Prefix codes of all states over global row ids; immutable.

    The window index is built on first use, so a table that is only
    expanded never pays for it.
    """

    __slots__ = ("row_base", "row_state", "lengths", "_bits", "_offsets", "_index")

    def __init__(self, counts, lengths, bits):
        """`counts[s]` words for state s; word r has `lengths[r]` bits, the
        Python int `bits[r]`.  Words may be longer than 64 bits: the input
        blocks of skewed machines run to 2**(n_bits - 1) bits."""
        self.row_base = np.zeros(len(counts) + 1, np.int64)
        np.cumsum(counts, out=self.row_base[1:])
        self.row_state = np.repeat(np.arange(len(counts), dtype=np.int32), counts)
        self.lengths = np.asarray(lengths, np.int32)
        self._offsets = np.cumsum(self.lengths, dtype=np.int64) - self.lengths
        self._bits = _word_bits(self.lengths, bits)
        self._index: memoryview | None = None

    @property
    def index(self) -> memoryview:
        """Flat int32 window index, one node of 2**WINDOW_BITS entries per
        state, then the child nodes."""
        if self._index is None:
            self._index = memoryview(self._build_index())
        return self._index

    def _build_index(self) -> np.ndarray:
        k = WINDOW_BITS
        packed = Bits._trusted(np.packbits(self._bits).tobytes(), len(self._bits))
        win = np.frombuffer(windows(packed), np.uint8)
        rows = np.arange(len(self.lengths), dtype=np.int64)
        node = self.row_state.astype(np.int64)
        off = self._offsets
        left = self.lengths.astype(np.int64)
        n_nodes = len(self.row_base) - 1
        fills = []  # (first entry, entries, value) of every word and child link
        while rows.size:
            short = left <= k
            keep = np.minimum(left, k)
            start = (node << k) | ((win[off] >> (k - keep)) << (k - keep))
            long_ = ~short
            slots, child = np.unique(start[long_], return_inverse=True)
            fills.append((slots, np.ones_like(slots), -2 - n_nodes - np.arange(len(slots))))
            fills.append((start[short], 1 << (k - keep[short]), rows[short]))
            rows, node = rows[long_], n_nodes + child
            off, left = off[long_] + k, left[long_] - k
            n_nodes += len(slots)
        # the fills of a prefix code are disjoint: in order of their first
        # entry, each follows a gap of -1 entries
        first, span, value = map(np.concatenate, zip(*fills))
        del fills
        order = np.argsort(first, kind="stable")
        first, span = first[order], span[order]
        runs = np.empty(2 * len(order) + 1, np.int64)  # gap, fill, ..., fill, gap
        runs[1::2] = span
        runs[::2] = np.append(first, n_nodes << k) - np.append(0, first + span)
        if (runs < 0).any():
            raise ValueError("the words are not a prefix code")
        values = np.full(len(runs), -1, np.int32)
        values[1::2] = value[order]
        del first, span, value, order  # the index is the build's peak: free them first
        return np.repeat(values, runs)

    def descend(self, win, entry: int, pos: int, swap_pos: int = _PAST_WORDS) -> int:
        """Row whose word prefixes the stream at `pos`, or -1.

        `entry` is the index entry of the stream's window at `pos`; a child
        link (`entry < -1`) is followed through the windows `win[pos + 8]`,
        `win[pos + 16]`, ..., and windows past the end of `win` read as 0.
        The word is matched as if complemented from `swap_pos` on, which by
        default lies past every word.
        """
        index = self.index
        off = WINDOW_BITS
        while entry < -1:
            window = win[pos + off] if pos + off < len(win) else 0
            window ^= WINDOW_MASK >> max(swap_pos - off, 0)
            entry = index[((-2 - entry) << WINDOW_BITS) | window]
            off += WINDOW_BITS
        return entry

    def gather(self, rows: np.ndarray, swap_pos: np.ndarray | None = None) -> np.ndarray:
        """Concatenated words of `rows` as 0/1 bytes; each complemented
        from its `swap_pos` on, when given."""
        lengths = self.lengths[rows]
        if swap_pos is None and 0 < len(rows) <= _FEW_ROWS:
            offsets = self._offsets[rows].tolist()
            return np.concatenate(
                [self._bits[a : a + n] for a, n in zip(offsets, lengths.tolist())]
            )
        starts = np.cumsum(lengths, dtype=np.int64) - lengths
        at = np.arange(starts[-1] + lengths[-1] if len(rows) else 0)
        out = self._bits[at + np.repeat(self._offsets[rows] - starts, lengths)]
        if swap_pos is not None:
            out ^= at >= np.repeat(starts + swap_pos, lengths)
        return out

    def expand(self, rows: np.ndarray) -> str:
        """Concatenated words of `rows` as '0'/'1' text."""
        return (self.gather(rows) | ord("0")).tobytes().decode("ascii")

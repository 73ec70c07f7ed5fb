"""Prefix-code lookup by fixed-width bit windows.

A `PrefixTable` holds one prefix code per state: the input blocks of a
reduced machine, or the codewords of its code tables.  Every word gets a
global row id; the words of state s are rows `row_base[s]` up to
`row_base[s + 1]`, in transition order.

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

WINDOW_BITS = 8
WINDOW_MASK = (1 << WINDOW_BITS) - 1
# steps per keystream block; bounds the memory of one block's emit
BLOCK_STEPS = 1 << 13
# rows per fill of the window index; bounds its temporaries
_FILL_ROWS = 1 << 12
_WEIGHTS = (1 << np.arange(WINDOW_BITS)).astype(np.uint8)
# a swap position beyond the longest word: nothing is complemented
_PAST_WORDS = sys.maxsize


def no_jumps(m: int) -> np.ndarray:
    """Jump targets of m steps that never jump."""
    return np.full(m, -1, np.int64)


def _window_array(bits01: np.ndarray) -> np.ndarray:
    """WINDOW_BITS-bit window at every position of a 0/1 array and one
    past its end; bits past the end read as 0."""
    padded = np.zeros(len(bits01) + WINDOW_BITS, np.uint8)
    padded[: len(bits01)] = bits01
    # window i is the sum of padded[i + k] << (7 - k): one call, cheap on short strings
    return np.convolve(padded, _WEIGHTS, "valid")


def windows(bits: str) -> bytes:
    """`_window_array` of a bit string, as bytes for fast indexing."""
    if bits.count("0") + bits.count("1") != len(bits):
        raise ValueError("bit strings hold only '0' and '1'")
    return _window_array(np.frombuffer(bits.encode("ascii"), np.uint8) & 1).tobytes()


class PrefixTable:
    """Prefix codes of all states over global row ids; immutable.

    The window index is built on first use, so a table that is only
    expanded never pays for it.
    """

    __slots__ = ("row_base", "row_state", "lengths", "_text", "_offsets", "_index")

    def __init__(self, codes):
        counts = []
        words: list[str] = []
        for row in codes:
            counts.append(len(row))
            words.extend(row)
        self.row_base = np.zeros(len(counts) + 1, np.int64)
        np.cumsum(counts, out=self.row_base[1:])
        self.row_state = np.repeat(np.arange(len(counts), dtype=np.int32), counts)
        self.lengths = np.fromiter(map(len, words), np.int32, len(words))
        self._offsets = np.cumsum(self.lengths, dtype=np.int64) - self.lengths
        self._text = np.frombuffer("".join(words).encode("ascii"), np.uint8)
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
        win = _window_array(self._text & 1)
        rows = np.arange(len(self.lengths), dtype=np.int64)
        node = self.row_state.astype(np.int64)
        off = self._offsets
        left = self.lengths.astype(np.int64)
        n_nodes = len(self.row_base) - 1
        fills = []  # (first entry, entries, value), applied in this order
        while rows.size:
            short = left <= k
            keep = np.minimum(left, k)
            start = (node << k) | ((win[off] >> (k - keep)) << (k - keep))
            long_ = ~short
            slots, child = np.unique(start[long_], return_inverse=True)
            fills.append((slots, np.ones_like(slots), -2 - n_nodes - np.arange(len(slots))))
            # shorter words fill after the child links: the shortest match wins
            fills.append((start[short], 1 << (k - keep[short]), rows[short]))
            rows, node = rows[long_], n_nodes + child
            off, left = off[long_] + k, left[long_] - k
            n_nodes += len(slots)
        index = np.full(n_nodes << k, -1, np.int32)
        for start, span, value in fills:
            for i in range(0, len(start), _FILL_ROWS):
                s, n, v = (a[i : i + _FILL_ROWS] for a in (start, span, value))
                first = np.repeat(s - np.cumsum(n) + n, n)
                index[first + np.arange(len(first))] = np.repeat(v, n)
        return index

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

    def expand(self, rows: np.ndarray, swap_pos: np.ndarray | None = None) -> str:
        """Concatenated words of `rows`; each complemented from its
        `swap_pos` on, when given."""
        lengths = self.lengths[rows]
        total = int(lengths.sum())
        within = np.arange(total) - np.repeat(np.cumsum(lengths) - lengths, lengths)
        out = self._text[np.repeat(self._offsets[rows], lengths) + within]
        if swap_pos is not None:
            out ^= within >= np.repeat(swap_pos, lengths)
        return out.tobytes().decode("ascii")

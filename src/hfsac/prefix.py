"""Prefix-code lookup by fixed-width bit windows, and the one walk over it.

A `PrefixTable` holds one prefix code per state: the input blocks of a
reduced machine or the codewords of its code tables.  Every word gets a
global row id; the words of state s are rows `row_base[s]` up to
`row_base[s + 1]`, in transition order.  The words are given as their
lengths and all their bits in row order, as 0/1 bytes, each word MSB first.

The window index maps a state and the next WINDOW_BITS bits of a stream to
the row whose word prefixes those bits, in one lookup at
`(state << WINDOW_BITS) | window`.  A word longer than the window continues
in a child node, looked up with the window WINDOW_BITS further on cut to
the node's width w: its top w bits, where w is the most bits any word under
the node has left, up to WINDOW_BITS.  The entry that links to the node is
`-2 - (start << 3 | WINDOW_BITS - w)`, from its first entry `start` and the
bits its lookup drops; -1 marks a window that no word prefixes.
Complementing a word's bits from position p on commutes with taking a
prefix, so a swapped word is matched by XOR-ing the window before the
lookup.

`walk` steps a reduced machine through a stream over one of its tables,
a keystream block of steps at a time: the input blocks for encrypt and
the block parse, the codewords for decrypt and the keyless decode.  It
reads the stream's packed bytes through one `ByteBuffer`, which holds a
block's worth of them, so its memory does not grow with the stream.
`jumps(m)` callables give each of the next m steps its jump target, or -1
where the step stays on the state the last step carried over.  The steps
themselves run in one C function, `walk_block` of _walk.c; only a keyed
decode passes it swap draws.  `kernel` compiles _walk.c with the system C
compiler on first use and loads it through ctypes, for `walk_block`, for
`explore`, the state exploration of `coder.build_full_fsm`, for
`reduce_rows`, the mute-edge reduction of `reducer.reduce_machine`, for
the table stages: `huffman_lengths` (`huffman.code_lengths`) and
`kraft_words` (`kraft_bits` and `huffman.canonical_bits`), and for
`window_index`, the build of `PrefixTable.index`.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import shutil
import tempfile
import zlib

import numpy as np

from .bitio import BitSource

WINDOW_BITS = 8
# steps per keystream block; bounds the memory of one block's emit, and a
# walk's byte buffer to BLOCK_STEPS longest words
BLOCK_STEPS = 1 << 13
# output bits per gather pass: bounds its temporaries (about 25 B per bit).
# Their int64 arrays stay at 64 KiB, under glibc's default 128-KiB trim
# threshold: larger passes let the heap shrink and regrow every keystream
# block, and a decode of 96 KiB then faulted in ~4,000 pages, not ~500
_PASS_BITS = 1 << 13
# a child link holds its node's first entry above 3 bits of width
_MAX_ENTRIES = (1 << 28) - 1
# the kernels' source, compiled on first use with these flags; no
# -march=native, so a cached library runs on any host of the architecture
_SOURCE = os.path.join(os.path.dirname(__file__), "_walk.c")
_CFLAGS = ("-O2", "-shared", "-fPIC")


def no_jumps(m: int) -> np.ndarray:
    """Jump targets of m steps that never jump."""
    return np.full(m, -1, np.int64)


class ByteBuffer:
    """A stream's packed bytes, `span` of them at a time from a moving first
    byte, in one buffer allocated once (of the stream's bytes when they are
    fewer).  `data` is a ctypes array over it, `base` the stream byte of its
    first byte and `held` the bytes it holds."""

    __slots__ = ("_view", "_read", "_left", "data", "base", "held")

    def __init__(self, source: BitSource, span: int):
        self._left = (source.n + 7) // 8  # bytes not read yet
        buf = bytearray(min(span, self._left))
        self._view, self._read = memoryview(buf), source.read
        self.data = (ctypes.c_char * len(buf)).from_buffer(buf)
        self.base = self.held = 0

    def slide(self, bit: int) -> int:
        """Drop the bytes before the one that holds stream bit `bit`, read
        until `span` bytes from there are held, or all up to the stream's
        end, and give `bit`'s offset from the first bit held."""
        view, drop = self._view, (bit >> 3) - self.base
        held = self.held - drop
        view[:held] = view[drop : self.held]  # a memmove
        k = min(len(view) - held, self._left)
        data = self._read(k)
        if len(data) != k:
            raise ValueError(f"the stream ends {self._left - len(data)} bytes short")
        view[held : held + k] = data
        self.base, self.held, self._left = self.base + drop, held + k, self._left - k
        return bit - 8 * self.base


def bit_string(length: int, value: int) -> str:
    """The `length`-bit big-endian string of `value` (< 2**length)."""
    return bin(value | 1 << length)[3:]


def state_rows(counts, rows: int) -> np.ndarray:
    """`counts` as contiguous int64, checked to split `rows` rows into
    states of `counts[s]` consecutive rows each, as the table kernels read
    them."""
    counts = np.ascontiguousarray(counts, np.int64)
    if (counts < 0).any() or counts.sum() != rows:
        raise ValueError(f"state row counts that add up to the {rows} rows")
    return counts


def kraft_bits(counts, lengths) -> np.ndarray:
    """The words of every state's complete prefix code, from their lengths
    alone, as 0/1 bytes in row order, each word most significant bit
    first; `counts[s]` consecutive lengths belong to state s.

    A word is the Kraft prefix sum of the words before it, sum
    2**(L_j - L_i), computed as a uint64 at the state's longest length and
    shifted down: `kraft_words` of _walk.c, in row order.  A code's
    lexicographic order is its row order; `huffman.canonical_bits` takes
    the canonical (length, index) order.
    """
    return _kraft_words(counts, lengths, False)


def _kraft_words(counts, lengths, canonical: bool) -> np.ndarray:
    """`kraft_bits`, in (length, index) order within each state where
    `canonical`."""
    lengths = np.ascontiguousarray(lengths, np.int32)
    counts = state_rows(counts, len(lengths))
    if (lengths < 0).any():
        raise ValueError("negative word lengths")
    bits = np.empty(int(lengths.sum(dtype=np.int64)), np.uint8)
    if kernel().kraft_words(
        counts.ctypes.data, len(counts), lengths.ctypes.data, canonical, bits.ctypes.data
    ):
        raise OverflowError("words longer than 63 bits")
    return bits


class PrefixTable:
    """Prefix codes of all states over global row ids; immutable.

    The window index is built on first use, so a table that is only
    expanded never pays for it.
    """

    __slots__ = (
        "_row_base", "_row_state", "lengths", "longest", "_bits", "_offsets", "_index"
    )

    def __init__(self, row_base, row_state, lengths, bits):
        """`row_base` and `row_state` (int32) are the machine's row layout,
        held by reference; word r has `lengths[r]` of the 0/1 `bits`, in row
        order.  Words may be longer than 64 bits: the input blocks of skewed
        machines run to 2**(n_bits - 1) bits."""
        self._row_base, self._row_state = row_base, row_state
        self.lengths = np.asarray(lengths, np.int32)
        self.longest = int(self.lengths.max(initial=0))
        self._offsets = np.cumsum(self.lengths, dtype=np.int64) - self.lengths
        self._bits = np.asarray(bits, np.uint8)
        if len(self._bits) != self.lengths.sum():
            raise ValueError("the bits are not as long as the words")
        self._index: np.ndarray | None = None

    @property
    def index(self) -> np.ndarray:
        """Flat int32 window index, one node of 2**WINDOW_BITS entries per
        state, then the child nodes of 2**w entries each."""
        if self._index is None:
            self._index = self._build_index()
        return self._index

    def _build_index(self) -> np.ndarray:
        """`window_index` of _walk.c: a pass that lays the nodes out and
        counts their entries, then one that writes every entry into an
        index of that size.  Entries fit in int32 (at most _MAX_ENTRIES)."""
        lengths = np.ascontiguousarray(self.lengths)
        row_base = np.ascontiguousarray(self._row_base, np.int64)
        states = len(row_base) - 1
        if row_base[0] != 0 or row_base[-1] != len(lengths) or (np.diff(row_base) < 0).any():
            raise ValueError("a row layout over the words")
        if (lengths < 0).any():
            raise ValueError("negative word lengths")
        bits = np.ascontiguousarray(self._bits)
        long_words = int(np.count_nonzero(lengths > WINDOW_BITS))
        scratch = np.empty(7 * long_words + 4, np.int32)
        args = (
            row_base.ctypes.data, states, lengths.ctypes.data, self._offsets.ctypes.data,
            bits.ctypes.data, len(bits), _MAX_ENTRIES, long_words, scratch.ctypes.data,
        )
        size = kernel().window_index(*args, None)
        if size < 0:
            raise ValueError(f"a window index of over {_MAX_ENTRIES} entries")
        index = np.empty(size, np.int32)
        if kernel().window_index(*args, index.ctypes.data) < 0:
            raise ValueError("the words are not a prefix code")
        return index

    def gather(self, rows: np.ndarray, swap_pos: np.ndarray | None = None) -> np.ndarray:
        """Concatenated words of `rows` as 0/1 bytes; each complemented
        from its `swap_pos` on, when given."""
        lengths = self.lengths[rows]
        ends = np.cumsum(lengths, dtype=np.int64)
        starts = ends - lengths
        out = np.empty(int(ends[-1]) if len(rows) else 0, np.uint8)
        a = 0
        while a < len(rows):  # passes of at most _PASS_BITS, or one word
            b = max(int(np.searchsorted(ends, starts[a] + _PASS_BITS, "right")), a + 1)
            lo, hi = int(starts[a]), int(ends[b - 1])
            at = np.arange(lo, hi)
            words = slice(a, b)
            n = lengths[words]
            shift = np.repeat(self._offsets[rows[words]] - starts[words], n)
            out[lo:hi] = self._bits[at + shift]
            if swap_pos is not None:
                out[lo:hi] ^= at >= np.repeat(starts[words] + swap_pos[words], n)
            a = b
        return out

    def expand(self, rows: np.ndarray) -> str:
        """Concatenated words of `rows` as '0'/'1' text."""
        return (self.gather(rows) | ord("0")).tobytes().decode("ascii")

    def words(self) -> list[str]:
        """Every word as '0'/'1' text, in row order."""
        text = (self._bits | ord("0")).tobytes().decode("ascii")
        ends = np.cumsum(self.lengths, dtype=np.int64).tolist()
        return [text[a:b] for a, b in zip(self._offsets.tolist(), ends)]


class KernelBuildError(RuntimeError):
    """The compiled kernels could not be built."""


def _compiler() -> str | None:
    """Path of the system C compiler, `cc`, or None."""
    return shutil.which("cc")


def _build(source: bytes, path: str) -> None:
    """Compile `source` into the shared library `path`."""
    cc = _compiler()
    if cc is None:
        raise KernelBuildError(
            "no C compiler: `cc` is not on PATH, and hfsac compiles its kernels "
            "(_walk.c) with it on first use"
        )
    import subprocess  # only a first use compiles; other calls skip its import

    # each build writes a file of its own: CLI calls may build at once, and
    # the last rename wins with the same library
    fd, part = tempfile.mkstemp(".part", os.path.basename(path), os.path.dirname(path))
    os.close(fd)
    try:
        done = subprocess.run(
            [cc, *_CFLAGS, "-x", "c", "-", "-o", part], input=source, capture_output=True
        )
        if done.returncode:
            raise KernelBuildError(
                f"{cc} failed on _walk.c: {done.stderr.decode(errors='replace').strip()}"
            )
        os.chmod(part, 0o755)  # mkstemp made it 0o600: other users load it too
        os.replace(part, path)
    finally:
        if os.path.exists(part):
            os.remove(part)


def _library(source: bytes) -> str:
    """Path of the compiled kernels, built there first if missing: in the
    package's __pycache__, or where that cannot be written, in a folder of
    this user's own under the temporary directory.  The name digests the
    source and the flags, so an edit builds a new library."""
    name = f"_walk-{zlib.crc32(source + ' '.join(_CFLAGS).encode()):08x}.so"
    folder = cache = os.path.join(os.path.dirname(_SOURCE), "__pycache__")
    if not os.path.exists(os.path.join(folder, name)):
        try:
            os.makedirs(folder, exist_ok=True)
            writable = os.access(folder, os.W_OK)
        except OSError:
            writable = False
        if not writable:
            folder = os.path.join(tempfile.gettempdir(), f"hfsac-{os.getuid()}")
            os.makedirs(folder, 0o700, exist_ok=True)
            # a library that another user can replace would run as this one
            info = os.stat(folder)
            if info.st_uid != os.getuid() or info.st_mode & 0o022:
                raise KernelBuildError(f"{folder} is not private to this user")
    path = os.path.join(folder, name)
    if not os.path.exists(path):
        _build(source, path)
        if folder == cache:  # not the temporary folder, which other checkouts share
            for other in os.listdir(cache):
                if other != name and other.startswith("_walk-") and other.endswith(".so"):
                    with contextlib.suppress(FileNotFoundError):  # removed by a concurrent build
                        os.remove(os.path.join(cache, other))
    return path


@functools.cache
def kernel() -> ctypes.CDLL:
    """The compiled _walk.c through ctypes, built on first use: `walk_block`
    for `StepLoop`, `explore` for `coder.build_full_fsm`, `reduce_rows` for
    `reducer.reduce_machine`, `huffman_lengths` and `kraft_words` for the
    code tables, and `window_index` for `PrefixTable.index`."""
    with open(_SOURCE, "rb") as f:
        source = f.read()
    lib = ctypes.CDLL(_library(source))
    ptr, i64 = ctypes.c_void_p, ctypes.c_int64
    lib.walk_block.argtypes = [ptr, ptr, ptr, ptr, ptr, i64, i64, i64, ptr, ptr, i64, ptr]
    lib.walk_block.restype = i64
    lib.explore.argtypes = [i64, i64, i64, i64, ptr, ptr, ptr, ptr, ptr, ptr, i64, ptr, i64, ptr]
    lib.explore.restype = ctypes.c_int
    lib.huffman_lengths.argtypes = [ptr, i64, ptr, ptr, ptr, ptr]
    lib.huffman_lengths.restype = ctypes.c_int
    lib.kraft_words.argtypes = [ptr, i64, ptr, ctypes.c_int, ptr]
    lib.kraft_words.restype = ctypes.c_int
    lib.reduce_rows.argtypes = [ptr, ptr, i64, ptr, ptr, ptr, ptr, ptr, ptr, ptr, ptr, i64, ptr]
    lib.reduce_rows.restype = ctypes.c_int
    lib.window_index.argtypes = [ptr, i64, ptr, ptr, ptr, i64, i64, i64, ptr, ptr]
    lib.window_index.restype = i64
    return lib


class StepLoop:
    """`walk_block` of _walk.c over `table`, `next_state` of its rows and,
    for swapped steps, `moduli` (uint64) of its states: their pointers and
    checks are taken once, for every block of a walk."""

    __slots__ = ("_arrays", "_fixed", "_states")

    def __init__(self, table: PrefixTable, next_state, moduli=None):
        # pointers go to C: each array is held here, contiguous and of its type
        index, lengths, next_state = (
            np.ascontiguousarray(a, np.int32) for a in (table.index, table.lengths, next_state)
        )
        self._states = len(table._row_base) - 1
        moduli = None if moduli is None else np.ascontiguousarray(moduli, np.uint64)
        if len(next_state) != len(lengths) or moduli is not None and len(moduli) != self._states:
            raise ValueError("one next state per row, and one modulus per state")
        self._arrays = index, lengths, next_state, moduli
        self._fixed = tuple(None if a is None else a.ctypes.data for a in self._arrays)

    def match_block(self, data, held, pos, state, targets, draws=None) -> np.ndarray:
        """Rows of up to len(targets) steps from bit `pos` of the first
        `held` bytes of `data` (bytes, or a ctypes array) and from `state`;
        a step jumps to its target where it is not negative, then moves to
        its row's next state.  Stops before a step whose window matches
        nothing or that starts past the one window after the held bytes,
        which read as 0 past their end.  With `draws` (uint64, one per
        step) a step matches its word complemented from its draw modulo its
        state's modulus on."""
        targets = np.ascontiguousarray(targets, np.int64)
        if draws is not None:
            draws = np.ascontiguousarray(draws, np.uint64)
            if self._arrays[3] is None or len(draws) != len(targets):
                raise ValueError("one draw per step, and moduli")
        if not 0 <= held <= len(data) or pos < 0 or not 0 <= state < self._states:
            raise ValueError("held bytes, a bit and a state that exist")
        rows = np.empty(len(targets), np.int64)
        k = kernel().walk_block(
            *self._fixed, data, held, pos, state, targets.ctypes.data,
            None if draws is None else draws.ctypes.data, len(targets), rows.ctypes.data,
        )
        return rows[:k]


def walk(rm, table: PrefixTable, stream: BitSource, limit: int, jumps, swaps=None, fail=None):
    """Parse the bits that `stream` reads into the words of `table`, the
    input blocks or the codewords of the reduced machine `rm`, from state
    0, a keystream block of at most BLOCK_STEPS steps at a time, until the
    input blocks of the rows matched add up to `limit` bits.  Yields, per
    block, the rows matched (int64) and their steps' jump targets.

    `swaps`, given only for a keyed decode, is (draws, moduli): `draws(m)`
    gives the next m steps' swap draws as uint64, and a step matches its
    word complemented from its draw modulo its state's entry of `moduli`
    (uint64) on.

    With `fail` None the stream is zero-padded past its end, and a window
    that no word of its state prefixes raises AssertionError.  Otherwise
    `fail` is (truncated, corrupt): a step that matches nothing or runs
    past the stream's end raises `truncated` when the stream ends within
    the state's longest word, `corrupt` otherwise, and stream bits left
    over at the end raise `corrupt`.  Messages name the step and its bit
    offset, which the error also carries as its `step` and `bit`.

    The stream is read through one `ByteBuffer`, slid to each block's
    first bit.  A block reads at most BLOCK_STEPS longest words of `table`
    from there, and its last window's 16-bit read ends within 15 bits of
    them, from a first bit up to 7 bits into its byte: the buffer holds
    that span, or all up to the stream's end.  `StepLoop` runs the block
    without testing the stream's end or the limit; the running sums of its
    word and input-block lengths then give the step that reached the limit
    and the first step that failed.
    """
    draws, moduli = swaps or (None, None)
    # the index is built first: its peak then holds no buffer or block arrays
    step_loop = StepLoop(table, rm.next_state, moduli)
    buffer = ByteBuffer(stream, -(-(BLOCK_STEPS * table.longest + 16) // 8) + 1)
    n = stream.n
    pos = done = state = steps = 0
    while done < limit:
        m = min(BLOCK_STEPS, limit - done)
        targets = jumps(m)
        drawn = None if draws is None else draws(m)
        at = buffer.slide(pos)
        rows = step_loop.match_block(buffer.data, buffer.held, at, state, targets, drawn)
        k = len(rows)
        # stream bits read and input bits fed in the block by the end of each
        # step: one sum when the stream is the input
        ends = table.lengths[rows].cumsum()
        fed = ends if table is rm.inputs else rm.inputs.lengths[rows].cumsum()
        # the first step that overran the stream, or k: a zero-padded stream
        # has no end to overrun
        bad = k if fail is None else int(ends.searchsorted(n - pos, "right"))
        stop = int(fed.searchsorted(limit - done))  # first step to reach the limit
        if bad <= stop and (bad < k or k < m):
            if targets[bad] >= 0:
                state = int(targets[bad])
            elif bad:
                state = int(rm.next_state[rows[bad - 1]])
            if fail is None:
                raise AssertionError(f"incomplete input block set in state {state}")
            step, bit = steps + bad, pos + (int(ends[bad - 1]) if bad else 0)
            words = table.lengths[rm.row_base[state] : rm.row_base[state + 1]]
            if bit + int(words.max()) > n:
                exc = fail[0](f"stream ends inside a codeword at step {step}, bit {bit}")
            else:
                exc = fail[1](f"no codeword of state {state} matches at step {step}, bit {bit}")
            exc.step, exc.bit = step, bit
            raise exc
        last = min(stop, k - 1)
        pos, done = pos + int(ends[last]), done + int(fed[last])
        state = int(rm.next_state[rows[last]])
        steps += last + 1
        del ends, fed  # not held through the next block's walk
        yield rows[: last + 1], targets[: last + 1]
    if pos < n:
        exc = fail[1](f"{n - pos} stream bits left over after step {steps}, at bit {pos}")
        exc.step, exc.bit = steps, pos
        raise exc

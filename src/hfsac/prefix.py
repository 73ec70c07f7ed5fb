"""Prefix-code lookup by fixed-width bit windows, and the one walk over it.

A `PrefixTable` holds one prefix code per state: the input blocks of a
reduced machine or the codewords of its code tables.  Every word gets a
global row id; the words of state s are rows `row_base[s]` up to
`row_base[s + 1]`, in transition order.  The words are given as their
lengths and all their bits packed MSB first in row order, each word from
the bit after the last one's, as the kernels read every bit array.

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
the block parse, the codewords for decrypt and the keyless decode.  One
call of `draw_block` and one of `walk_block` per block draw the block's
keystream, run its steps up to the limit or the first that fails, and
emit their words packed into a `BitWriter`'s buffer.  Python keeps the
frame: the stream's bytes in one `ByteBuffer`, which holds a block's worth
of them, so that memory does not grow with the stream, and the errors.
`kernel` compiles _walk.c, whose header lists its kernels, with the
system C compiler on first use and loads it through ctypes.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import re
import shutil
import tempfile
import zlib

import numpy as np

from .bitio import BitSource, BitWriter

WINDOW_BITS = 8
# steps per keystream block; bounds the memory of one block's emit, and a
# walk's byte buffer to BLOCK_STEPS longest words
BLOCK_STEPS = 1 << 13
# a child link holds its node's first entry above 3 bits of width
_MAX_ENTRIES = (1 << 28) - 1
# the kernels' source, compiled on first use with these flags; no
# -march=native, so a cached library runs on any host of the architecture
_SOURCE = os.path.join(os.path.dirname(__file__), "_walk.c")
_CFLAGS = ("-O2", "-shared", "-fPIC")


class ByteBuffer:
    """A stream's packed bytes, `span` of them (or all, when fewer) at a time
    from a moving first byte, in one buffer allocated once and kept zero
    past them for `pad` bytes.  `data` is a ctypes array over it, `base` the
    stream byte of its first byte and `held` the bytes it holds."""

    __slots__ = ("_view", "_read", "_left", "_span", "data", "base", "held")

    def __init__(self, source: BitSource, span: int, pad: int):
        self._left = (source.n + 7) // 8  # bytes not read yet
        self._span = min(span, self._left)
        buf = bytearray(self._span + pad)
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
        k = min(self._span - held, self._left)
        data = self._read(k)
        if len(data) != k:
            raise ValueError(f"the stream ends {self._left - len(data)} bytes short")
        view[held : held + k] = data
        view[held + k : self.held] = bytes(max(self.held - held - k, 0))  # moved, not refilled
        self.base, self.held, self._left = self.base + drop, held + k, self._left - k
        return bit - 8 * self.base


def bit_string(length: int, value: int) -> str:
    """The `length`-bit big-endian string of `value` (< 2**length)."""
    return bin(value | 1 << length)[3:]


def packed_bytes(n_bits: int) -> int:
    """The bytes of a table's `n_bits` packed bits: the bytes that hold them
    and two zero bytes, which the kernels' 16-bit read of a window at the
    last bit reaches into."""
    return (int(n_bits) + 7) // 8 + 2


class PrefixTable:
    """Prefix codes of all states over global row ids; immutable.

    The window index is built on first use, so a table that no walk matches
    never pays for it: a codec's input blocks in a decode, or its codewords
    in an encode.
    """

    __slots__ = (
        "_row_base", "lengths", "longest", "_bits", "_offsets", "_index", "_words", "_match"
    )

    def __init__(self, row_base, lengths, bits):
        """`row_base` is the machine's row layout, held by reference; word r
        has `lengths[r]` bits, packed in row order in `bits`:
        `packed_bytes` of them, the last two zero.  Words may be longer than
        64 bits: the input blocks of skewed machines run to 2**(n_bits - 1)
        bits."""
        self._row_base = row_base
        self.lengths = np.ascontiguousarray(lengths, np.int32)
        self.longest = int(self.lengths.max(initial=0))
        self._offsets = np.cumsum(self.lengths, dtype=np.int64)
        self._offsets -= self.lengths
        self._bits = np.ascontiguousarray(bits, np.uint8)
        if len(self._bits) != packed_bytes(self.lengths.sum(dtype=np.int64)):
            raise ValueError("the bits are not as long as the words")
        self._index: np.ndarray | None = None
        # the arguments of `walk_block` that emit the words
        self._words = tuple(a.ctypes.data for a in (self._bits, self._offsets, self.lengths))
        self._match: tuple[int, int] | None = None

    @property
    def index(self) -> np.ndarray:
        """Flat int32 window index, one node of 2**WINDOW_BITS entries per
        state, then the child nodes of 2**w entries each."""
        if self._index is None:
            self._index = self._build_index()
            # the arguments of `walk_block` that match the words
            self._match = (self._index.ctypes.data, self.lengths.ctypes.data)
        return self._index

    def _build_index(self) -> np.ndarray:
        """`window_index` of _walk.c: a pass that lays the nodes out and
        counts their entries, then one that writes every entry into an
        index of that size, both told once by `words_in_order` whether the
        long words are in order.  Entries fit in int32 (at most
        _MAX_ENTRIES)."""
        lengths, bits = self.lengths, self._bits
        row_base = np.ascontiguousarray(self._row_base, np.int64)
        states = len(row_base) - 1
        if row_base[0] != 0 or row_base[-1] != len(lengths) or (np.diff(row_base) < 0).any():
            raise ValueError("a row layout over the words")
        if (lengths < 0).any():
            raise ValueError("negative word lengths")
        long_words = int(np.count_nonzero(lengths > WINDOW_BITS))
        scratch = np.empty(7 * long_words + 4, np.int32)
        words = (
            row_base.ctypes.data, states, lengths.ctypes.data, self._offsets.ctypes.data,
            bits.ctypes.data,
        )
        args = (
            *words, kernel().words_in_order(*words), _MAX_ENTRIES, long_words,
            scratch.ctypes.data,
        )
        size = kernel().window_index(*args, None)
        if size < 0:
            raise ValueError(f"a window index of over {_MAX_ENTRIES} entries")
        index = np.empty(size, np.int32)
        if kernel().window_index(*args, index.ctypes.data) < 0:
            raise ValueError("the words are not a prefix code")
        return index

    def word(self, row: int) -> np.ndarray:
        """The bits of word `row`, unpacked to 0/1 bytes."""
        at, n = int(self._offsets[row]), int(self.lengths[row])
        return np.unpackbits(self._bits[at >> 3 : (at + n + 7) >> 3])[at & 7 :][:n]

    def words(self) -> list[str]:
        """Every word as '0'/'1' text, in row order."""
        text = (np.unpackbits(self._bits[:-2]) | ord("0")).tobytes().decode("ascii")
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
    """The compiled _walk.c through ctypes, built on first use, each kernel
    typed as its C signature is, every pointer as c_void_p."""
    with open(_SOURCE, "rb") as f:
        source = f.read()
    lib = ctypes.CDLL(_library(source))
    # an untyped call passes and returns C int, which cuts an int64 or a pointer
    types = {"int": ctypes.c_int, "int64_t": ctypes.c_int64, "uint64_t": ctypes.c_uint64}
    for returns, name, params in re.findall(rb"^(\w+) (\w+)\(([^)]*)\)\s*\{", source, re.M):
        function = getattr(lib, name.decode())
        function.restype = types.get(returns.decode())  # None for void
        function.argtypes = [
            ctypes.c_void_p if b"*" in p else types[p.split()[-2].decode()]
            for p in params.split(b",")
        ]
    return lib


class StepLoop:
    """`draw_block` and `walk_block` of _walk.c over the words of `table`,
    with the reduced machine `rm`'s `next_state` and input bits fed per row
    and, where given, the words of `emit` and the states' swap `moduli`:
    `rm.inputs` and a codec's `outputs` and `swap_moduli`, whose
    construction checks their rows and types and takes their pointers.
    `rows`, `targets` (-1: no jump) and `draws` hold up to `steps` steps;
    `frame` the next step's bit and state, the input bits fed, the emitted
    bit and the steps taken.  The state starts at 0 and moves to a jump
    target, drawn modulo the states, or to a row's next state, which `rm`
    checked: it is always one of the states."""

    __slots__ = (
        "_held", "_fixed", "_states", "_emit", "_block", "rows", "targets", "draws", "frame"
    )

    def __init__(
        self, table: PrefixTable, rm, emit=None, moduli=None, decode=False, steps=BLOCK_STEPS
    ):
        table.index  # built first, and with it the pointers of `table._match`
        self._held, self._emit, self._states = (table, rm, emit, moduli), emit, rm.state_count
        self._fixed = (
            *table._match, *rm._steps, None if moduli is None else moduli.ctypes.data, decode,
            *((None,) * 3 if emit is None else emit._words),
        )
        self.rows = np.empty(steps, np.int64)
        self.targets = np.full(steps, -1, np.int64)
        self.draws = None if moduli is None else np.empty(steps, np.uint64)
        self._block = tuple(None if a is None else a.ctypes.data for a in (
            self.targets, self.draws, self.rows
        ))
        self.frame = (ctypes.c_int64 * 5)()

    def run(self, data, bit, end, m, limit, out: BitWriter | None = None, keys=None) -> int:
        """Up to m steps from bit `bit` of `data` (bytes or a ctypes array),
        zero past `end` for a longest word of `table` and two bytes, from the
        frame's state until `limit` input bits are fed, emitting into `out`;
        `keys`, as `walk` takes them, draw the block first.  Returns 0, or -1
        where a step failed."""
        frame, emit, decode = self.frame, self._emit, self._fixed[5]
        if not 0 <= m <= len(self.rows) or bit < 0:
            raise ValueError("a block that fits and a bit that exists")
        if (out is None) != (emit is None) or keys is not None and self.draws is None:
            raise ValueError("a writer exactly where words are emitted, and moduli")
        targets, draws, rows = self._block
        if keys is not None:
            kernel().draw_block(*keys, self._states, not frame[4], m, targets, draws)
        frame[0] = bit
        if out is not None:
            # a block's longest words, or the bits left where the emit is cut
            out.reserve(min(m * emit.longest, limit - frame[2] if decode else m * emit.longest))
            frame[3] = out.n % 8
        failed = kernel().walk_block(
            *self._fixed, data, end, targets, draws, m, limit, out and out.data, rows, frame
        )
        if out is not None:
            out.advance(frame[3] - out.n % 8)
        return failed


def walk(
    rm, stream: BitSource, limit: int, codewords=None, *, out=None, keys=None, moduli=None,
    fail=None, blocks=None,
) -> None:
    """Parse the bits that `stream` reads into words of the reduced machine
    `rm` from state 0, a keystream block of at most BLOCK_STEPS steps at a
    time, until the input blocks of the rows matched add up to `limit`
    bits: into its input blocks, or in a decode into `codewords`.  Each
    step emits its other word into `out`, a `BitWriter`, where given.
    `keys`, (the three substreams' states as a ctypes uint64 array, q), key
    the walk, with the states' swap `moduli` (see `walk_block`).

    A decode passes `fail`, (truncated, corrupt): a step that matches
    nothing or runs past the stream's end raises `truncated` when the
    stream ends within the state's longest word, `corrupt` otherwise, and
    stream bits left over at the end raise `corrupt`.  Messages name the
    step and its bit offset, which the error also carries as its `step`
    and `bit`.  Any other walk reads the stream zero-padded, and a window
    that no word of its state prefixes raises AssertionError.  `blocks`, a
    list, gets each block's rows, targets and swap positions.

    The stream is read through one `ByteBuffer`, slid to each block's first
    bit.  A block reads at most BLOCK_STEPS longest words of the matched
    table from there, and its last window's 16-bit read ends within 15 bits
    of them, from a first bit up to 7 bits into its byte: the buffer holds
    that span, or all up to the stream's end and the zero bytes that a step
    there reads past it.
    """
    decode = fail is not None
    match, emit = (codewords, rm.inputs) if decode else (rm.inputs, codewords)
    # the index is built first: its peak then holds no buffer or block arrays
    loop = StepLoop(
        match, rm, None if out is None else emit, None if keys is None else moduli, decode,
        min(BLOCK_STEPS, max(limit, 0)),
    )
    span = -(-(BLOCK_STEPS * match.longest + 16) // 8) + 1
    buffer = ByteBuffer(stream, span, -(-match.longest // 8) + 2)
    frame, n, bit = loop.frame, stream.n, 0
    while frame[2] < limit:
        m, steps = min(BLOCK_STEPS, limit - frame[2]), frame[4]
        at = buffer.slide(bit)
        failed = loop.run(buffer.data, at, n - 8 * buffer.base, m, limit, out, keys)
        bit = 8 * buffer.base + frame[0]
        if blocks is not None:
            k = frame[4] - steps
            swaps = None if loop.draws is None else loop.draws[:k].copy()
            blocks.append((loop.rows[:k].copy(), loop.targets[:k].copy(), swaps))
        if failed:
            state, step = frame[1], frame[4]
            if fail is None:
                raise AssertionError(f"incomplete input block set in state {state}")
            words = match.lengths[rm.row_base[state] : rm.row_base[state + 1]]
            if bit + int(words.max()) > n:
                exc = fail[0](f"stream ends inside a codeword at step {step}, bit {bit}")
            else:
                exc = fail[1](f"no codeword of state {state} matches at step {step}, bit {bit}")
            exc.step, exc.bit = step, bit
            raise exc
    if bit < n:
        exc = fail[1](f"{n - bit} stream bits left over after step {frame[4]}, at bit {bit}")
        exc.step, exc.bit = frame[4], bit
        raise exc

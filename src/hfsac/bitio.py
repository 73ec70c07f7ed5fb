"""Packed bit sequences, most significant bit first.

`Bits` is the one bit type of the encode and decode paths: bytes plus a bit
length.  `BitSource` reads packed bits a chunk of bytes at a time, from
`Bits` or from a file, and `BitWriter` holds the buffer that a walk's
kernel packs its output into and hands its whole bytes on.  `pack_bits` and `unpack_bits`
convert '0'/'1' text, which tests and tools still use.
"""

from __future__ import annotations

import ctypes
import io


def pad_mask(n: int) -> int:
    """The padding bits of the last byte of an n-bit sequence."""
    return 0xFF >> (n % 8) if n % 8 else 0


class Bits:
    """`n` bits packed MSB-first into `data`: ceil(n / 8) bytes whose bits
    past `n` are zero, checked on construction of every `Bits`.  Immutable;
    equal when data and length are."""

    __slots__ = ("data", "n")

    def __init__(self, data=b"", n: int | None = None):
        data = bytes(data)
        if n is None:
            n = 8 * len(data)
        if n < 0 or len(data) != (n + 7) // 8:
            raise ValueError(f"{len(data)} bytes cannot hold exactly {n} bits")
        if data and data[-1] & pad_mask(n):
            raise ValueError("nonzero padding bits")
        self.data = data
        self.n = n

    @classmethod
    def from_text(cls, bits: str) -> Bits:
        """Pack '0'/'1' characters, zero-padding the last byte."""
        if bits.count("0") + bits.count("1") != len(bits):
            raise ValueError("bit strings hold only '0' and '1'")
        n = len(bits)
        n_bytes = (n + 7) // 8
        value = int(bits or "0", 2) << (8 * n_bytes - n)
        return cls(value.to_bytes(n_bytes, "big"), n)

    def to_text(self) -> str:
        """The bits as '0'/'1' characters."""
        if not self.n:
            return ""
        value = int.from_bytes(self.data, "big") >> (8 * len(self.data) - self.n)
        return format(value, f"0{self.n}b")

    def __len__(self) -> int:
        return self.n

    def __eq__(self, other) -> bool:
        if isinstance(other, Bits):
            return self.n == other.n and self.data == other.data
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.n, self.data))

    def __repr__(self) -> str:
        return f"Bits(n={self.n})"


class BitSource:
    """`n` bits packed MSB first, read in order by `read(k)`, which gives
    the next at most k of their ceil(n / 8) bytes, as a binary file's
    `read` does."""

    __slots__ = ("read", "n")

    def __init__(self, read, n: int):
        self.read, self.n = read, n

    @classmethod
    def of(cls, bits: Bits) -> BitSource:
        return cls(io.BytesIO(bits.data).read, bits.n)


class BitWriter:
    """Bits that a walk's kernel packs, MSB first, into `buffer` (`data` is
    a ctypes array over it) from bit `n % 8` of its first byte on, where the
    bits of an unfinished byte are carried; a byte the kernel writes is zero
    past its last bit.  `advance` hands the whole bytes to `sink`."""

    __slots__ = ("_sink", "buffer", "data", "n")

    def __init__(self, sink):
        self._sink = sink
        self.buffer, self.data, self.n = bytearray(1), None, 0  # n: bits written

    def reserve(self, bits: int) -> None:
        """Makes room for `bits` more bits and the byte the kernel writes past them."""
        size = (self.n % 8 + bits) // 8 + 2
        if size > len(self.buffer):
            carried, self.buffer = self.buffer[0], bytearray(size)
            self.buffer[0] = carried
            self.data = (ctypes.c_char * size).from_buffer(self.buffer)

    def advance(self, bits: int) -> None:
        """Counts `bits` more bits written into the buffer, hands their whole
        bytes to the sink and carries the unfinished one to the front."""
        whole = (self.n % 8 + bits) >> 3
        self.n += bits
        if whole:
            self._sink(self.buffer[:whole])
            self.buffer[0] = self.buffer[whole]

    def flush(self) -> int:
        """Hands the unfinished byte, zero-padded, to the sink; returns the
        number of bits written.  Called once, last."""
        if self.n % 8:
            self._sink(self.buffer[:1])
        return self.n


def pack_bits(bits: str) -> bytes:
    """Pack '0'/'1' characters into bytes, zero-padding the last byte."""
    return Bits.from_text(bits).data


def unpack_bits(data: bytes, n_bits: int | None = None) -> str:
    """Unpack bytes to a bit string; n_bits, at most 8 * len(data), trims
    trailing pad bits."""
    if n_bits is not None and not 0 <= n_bits <= 8 * len(data):
        raise ValueError(f"n_bits must be in 0..{8 * len(data)}, got {n_bits}")
    bits = Bits(data).to_text()
    return bits if n_bits is None else bits[:n_bits]

"""Packed bit sequences, most significant bit first.

`Bits` is the one bit type of the encode and decode paths: bytes plus a bit
length.  `BitSource` reads packed bits a chunk of bytes at a time, from
`Bits` or from a file, and `BitWriter` packs 0/1 arrays as they are
produced and hands their whole bytes on.  `pack_bits` and `unpack_bits`
convert '0'/'1' text, which tests and tools still use.
"""

from __future__ import annotations

import io

import numpy as np


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
    """Packs 0/1 `uint8` arrays into bytes as they are written, and hands
    each write's whole bytes to `sink`; the bits of an unfinished byte are
    carried to the next write."""

    __slots__ = ("_sink", "_carry", "n")

    def __init__(self, sink):
        self._sink = sink
        self._carry = np.zeros(0, np.uint8)
        self.n = 0  # bits written

    def write(self, bits01: np.ndarray) -> None:
        self.n += len(bits01)
        if len(self._carry):
            bits01 = np.concatenate((self._carry, bits01))
        whole = len(bits01) & ~7
        if whole:
            self._sink(np.packbits(bits01[:whole]).tobytes())
        self._carry = bits01[whole:].copy()

    def flush(self) -> int:
        """Hands the unfinished byte, zero-padded, to the sink; returns the
        number of bits written.  Nothing is written after."""
        if len(self._carry):
            self._sink(np.packbits(self._carry).tobytes())
            self._carry = self._carry[:0]
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

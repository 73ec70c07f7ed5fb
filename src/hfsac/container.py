"""Self-describing cipher container.

Layout (big endian): magic "HFSA", version byte 0x01, n_bits u8, f_max u8,
p0_num u32, jump_q_num u16, plain_bit_len u64, cipher_bit_len u64, then the
cipher bits packed MSB-first with zero padding.  Everything but the seed is
public; the header alone reconstructs the codec.  One reader, `read_header`,
checks a header against its payload's size and last byte in a seekable
binary file, so a file's container is checked before its payload is read;
`parse` applies it to bytes through `io.BytesIO`, so every message is the
same for bytes and files.  An encoder that streams the payload writes the
header again, with cipher_bit_len, once the payload is out.
"""

from __future__ import annotations

import io
import os
import struct
from dataclasses import dataclass

from .bitio import Bits, pad_mask
from .coder import CoderParams

MAGIC = b"HFSA"
VERSION = 1

_HEADER = struct.Struct(">4sBBBIHQQ")
HEADER_SIZE = _HEADER.size


class ContainerError(ValueError):
    """Malformed container bytes."""


@dataclass(frozen=True)
class CipherContainer:
    """Header fields and the cipher.  The cipher may be given as '0'/'1'
    text, which is packed: the field always holds `Bits` once built, and
    `cipher_bits` gives it back as text."""

    params: CoderParams
    plain_bit_len: int
    cipher: Bits | str

    def __post_init__(self) -> None:
        if self.plain_bit_len < 0:
            raise ValueError("negative plain_bit_len")
        if isinstance(self.cipher, str):
            object.__setattr__(self, "cipher", Bits.from_text(self.cipher))

    @property
    def cipher_bits(self) -> str:
        return self.cipher.to_text()


def pack_header(params: CoderParams, plain_bit_len: int, cipher_bit_len: int) -> bytes:
    return _HEADER.pack(
        MAGIC,
        VERSION,
        params.n_bits,
        params.f_max,
        params.p0_num,
        params.jump_q_num,
        plain_bit_len,
        cipher_bit_len,
    )


def serialize(container: CipherContainer) -> bytes:
    header = pack_header(container.params, container.plain_bit_len, container.cipher.n)
    return header + container.cipher.data


def read_header(fh) -> tuple[CoderParams, int, int]:
    """(params, plain_bit_len, cipher_bit_len) of the container in the
    seekable binary file `fh`, read from its position and checked against
    the payload's size and last byte before the rest of the payload is
    read; leaves `fh` at the payload's first byte."""
    head = fh.read(HEADER_SIZE)
    if len(head) < HEADER_SIZE:
        raise ContainerError("truncated container header")
    magic, version, n_bits, f_max, p0_num, jump_q, plain_len, cipher_len = (
        _HEADER.unpack(head)
    )
    if magic != MAGIC:
        raise ContainerError(f"bad magic {magic!r}")
    if version != VERSION:
        raise ContainerError(f"unsupported container version {version}")
    try:
        params = CoderParams(n_bits, p0_num, f_max, jump_q)
    except ValueError as exc:
        raise ContainerError(f"invalid header parameters: {exc}") from None
    at = fh.tell()
    payload_size = fh.seek(0, os.SEEK_END) - at
    need = (cipher_len + 7) // 8
    if payload_size < need:
        raise ContainerError("truncated container payload")
    if payload_size > need:
        raise ContainerError("trailing bytes after container payload")
    if need:
        fh.seek(-1, os.SEEK_END)
        if fh.read(1)[0] & pad_mask(cipher_len):
            raise ContainerError("nonzero padding bits")
    fh.seek(at)
    return params, plain_len, cipher_len


def parse(data: bytes) -> CipherContainer:
    fh = io.BytesIO(data)
    params, plain_len, cipher_len = read_header(fh)
    return CipherContainer(params, plain_len, Bits(fh.read(), cipher_len))

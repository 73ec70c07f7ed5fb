"""Self-describing cipher container.

Layout (big endian): magic "HFSA", version byte 0x01, n_bits u8, f_max u8,
p0_num u32, jump_q_num u16, plain_bit_len u64, cipher_bit_len u64, then the
cipher bits packed MSB-first with zero padding.  Everything but the seed is
public; the header alone reconstructs the codec.  `parse_header` checks a
header against its payload's size and last byte, so a file's container is
checked before its payload is read; an encoder that streams the payload
writes the header again, with cipher_bit_len, once the payload is out.
"""

from __future__ import annotations

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


def parse_header(head: bytes, payload_size: int, last: bytes) -> tuple[CoderParams, int, int]:
    """(params, plain_bit_len, cipher_bit_len) of a container whose first
    bytes are `head`, checked against its payload's size in bytes and its
    last byte `last` (empty when the payload is): every check of `parse`."""
    if len(head) < HEADER_SIZE:
        raise ContainerError("truncated container header")
    magic, version, n_bits, f_max, p0_num, jump_q, plain_len, cipher_len = (
        _HEADER.unpack_from(head)
    )
    if magic != MAGIC:
        raise ContainerError(f"bad magic {magic!r}")
    if version != VERSION:
        raise ContainerError(f"unsupported container version {version}")
    try:
        params = CoderParams(n_bits, p0_num, f_max, jump_q)
    except ValueError as exc:
        raise ContainerError(f"invalid header parameters: {exc}") from None
    need = (cipher_len + 7) // 8
    if payload_size < need:
        raise ContainerError("truncated container payload")
    if payload_size > need:
        raise ContainerError("trailing bytes after container payload")
    if last and last[0] & pad_mask(cipher_len):
        raise ContainerError("nonzero padding bits")
    return params, plain_len, cipher_len


def parse(data: bytes) -> CipherContainer:
    payload = data[HEADER_SIZE:]
    params, plain_len, cipher_len = parse_header(data, len(payload), payload[-1:])
    return CipherContainer(params, plain_len, Bits(payload, cipher_len))


def read_header(fh) -> tuple[CoderParams, int, int]:
    """`parse_header` of the container in the seekable binary file `fh`,
    from its first bytes, its size and its last byte; leaves `fh` at the
    payload's first byte."""
    size = fh.seek(0, os.SEEK_END)
    last = b""
    if size > HEADER_SIZE:
        fh.seek(size - 1)
        last = fh.read(1)
    fh.seek(0)
    return parse_header(fh.read(HEADER_SIZE), size - HEADER_SIZE, last)

"""Self-describing cipher container.

Layout (big endian): magic "HFSA", version byte 0x01, n_bits u8, f_max u8,
p0_num u32, jump_q_num u16, plain_bit_len u64, cipher_bit_len u64, then the
cipher bits packed MSB-first with zero padding.  Everything but the seed is
public; the header alone reconstructs the codec.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .bitio import Bits
from .coder import CoderParams

MAGIC = b"HFSA"
VERSION = 1

_HEADER = struct.Struct(">4sBBBIHQQ")


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


def serialize(container: CipherContainer) -> bytes:
    p = container.params
    header = _HEADER.pack(
        MAGIC,
        VERSION,
        p.n_bits,
        p.f_max,
        p.p0_num,
        p.jump_q_num,
        container.plain_bit_len,
        container.cipher.n,
    )
    return header + container.cipher.data


def parse(data: bytes) -> CipherContainer:
    if len(data) < _HEADER.size:
        raise ContainerError("truncated container header")
    magic, version, n_bits, f_max, p0_num, jump_q, plain_len, cipher_len = (
        _HEADER.unpack_from(data)
    )
    if magic != MAGIC:
        raise ContainerError(f"bad magic {magic!r}")
    if version != VERSION:
        raise ContainerError(f"unsupported container version {version}")
    try:
        params = CoderParams(n_bits, p0_num, f_max, jump_q)
    except ValueError as exc:
        raise ContainerError(f"invalid header parameters: {exc}") from None
    payload = data[_HEADER.size :]
    need = (cipher_len + 7) // 8
    if len(payload) < need:
        raise ContainerError("truncated container payload")
    if len(payload) > need:
        raise ContainerError("trailing bytes after container payload")
    try:
        cipher = Bits(payload, cipher_len)
    except ValueError as exc:  # nonzero padding bits
        raise ContainerError(str(exc)) from None
    return CipherContainer(params, plain_len, cipher)

"""Binary (P5) PGM reader/writer for 8-bit grayscale images.

One reader, `read_pgm_header`, reads a header from a seekable binary file;
`parse_pgm` applies it to bytes through `io.BytesIO`, and `read_pgm` to the
bytes of a path read whole, so bytes and files give the same outcomes and
messages.
"""

from __future__ import annotations

import io
import os
from dataclasses import dataclass

import numpy as np

_SPACE = b" \t\r\n"
# bytes of a header token: a longer one is refused without reading it all
_TOKEN_MAX = 64


@dataclass(frozen=True)
class GrayImage:
    """8-bit grayscale image, row-major pixel bytes."""

    width: int
    height: int
    pixels: bytes

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError("image dimensions must be positive")
        if len(self.pixels) != self.width * self.height:
            raise ValueError(
                f"expected {self.width * self.height} pixels, got {len(self.pixels)}"
            )

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "GrayImage":
        arr = np.asarray(arr, dtype=np.uint8)
        if arr.ndim != 2:
            raise ValueError("expected a 2-d array")
        return cls(arr.shape[1], arr.shape[0], arr.tobytes())

    def to_array(self) -> np.ndarray:
        return np.frombuffer(self.pixels, dtype=np.uint8).reshape(
            self.height, self.width
        )


class PgmError(ValueError):
    """Malformed PGM data."""


def _token(fh) -> tuple[bytes, bytes]:
    """The next header token of `fh`, skipping whitespace and # comments,
    and the byte read after it: whitespace, or empty at the end of the file.
    A token longer than _TOKEN_MAX is cut after _TOKEN_MAX + 1 bytes."""
    c = fh.read(1)
    while c and c in _SPACE + b"#":
        if c == b"#" and not fh.readline().endswith(b"\n"):
            raise PgmError("unterminated comment")
        c = fh.read(1)
    if not c:
        raise PgmError("truncated PGM header")
    tok = bytearray()
    while c and c not in _SPACE and len(tok) <= _TOKEN_MAX:
        tok += c
        c = fh.read(1)
    return bytes(tok), c


def read_pgm_header(fh) -> tuple[int, int]:
    """(width, height) of the P5 image in the seekable binary file `fh`, read
    from its position, with the raster's size checked against the file's;
    leaves `fh` at the raster's first byte.  maxval must be 255."""
    magic, _ = _token(fh)
    if magic != b"P5":
        raise PgmError(f"not a binary PGM (magic {magic!r})")
    (w_tok, _), (h_tok, _), (max_tok, sep) = _token(fh), _token(fh), _token(fh)
    fields = (w_tok, h_tok, max_tok)
    # ASCII digits only: int() also takes signs and '_'
    if not all(f.isdigit() and len(f) <= _TOKEN_MAX for f in fields):
        raise PgmError("non-numeric PGM header field")
    width, height, maxval = map(int, fields)
    if maxval != 255:
        raise PgmError(f"unsupported maxval {maxval} (only 255)")
    if width < 1 or height < 1:
        raise PgmError("non-positive PGM dimensions")
    # exactly one whitespace byte separates the header from the raster
    if not sep:
        raise PgmError("missing raster separator")
    at = fh.tell()
    size = fh.seek(0, os.SEEK_END) - at
    if size != width * height:
        raise PgmError(f"raster holds {size} bytes, expected {width * height}")
    fh.seek(at)
    return width, height


def parse_pgm(data: bytes) -> GrayImage:
    """Parse raw P5 bytes into a GrayImage; maxval must be 255."""
    fh = io.BytesIO(data)
    width, height = read_pgm_header(fh)
    return GrayImage(width, height, fh.read())


def pgm_header(width: int, height: int) -> bytes:
    return b"P5\n%d %d\n255\n" % (width, height)


def pgm_bytes(img: GrayImage) -> bytes:
    return pgm_header(img.width, img.height) + img.pixels


def read_pgm(path) -> GrayImage:
    """The P5 image at `path`, read whole: a pipe or FIFO works too."""
    with open(path, "rb") as fh:
        return parse_pgm(fh.read())


def write_pgm(img: GrayImage, path) -> None:
    with open(path, "wb") as fh:
        fh.write(pgm_bytes(img))

"""Binary (P5) PGM reader/writer for 8-bit grayscale images."""

from __future__ import annotations

import os

from .analysis import GrayImage

# bytes read for a header first; a longer one is read in doubling steps
_HEAD = 1 << 12


class PgmError(ValueError):
    """Malformed PGM data."""


class _Incomplete(Exception):
    """The header may go on past the bytes read so far."""


def _tokens(data: bytes, complete: bool):
    """Yield header tokens, skipping whitespace and # comments.  Unless
    `data` is `complete`, whatever may go on past its end raises
    _Incomplete."""
    i = 0
    n = len(data)
    while i < n:
        c = data[i : i + 1]
        if c in b" \t\r\n":
            i += 1
            continue
        if c == b"#":
            j = data.find(b"\n", i)
            if j < 0:
                if not complete:
                    raise _Incomplete
                raise PgmError("unterminated comment")
            i = j + 1
            continue
        j = i
        while j < n and data[j : j + 1] not in b" \t\r\n":
            j += 1
        if j == n and not complete:
            raise _Incomplete
        yield data[i:j], j
        i = j
    if not complete:
        raise _Incomplete


def _header(data: bytes, complete: bool = True) -> tuple[int, int, int]:
    """(width, height, offset of the raster) of the P5 header that `data`
    starts with, which is the whole file when `complete`."""
    toks = _tokens(data, complete)
    try:
        magic, _ = next(toks)
        if magic != b"P5":
            raise PgmError(f"not a binary PGM (magic {magic!r})")
        (w_tok, _), (h_tok, _), (max_tok, end) = next(toks), next(toks), next(toks)
    except StopIteration:
        raise PgmError("truncated PGM header") from None
    fields = (w_tok, h_tok, max_tok)
    try:  # ASCII digits only: int() also takes signs and '_'
        if not all(f.isdigit() for f in fields):
            raise ValueError
        width, height, maxval = map(int, fields)
    except ValueError:  # also a field too long for int()
        raise PgmError("non-numeric PGM header field") from None
    if maxval != 255:
        raise PgmError(f"unsupported maxval {maxval} (only 255)")
    if width < 1 or height < 1:
        raise PgmError("non-positive PGM dimensions")
    # exactly one whitespace byte separates the header from the raster
    if end >= len(data) or data[end : end + 1] not in b" \t\r\n":
        raise PgmError("missing raster separator")
    return width, height, end + 1


def _check_raster(size: int, width: int, height: int) -> None:
    if size != width * height:
        raise PgmError(f"raster holds {size} bytes, expected {width * height}")


def parse_pgm(data: bytes) -> GrayImage:
    """Parse raw P5 bytes into a GrayImage; maxval must be 255."""
    width, height, at = _header(data)
    raster = data[at:]
    _check_raster(len(raster), width, height)
    return GrayImage(width, height, raster)


def read_pgm_header(fh) -> tuple[int, int]:
    """(width, height) of the P5 image in the seekable binary file `fh`, with
    every check of `parse_pgm`, reading the file only as far as its header
    goes; leaves `fh` at the raster's first byte."""
    head = b""
    while True:
        want = max(len(head), _HEAD)
        more = fh.read(want)
        head += more
        try:
            width, height, at = _header(head, len(more) < want)
            break
        except _Incomplete:
            pass
    _check_raster(fh.seek(0, os.SEEK_END) - at, width, height)
    fh.seek(at)
    return width, height


def pgm_header(width: int, height: int) -> bytes:
    return b"P5\n%d %d\n255\n" % (width, height)


def pgm_bytes(img: GrayImage) -> bytes:
    return pgm_header(img.width, img.height) + img.pixels


def read_pgm(path) -> GrayImage:
    with open(path, "rb") as fh:
        return parse_pgm(fh.read())


def write_pgm(img: GrayImage, path) -> None:
    with open(path, "wb") as fh:
        fh.write(pgm_bytes(img))

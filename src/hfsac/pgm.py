"""Binary (P5) PGM reader/writer for 8-bit grayscale images."""

from __future__ import annotations

from .analysis import GrayImage


class PgmError(ValueError):
    """Malformed PGM data."""


def _tokens(data: bytes):
    """Yield header tokens, skipping whitespace and # comments."""
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
                raise PgmError("unterminated comment")
            i = j + 1
            continue
        j = i
        while j < n and data[j : j + 1] not in b" \t\r\n":
            j += 1
        yield data[i:j], j
        i = j


def parse_pgm(data: bytes) -> GrayImage:
    """Parse raw P5 bytes into a GrayImage; maxval must be 255."""
    toks = _tokens(data)
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
    raster = data[end + 1 :]
    if len(raster) != width * height:
        raise PgmError(
            f"raster holds {len(raster)} bytes, expected {width * height}"
        )
    return GrayImage(width, height, raster)


def pgm_bytes(img: GrayImage) -> bytes:
    return b"P5\n%d %d\n255\n" % (img.width, img.height) + img.pixels


def read_pgm(path) -> GrayImage:
    with open(path, "rb") as fh:
        return parse_pgm(fh.read())


def write_pgm(img: GrayImage, path) -> None:
    with open(path, "wb") as fh:
        fh.write(pgm_bytes(img))

import io
import tempfile

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hfsac import GrayImage, PgmError, parse_pgm, pgm_bytes, read_pgm, write_pgm
from hfsac.pgm import read_pgm_header
from conftest import synthetic_image

VALID = [
    pgm_bytes(synthetic_image(4, 3)),
    b"P5 # binary pgm\n# a comment\n 3\t2 #c\n255\n" + bytes(range(6)),
]


class TestParse:
    def test_roundtrip_bytes(self):
        img = synthetic_image(32, 24)
        assert parse_pgm(pgm_bytes(img)) == img

    def test_roundtrip_file(self, tmp_path):
        img = synthetic_image(17, 9)
        path = tmp_path / "img.pgm"
        write_pgm(img, path)
        assert read_pgm(path) == img

    def test_comments_and_whitespace(self):
        img = parse_pgm(b"P5 # binary pgm\n# a comment\n 3\t2 #c\n255\n" + bytes(6))
        assert (img.width, img.height) == (3, 2)

    def test_raster_may_contain_newlines(self):
        raster = bytes([10, 13, 32, 35])
        img = parse_pgm(b"P5\n2 2\n255\n" + raster)
        assert img.pixels == raster

    @pytest.mark.parametrize(
        "blob,match",
        [
            (b"P2\n2 2\n255\n" + bytes(4), "magic"),
            (b"P5\n2 2\n65535\n" + bytes(8), "maxval"),
            (b"P5\n2 x\n255\n" + bytes(4), "numeric"),
            (b"P5\n1_0 1\n255\n" + bytes(10), "numeric"),
            (b"P5\n+2 2\n255\n" + bytes(4), "numeric"),
            (b"P5\n2 2\n2_55\n" + bytes(4), "numeric"),
            (b"P5\n2 2\n" + b"9" * 5000 + b"\n" + bytes(4), "numeric"),
            (b"P5\n2 2\n255\n" + bytes(3), "raster"),
            (b"P5\n2 2\n255\n" + bytes(5), "raster"),
            (b"P5\n0 2\n255\n", "dimensions"),
            (b"P5\n2 2", "truncated"),
        ],
    )
    def test_malformed(self, blob, match):
        with pytest.raises(PgmError, match=match):
            parse_pgm(blob)

    def test_arbitrary_pixel_values_roundtrip(self):
        img = GrayImage(16, 16, bytes(range(256)))
        assert parse_pgm(pgm_bytes(img)) == img


class TestFuzz:
    """Malformed input raises `PgmError` and nothing else."""

    @staticmethod
    def parse_or_reject(blob: bytes) -> None:
        try:
            parse_pgm(blob)
        except PgmError:
            pass

    @given(st.binary(max_size=80) | st.binary(max_size=80).map(lambda b: b"P5\n" + b))
    def test_arbitrary_bytes(self, blob):
        self.parse_or_reject(blob)

    @given(st.sampled_from(VALID), st.integers(0, 1 << 16), st.integers(0, 255))
    def test_single_byte_mutations(self, blob, at, value):
        blob = bytearray(blob)
        blob[at % len(blob)] = value
        self.parse_or_reject(bytes(blob))


class CountingReader(io.BytesIO):
    """An in-memory file that records the size of every `read`."""

    def __init__(self, data: bytes):
        super().__init__(data)
        self.calls: list[int] = []

    def read(self, size=-1):
        self.calls.append(size)
        return super().read(size)


def _header_outcomes(blob: bytes, buffer_size: int | None = None):
    """What parse_pgm gives, then what read_pgm_header gives on a file of
    `blob` and on a `BytesIO` of it (a pipe read whole), and with a
    `buffer_size`, on a reader of that buffer size: (width, height, raster)
    or the PgmError message."""
    try:
        img = parse_pgm(blob)
        want = (img.width, img.height, img.pixels)
    except PgmError as exc:
        want = str(exc)
    outcomes = [want]
    handles = [tempfile.TemporaryFile(), io.BytesIO()]
    if buffer_size:
        handles.append(io.BufferedReader(io.BytesIO(blob), buffer_size))
    for fh in handles:
        with fh:
            if fh.writable():
                fh.write(blob)
                fh.seek(0)
            try:
                outcomes.append((*read_pgm_header(fh), fh.read()))
            except PgmError as exc:
                outcomes.append(str(exc))
    return outcomes


class TestStreamedHeader:
    """encode reads a P5 file's header and streams the raster: every
    outcome and message is parse_pgm's."""

    @given(st.sampled_from(VALID), st.integers(0, 1 << 16), st.integers(0, 255))
    def test_single_byte_mutations(self, blob, at, value):
        blob = bytearray(blob)
        blob[at % len(blob)] = value
        want, *got = _header_outcomes(bytes(blob))
        assert got == [want, want]

    @pytest.mark.parametrize("head", [1, 2, 5, 12, 4096])
    @pytest.mark.parametrize(
        "blob,expected",
        [
            (VALID[1], (3, 2, bytes(range(6)))),
            (b"P5\n2 2\n255\n" + bytes(3), "raster holds 3 bytes, expected 4"),
            (b"P5\n2 2\n" + b"9" * 5000 + b"\n" + bytes(4), "non-numeric PGM header field"),
            (b"P5\n#" + b"c" * 9000 + b"\n2 2\n255\n" + bytes(4), (2, 2, bytes(4))),
            (b"P5\n#" + b"c" * 9000, "unterminated comment"),
            (b"P5\n2 2\n255", "missing raster separator"),
            (
                b"P" + b"5" * 9000 + b"\n2 2\n255\n" + bytes(4),
                f"not a binary PGM (magic {b'P' + b'5' * 64!r})",
            ),
            (b"P5\n2 2", "truncated PGM header"),
            (b"", "truncated PGM header"),
        ],
        ids=range(9),
    )
    def test_headers_across_head_reads(self, head, blob, expected):
        # headers cut at every few bytes of a reader's buffer of `head`
        # bytes, and ones longer than it, a comment or a field of 9,000
        # bytes among them; each outcome is pinned
        assert _header_outcomes(blob, head) == [expected] * 4

    def test_comment_is_read_by_the_line(self):
        # a comment costs one readline, not a read per byte
        fh = CountingReader(b"P5\n#" + b"c" * 9000 + b"\n2 2\n255\n" + bytes(4))
        assert read_pgm_header(fh) == (2, 2)
        assert fh.calls == [1] * len(b"P5\n#2 2\n255\n")  # a read per byte outside it

    @pytest.mark.parametrize(
        "head,message,most",
        [
            # the magic's echo holds only the 65 bytes read of it
            (b"P", f"not a binary PGM (magic {b'P' + b'5' * 64!r})", 70),
            # a field's: the width's 65 bytes and two more tokens cut alike
            (b"P5\n", "non-numeric PGM header field", 3 * 70),
        ],
        ids=["magic", "width"],
    )
    def test_long_token_is_cut(self, head, message, most):
        # a token of a megabyte is refused after its first bytes, not read
        # to its end, and the message does not echo it
        fh = CountingReader(head + b"5" * 10**6 + b"\n2 2\n255\n" + bytes(4))
        with pytest.raises(PgmError) as exc:
            read_pgm_header(fh)
        assert str(exc.value) == message
        assert sum(fh.calls) <= most

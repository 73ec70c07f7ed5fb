import io
import tempfile

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hfsac import (
    Bits,
    CipherContainer,
    CoderParams,
    ContainerError,
    pack_bits,
    parse,
    serialize,
    unpack_bits,
)
from hfsac.container import read_header
from conftest import rand_bits


class TestBitPacking:
    def test_empty(self):
        assert pack_bits("") == b""
        assert unpack_bits(b"") == ""

    def test_msb_first(self):
        assert pack_bits("10000000") == b"\x80"
        assert pack_bits("1") == b"\x80"
        assert pack_bits("00000001") == b"\x01"
        assert unpack_bits(b"\x80") == "10000000"

    def test_pad_and_trim(self):
        assert pack_bits("101") == bytes([0b10100000])
        assert unpack_bits(pack_bits("101"), 3) == "101"

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64, 65, 1000])
    def test_roundtrip(self, n):
        bits = rand_bits(n, n)
        assert unpack_bits(pack_bits(bits), n) == bits

    @pytest.mark.parametrize(
        "data,n_bits", [(b"\x81", 12), (b"\x81", 9), (b"\x81", -3), (b"", 1), (b"", -1)]
    )
    def test_unpack_refuses_out_of_range_length(self, data, n_bits):
        with pytest.raises(ValueError, match=f"n_bits must be .*got {n_bits}"):
            unpack_bits(data, n_bits)


class TestContainer:
    def roundtrip(self, container):
        return parse(serialize(container))

    def test_roundtrip_simple(self):
        c = CipherContainer(CoderParams(7, 44, 10, 230), 524288, rand_bits(1, 777))
        assert self.roundtrip(c) == c

    def test_roundtrip_empty_payload(self):
        c = CipherContainer(CoderParams(4, 3, 1, 0), 0, "")
        assert self.roundtrip(c) == c

    @pytest.mark.parametrize("n_cipher", [1, 7, 8, 9, 15, 16, 17])
    def test_roundtrip_pad_edges(self, n_cipher):
        c = CipherContainer(CoderParams(5, 6, 1, 128), 12, rand_bits(n_cipher, n_cipher))
        assert self.roundtrip(c) == c

    def test_header_reconstructs_params(self):
        c = CipherContainer(CoderParams(8, 51, 3, 256), 99, "101")
        assert self.roundtrip(c).params == CoderParams(8, 51, 3, 256)

    def test_bad_magic(self):
        blob = serialize(CipherContainer(CoderParams(4, 3, 1), 4, "1010"))
        with pytest.raises(ContainerError, match="magic"):
            parse(b"XXXX" + blob[4:])

    def test_bad_version(self):
        blob = bytearray(serialize(CipherContainer(CoderParams(4, 3, 1), 4, "1010")))
        blob[4] = 9
        with pytest.raises(ContainerError, match="version"):
            parse(bytes(blob))

    def test_truncated_header(self):
        blob = serialize(CipherContainer(CoderParams(4, 3, 1), 4, "1010"))
        with pytest.raises(ContainerError, match="truncated"):
            parse(blob[:10])

    def test_truncated_payload(self):
        blob = serialize(CipherContainer(CoderParams(4, 3, 1), 64, rand_bits(2, 64)))
        with pytest.raises(ContainerError, match="truncated"):
            parse(blob[:-1])

    def test_trailing_garbage(self):
        blob = serialize(CipherContainer(CoderParams(4, 3, 1), 4, "1010"))
        with pytest.raises(ContainerError, match="trailing"):
            parse(blob + b"\x00")

    def test_nonzero_padding(self):
        blob = bytearray(serialize(CipherContainer(CoderParams(4, 3, 1), 4, "1010")))
        blob[-1] |= 0x01  # set a pad bit
        with pytest.raises(ContainerError, match="padding"):
            parse(bytes(blob))

    @given(st.integers(1, 200).filter(lambda n: n % 8), st.integers(1, 127))
    def test_any_nonzero_padding_rejected(self, n_cipher, pad):
        blob = bytearray(
            serialize(CipherContainer(CoderParams(5, 6, 1, 128), 9, "0" * n_cipher))
        )
        blob[-1] |= pad & (0xFF >> (n_cipher % 8))
        if blob[-1]:
            with pytest.raises(ContainerError, match="padding"):
                parse(bytes(blob))

    def test_cipher_is_packed_bits(self):
        c = CipherContainer(CoderParams(4, 3, 1), 4, "1010")
        assert c.cipher == Bits(b"\xa0", 4)
        assert c == CipherContainer(CoderParams(4, 3, 1), 4, Bits(b"\xa0", 4))
        assert c.cipher_bits == "1010"
        assert serialize(c)[-1:] == b"\xa0"
        with pytest.raises(ValueError, match="negative plain_bit_len"):
            CipherContainer(CoderParams(4, 3, 1), -1, Bits())

    def test_invalid_header_params(self):
        blob = bytearray(serialize(CipherContainer(CoderParams(4, 3, 1), 4, "1010")))
        blob[5] = 2  # n_bits below the supported floor
        with pytest.raises(ContainerError, match="parameters"):
            parse(bytes(blob))


class TestFuzz:
    """Malformed input raises `ContainerError` and nothing else."""

    VALID = [
        serialize(CipherContainer(CoderParams(7, 44, 10, 230), 524288, rand_bits(1, 77))),
        serialize(CipherContainer(CoderParams(4, 3, 1, 0), 0, "")),
    ]

    @staticmethod
    def parse_or_reject(blob: bytes) -> None:
        try:
            parse(blob)
        except ContainerError:
            pass

    @given(st.binary(max_size=64) | st.binary(max_size=40).map(lambda b: b"HFSA\x01" + b))
    def test_arbitrary_bytes(self, blob):
        self.parse_or_reject(blob)

    @given(st.sampled_from(VALID), st.integers(0, 1 << 16), st.integers(0, 255))
    def test_single_byte_mutations(self, blob, at, value):
        blob = bytearray(blob)
        blob[at % len(blob)] = value
        self.parse_or_reject(bytes(blob))

    @given(
        st.sampled_from(VALID), st.integers(0, 1 << 16), st.integers(0, 255),
        st.integers(0, 2),
    )
    def test_file_header_checks_match_parse(self, blob, at, value, cut):
        # decode checks a file's header, payload size and padding bits
        # before it reads the payload: the same outcome and message as parse
        blob = bytearray(blob)
        blob[at % len(blob)] = value
        blob = bytes(blob[: len(blob) - cut])
        try:
            box = parse(blob)
            want = (box.params, box.plain_bit_len, box.cipher.n)
        except ContainerError as exc:
            want = str(exc)
        for fh in (tempfile.TemporaryFile(), io.BytesIO()):  # a file, a pipe read whole
            with fh:
                fh.write(blob)
                fh.seek(0)
                try:
                    got = read_header(fh)
                    assert fh.tell() == 29
                except ContainerError as exc:
                    got = str(exc)
            assert got == want

"""The packed bit type, its writer, and bit windows read from packed bytes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hfsac import Bits
from hfsac import prefix
from hfsac.bitio import BitWriter
from hfsac.prefix import windows

bit_text = st.text(alphabet="01", max_size=200)


def reference_windows(text: str) -> bytes:
    """The 8-bit window at every position of `text` zero-padded to whole
    bytes, and one past that; bits past the end read as 0."""
    padded = text.ljust(-(-len(text) // 8) * 8, "0") + "0" * 8
    return bytes(int(padded[p : p + 8], 2) for p in range(len(padded) - 7))


class TestBits:
    @given(bit_text)
    def test_text_roundtrip(self, text):
        bits = Bits.from_text(text)
        assert bits.n == len(bits) == len(text)
        assert len(bits.data) == -(-len(text) // 8)
        assert bits.to_text() == text
        assert Bits(bits.data, bits.n) == bits

    def test_bytes_default_to_whole_bytes(self):
        assert Bits(b"\x80\x01").to_text() == "1000000000000001"

    @pytest.mark.parametrize("data,n", [(b"\x01", 7), (b"\xff", 1), (b"\x00\x00", 8), (b"", 1)])
    def test_rejects_bad_padding_or_length(self, data, n):
        with pytest.raises(ValueError):
            Bits(data, n)

    def test_rejects_non_bit_text(self):
        for text in ("0120", "1_0", " 01", "+1"):
            with pytest.raises(ValueError):
                Bits.from_text(text)


class TestBitWriter:
    @given(st.lists(st.lists(st.integers(0, 1), max_size=40), max_size=12))
    def test_writes_concatenate(self, chunks):
        writer = BitWriter()
        for chunk in chunks:
            writer.write(np.array(chunk, np.uint8))
        text = "".join(str(b) for chunk in chunks for b in chunk)
        assert writer.finish() == Bits.from_text(text)

    @given(bit_text, st.integers(0, 200))
    def test_finish_keeps_a_prefix(self, text, n):
        writer = BitWriter()
        writer.write(np.frombuffer(text.encode(), np.uint8) & 1)
        if n > len(text):
            with pytest.raises(ValueError):
                writer.finish(n)
        else:
            assert writer.finish(n) == Bits.from_text(text[:n])

    @pytest.mark.parametrize("n", [-1, -3, -9, 21])
    def test_finish_refuses_out_of_range_length(self, n):
        writer = BitWriter()
        writer.write(np.ones(20, np.uint8))
        with pytest.raises(ValueError, match=f"{n} bits asked of 20 written"):
            writer.finish(n)
        assert writer.finish() == Bits.from_text("1" * 20)

    def test_flushes_across_writes(self):
        # each write packs its whole bytes and carries the rest
        rng = np.random.default_rng(7)
        chunks = [rng.integers(0, 2, k, dtype=np.uint8) for k in (5, 9, 1, 30, 0, 17)]
        writer = BitWriter()
        for chunk in chunks:
            writer.write(chunk)
        text = "".join(map(str, np.concatenate(chunks).tolist()))
        assert writer.finish() == Bits.from_text(text)


class TestWindows:
    @given(bit_text)
    def test_matches_reference(self, text):
        assert bytes(windows(Bits.from_text(text))) == reference_windows(text)

    @given(st.binary(max_size=64))
    def test_matches_reference_across_chunks(self, data):
        # several 16-bit read passes, each starting inside the stream
        prefix._CHUNK, saved = 3, prefix._CHUNK
        try:
            got = windows(Bits(data))
        finally:
            prefix._CHUNK = saved
        assert bytes(got) == reference_windows(Bits(data).to_text())

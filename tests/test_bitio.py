"""The packed bit type, its writer, the byte buffer of a walk, and the bit
windows that the step loop reads from packed bytes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hfsac import Bits
from hfsac.bitio import BitSource, BitWriter
from hfsac.prefix import ByteBuffer, PrefixTable, StepLoop
from conftest import machine_over, packed

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
    @staticmethod
    def written(chunks) -> tuple[list[bytes], int]:
        """What a writer hands its sink for `chunks` of 0/1 bits, each put
        into its buffer as the kernel writes a block, and the bit count its
        flush returns."""
        sunk: list[bytes] = []
        writer = BitWriter(sunk.append)
        for chunk in chunks:
            writer.reserve(len(chunk))
            at = writer.n % 8
            # the bits before `at` are kept, the rest of the bytes written
            value = writer.buffer[0] >> (8 - at) if at else 0
            for b in chunk:
                value = value << 1 | b
            size = (at + len(chunk)) // 8 + 1
            value <<= 8 * size - at - len(chunk)
            writer.buffer[:size] = value.to_bytes(size, "big")
            writer.advance(len(chunk))
        return sunk, writer.flush()

    @given(st.lists(st.lists(st.integers(0, 1), max_size=40), max_size=12))
    def test_writes_concatenate(self, chunks):
        sunk, n = self.written(chunks)
        text = "".join(str(b) for chunk in chunks for b in chunk)
        assert n == len(text)
        # Bits refuses nonzero padding bits: the last byte is zero-padded
        assert Bits(b"".join(sunk), n) == Bits.from_text(text)

    def test_flushes_across_writes(self):
        # each block hands on its whole bytes and carries the rest
        rng = np.random.default_rng(7)
        chunks = [rng.integers(0, 2, k, dtype=np.uint8).tolist() for k in (5, 9, 1, 30, 0, 17)]
        sunk, n = self.written(chunks)
        # 14, 37 and 22 bits are held after the blocks that finish a byte;
        # flush hands on the last 6 bits
        assert [len(b) for b in sunk] == [1, 4, 2, 1]
        text = "".join(map(str, sum(chunks, [])))
        assert n == 62
        assert Bits(b"".join(sunk), n) == Bits.from_text(text)

    def test_reserve_keeps_the_carried_bits(self):
        # a larger buffer is allocated once, with the unfinished byte
        sunk, n = self.written([[1, 0, 1], [1] * 300, [0, 1]])
        assert Bits(b"".join(sunk), n) == Bits.from_text("101" + "1" * 300 + "01")


def window_reader() -> StepLoop:
    """A step loop over one state whose words are the 256 bytes, row r the
    byte r: the row of a step is the window it reads."""
    words = packed(np.unpackbits(np.arange(256, dtype=np.uint8)))
    table = PrefixTable(np.array([0, 256]), np.full(256, 8), words)
    return StepLoop(table, machine_over(table), steps=1)


READER = window_reader()
PAD = 3  # the zero bytes a walk's buffer keeps past its held ones, for 8-bit words


def read_window(data, end: int, pos: int) -> int | None:
    """The window that the step loop reads at bit `pos` of `data`, whose
    bits past `end` must read as 0 for PAD bytes, or None where no step
    starts there."""
    failed = READER.run(data, pos, end, 1, 2**62)
    return None if failed else int(READER.rows[0])


class TestWindows:
    @given(bit_text)
    def test_matches_reference(self, text):
        # every bit of the bytes and the one window past them; no step
        # starts further on
        data = Bits.from_text(text).data
        padded = data + bytes(PAD)
        got = [read_window(padded, 8 * len(data), p) for p in range(8 * len(data) + 2)]
        assert got == [*reference_windows(text), None]

    @given(st.binary(min_size=1, max_size=8), st.data())
    def test_bytes_past_the_held_ones_read_as_zero(self, data, draw):
        # the step loop reads past the held bytes unchecked: a buffer over a
        # stream that ends past `held` bytes and that slid there keeps zeros
        # past them, where its last slide moved bytes off
        held = draw.draw(st.integers(0, len(data)))
        buf = ByteBuffer(BitSource.of(Bits(data)), len(data), PAD)
        buf.slide(0)
        buf.slide(8 * (len(data) - held))
        assert buf.held == held
        want = reference_windows(Bits(data[len(data) - held :]).to_text())
        assert [read_window(buf.data, 8 * held, p) for p in range(8 * held + 1)] == list(want)


class TestWindowBuffer:
    """The `ByteBuffer` that a walk's windows are read from."""

    def slide_through(self, data, n, span, strides):
        """Slides a buffer of `span` over `n` bits of `data` by `strides` in
        turn, then by 1 to the end, checking the bytes held and the window
        at every start."""
        text = Bits(data).to_text()[:n]
        bits = Bits.from_text(text)
        want = reference_windows(text)
        buf = ByteBuffer(BitSource.of(bits), span, PAD)
        assert len(buf.data) == min(span, len(bits.data)) + PAD  # allocated once
        pos = 0
        strides = iter(strides)
        while True:
            at = buf.slide(pos)
            assert 8 * buf.base + at == pos and 0 <= at < 8, pos
            # span bytes from the one holding `pos`, or all up to the end
            assert buf.data[: buf.held] == bits.data[buf.base : buf.base + span], pos
            assert buf.data[buf.held :] == bytes(len(buf.data) - buf.held), pos
            assert read_window(buf.data, 8 * buf.held, at) == want[pos], pos
            if pos == 8 * len(bits.data):  # the one window past the last byte
                return
            # the walk slides no further than the bits it holds
            pos += max(1, min(next(strides, 1), 8 * buf.held - at))

    @pytest.mark.parametrize("span", [2, 3, 9, 16, 17, 23, 40, 1000])
    def test_every_start_offset(self, span):
        data = np.random.default_rng(span).bytes(24)
        for n in (0, 1, 8, 13, 64, 185, 192):
            self.slide_through(data, n, span, [])

    @settings(max_examples=200, deadline=None)
    @given(
        st.binary(max_size=40),
        st.integers(0, 7),
        st.integers(2, 12),
        st.lists(st.integers(1, 90), max_size=30),
    )
    def test_strides_and_chunks(self, data, cut, span, strides):
        # spans of a few bytes: each slide moves the bytes held and reads
        # the next few in one chunk
        self.slide_through(data, max(8 * len(data) - cut, 0), span, strides)

    def test_a_short_read_raises(self):
        source = BitSource(lambda k: b"\x01", 24)
        with pytest.raises(ValueError, match="ends 2 bytes short"):
            ByteBuffer(source, 100, PAD).slide(0)

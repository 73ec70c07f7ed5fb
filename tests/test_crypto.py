import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hfsac import (
    BitSource,
    BitWriter,
    Bits,
    CoderParams,
    CorruptStreamError,
    KeyFormatError,
    KeySchedule,
    SplitMix64,
    StepRecord,
    StepTrace,
    TruncatedStreamError,
    WrongKeyError,
    analyze_image,
    bernoulli_bits,
    build_codec,
    build_full_fsm,
    decrypt,
    decrypt_bits,
    decrypt_stream,
    draw_bernoulli,
    draw_uniform,
    encrypt,
    encrypt_bits,
    fsac_parse,
    hfac_decode,
    hfac_encode,
    keyspace_bits,
    monobit,
    pearson_corr,
    seed_from_hex,
    seed_to_hex,
    substream_init,
    swap_codeword,
    unpack_bits,
    validate_reduced,
)
from hfsac import cli, coder, huffman, reducer
from hfsac.crypto import GOLDEN, TAG_JUMP, TAG_STATE, TAG_SWAP
from hfsac import prefix
from hfsac.prefix import BLOCK_STEPS
from conftest import (
    SWEEP, ReferenceSplitMix, packed, rand_bits, reference_decrypt, reference_encrypt,
    reference_match, reference_parse, reference_streams, synthetic_image,
)


class TestSplitMix:
    def test_known_first_output(self):
        assert SplitMix64(0).next_u64() == 0xE220A8397B1DCDAF

    @pytest.mark.parametrize(
        # 2**64 - GOLDEN wraps to state 0 on the first draw, and the others
        # wrap within the first few
        "seed", [0, 0x5EED, 2**64 - 1, 2**64 - GOLDEN, 2**64 - 3 * GOLDEN % 2**64],
    )
    def test_matches_the_reference_splitmix(self, seed):
        # the kernels against the scalar oracle, draw by draw and in blocks
        # that end on either side of a counter wrap
        ref = ReferenceSplitMix(seed)
        gen = SplitMix64(seed)
        assert [gen.next_u64() for _ in range(5)] == [ref.next() for _ in range(5)]
        for m in (1, 0, 2, 3, 8192, 7):
            assert gen.next_block(m).tolist() == [ref.next() for _ in range(m)]
            assert gen.state == ref.state
        assert ReferenceSplitMix(0).next() == 0xE220A8397B1DCDAF

    def test_equal_states_equal_streams(self):
        a, b = SplitMix64(12345), SplitMix64(12345)
        assert [a.next_u64() for _ in range(1000)] == [
            b.next_u64() for _ in range(1000)
        ]

    def test_substream_init_zero_seed(self):
        assert substream_init(0, 1).state == GOLDEN

    def test_substreams_distinct(self):
        for seed in (0, 1, 0xDEADBEEF, 2**64 - 1):
            states = {substream_init(seed, tag).state for tag in (1, 2, 3)}
            assert len(states) == 3

    def test_substream_deterministic(self):
        a = substream_init(99, TAG_SWAP)
        b = substream_init(99, TAG_SWAP)
        assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]

    @pytest.mark.parametrize(
        # 2**64 - GOLDEN wraps to state 0 on the first draw
        "seed", [0, 0x5EED, 2**64 - 1, 2**64 - 2, 2**64 - GOLDEN],
    )
    def test_block_draws_equal_sequential_draws(self, seed):
        a, b = SplitMix64(seed), SplitMix64(seed)
        sizes = (1, 7, 0, 12, 13, 300, 64, 8193)
        blocks = [a.next_block(m).tolist() for m in sizes]
        assert [z for block in blocks for z in block] == [
            b.next_u64() for _ in range(sum(sizes))
        ]
        assert a.state == b.state

    @pytest.mark.parametrize("m", [-1, -5])
    def test_block_refuses_negative_count(self, m):
        gen = SplitMix64(7)
        with pytest.raises(ValueError, match=f"m must be >= 0, got {m}"):
            gen.next_block(m)
        assert gen.state == SplitMix64(7).state

    def test_tweaked_substream_block_draws(self):
        ks = KeySchedule(2**64 - 1, 128, ((TAG_SWAP, 1 << 63), (TAG_JUMP, 3)))
        for tag in (TAG_JUMP, TAG_STATE, TAG_SWAP):
            a, b = ks.substream(tag), ks.substream(tag)
            assert a.next_block(5000).tolist() == [b.next_u64() for _ in range(5000)]
            assert a.next_block(3).tolist() == [b.next_u64() for _ in range(3)]

    def test_keystream_monobit(self):
        bits = bernoulli_bits(SplitMix64(0x5EED), 1_000_000, 0.5)
        assert monobit(bits) >= 0.01


class TestDraws:
    def test_bernoulli_extremes(self):
        gen = SplitMix64(7)
        assert not any(draw_bernoulli(gen, 0) for _ in range(1000))
        assert all(draw_bernoulli(gen, 256) for _ in range(1000))

    def test_bernoulli_half_rate(self):
        gen = SplitMix64(11)
        hits = sum(draw_bernoulli(gen, 128) for _ in range(100_000))
        assert abs(hits / 100_000 - 0.5) < 0.01

    @pytest.mark.parametrize("n", [0, 1, 7, 8192, 8193, 100_000])
    @pytest.mark.parametrize("p_zero", [0, 0.02, 0.35, 0.5, 1])
    def test_bernoulli_bits_match_per_draw_reference(self, n, p_zero):
        gen, ref = SplitMix64(n + 3), SplitMix64(n + 3)
        threshold = round(p_zero * (1 << 64))
        expected = "".join("0" if ref.next_u64() < threshold else "1" for _ in range(n))
        assert bernoulli_bits(gen, n, p_zero) == expected
        assert gen.state == ref.state

    @pytest.mark.parametrize("p_zero", [math.nan, -1.0, -1e-9, 1.5, 2.0, math.inf], ids=repr)
    def test_bernoulli_bits_refuse_out_of_range(self, p_zero):
        with pytest.raises(ValueError, match=rf"p_zero must be in \[0, 1\], got {p_zero!r}"):
            bernoulli_bits(SplitMix64(1), 20, p_zero)

    @pytest.mark.parametrize("n", [-1, -5])
    def test_bernoulli_bits_refuse_negative_count(self, n):
        with pytest.raises(ValueError, match=f"n must be >= 0, got {n}"):
            bernoulli_bits(SplitMix64(1), n, 0.5)

    def test_uniform_m1(self):
        gen = SplitMix64(13)
        assert all(draw_uniform(gen, 1) == 0 for _ in range(100))

    def test_uniform_range(self):
        gen = SplitMix64(17)
        values = {draw_uniform(gen, 5) for _ in range(1000)}
        assert values == {0, 1, 2, 3, 4}

    def test_uniform_rejects_zero(self):
        with pytest.raises(ValueError):
            draw_uniform(SplitMix64(1), 0)


class TestSeedText:
    def test_roundtrip(self):
        assert seed_from_hex(seed_to_hex(0xABCDEF0123456789)) == 0xABCDEF0123456789

    def test_trailing_newline_ok(self):
        assert seed_from_hex("00000000000000ff\n") == 255

    @pytest.mark.parametrize("text", ["", "xyz", "ABCDEF0123456789", "0" * 15, "0" * 17])
    def test_rejects_malformed(self, text):
        with pytest.raises(KeyFormatError):
            seed_from_hex(text)


class TestEncrypt:
    def test_forced_keystream_hand_trace(self, cache):
        # key 0x55 at q = 0 draws target 1 on the first step, never jumps
        # again, and draws swap positions 5 and 3 (max_len of state 1 is 5,
        # of state 0 is 3): state 1 turns "0" into its first codeword
        # complemented from bit 5 on, past its end, and state 0 then eats
        # "10", its codeword complemented from bit 3 on
        codec = cache.codec(4, 3, 1)
        ks = KeySchedule(0x55, 0)
        _, target, swap = reference_streams(ks)
        assert target.below(codec.rm.state_count) == 1
        assert (swap.below(6), swap.below(4)) == (5, 3)
        cipher, trace = encrypt("010", codec, ks)
        assert cipher == "10000"
        assert [(r.jumped, r.state, r.transition, r.swap_pos) for r in trace] == [
            (True, 1, 0, 5),
            (False, 0, 1, 3),
        ]

    def test_first_step_always_jumps(self, cache):
        codec = cache.codec(4, 3, 1)
        for seed in range(8):
            _, trace = encrypt("0101", codec, KeySchedule(seed, 0))
            assert trace.jumped.tolist() == [True] + [False] * (len(trace) - 1)

    def test_trace_mirrors_keystream(self, cache):
        codec = cache.codec(5, 6, 1)
        rm = codec.rm
        bits = rand_bits(4242, 600, 0.4)
        ks = KeySchedule(0x1122334455667788, 128)
        cipher, trace = encrypt(bits, codec, ks)
        gj = ks.substream(TAG_JUMP)
        gs = ks.substream(TAG_STATE)
        gw = ks.substream(TAG_SWAP)
        pos = 0
        carried = 0
        emitted = []
        blocks = {}
        for i, rec in enumerate(trace):
            jumped = draw_bernoulli(gj, 128) or i == 0
            assert rec.jumped == jumped
            state = draw_uniform(gs, rm.state_count) if jumped else carried
            assert rec.state == state
            swap_pos = draw_uniform(gw, codec.tables[state].max_len + 1)
            assert rec.swap_pos == swap_pos
            idx, length = reference_match(rm, state, bits, pos, blocks)
            assert rec.transition == idx
            emitted.append(
                swap_codeword(codec.tables[state].codewords[idx], swap_pos)
            )
            carried = rm.transitions[state][idx].to
            pos += length
        assert "".join(emitted) == cipher

    def test_deterministic(self, cache):
        codec = cache.codec(6, 13, 3)
        bits = rand_bits(5, 2000, 0.3)
        ks = KeySchedule(42, 230)
        assert encrypt(bits, codec, ks) == encrypt(bits, codec, ks)

    def test_empty_plain(self, cache):
        codec = cache.codec(4, 3, 1)
        cipher, trace = encrypt("", codec, KeySchedule(1, 128))
        assert cipher == "" and trace == StepTrace()

    def test_trace_columns_behave_as_records(self, cache):
        codec = cache.codec(5, 6, 1)
        _, trace = encrypt(rand_bits(77, 400, 0.4), codec, KeySchedule(5, 128))
        records = tuple(trace)
        assert len(trace) == len(records) > 0
        columns = (trace.jumped, trace.state, trace.transition, trace.swap_pos)
        rows = zip(*(c.tolist() for c in columns))
        assert records == tuple(StepRecord(*r) for r in rows)
        assert trace == StepTrace(*columns)
        assert trace != StepTrace(*(c[:-1] for c in columns))
        assert trace != records

    def test_rejects_non_bit_characters(self, cache):
        codec = cache.codec(4, 3, 1)
        with pytest.raises(ValueError):
            encrypt("0120", codec, KeySchedule(1, 128))

    def test_swapped_output_differs_from_plain_tables(self, cache):
        codec = cache.codec(4, 3, 1)
        from hfsac import hfac_encode

        unkeyed = hfac_encode("0" * 2000, codec)
        keyed, _ = encrypt("0" * 2000, codec, KeySchedule(0xABCDEF, 128))
        m = min(len(unkeyed), len(keyed))
        diff = sum(a != b for a, b in zip(unkeyed[:m], keyed[:m])) / m
        assert diff >= 0.30


class TestDecrypt:
    @pytest.mark.parametrize("q", [0, 128, 230])
    def test_roundtrip(self, cache, q):
        codec = cache.codec(5, 14, 3)
        for i in range(10):
            bits = rand_bits(900 + i, 1500, 0.45)
            ks = KeySchedule(1000 + i, q)
            cipher, _ = encrypt(bits, codec, ks)
            assert decrypt(cipher, codec, ks, len(bits)) == bits

    def test_roundtrip_exhaustive_short(self, cache):
        codec = cache.codec(4, 3, 1)
        ks = KeySchedule(0xFEED, 128)
        for length in range(9):
            for v in range(1 << length):
                bits = format(v, f"0{length}b") if length else ""
                cipher, _ = encrypt(bits, codec, ks)
                assert decrypt(cipher, codec, ks, length) == bits

    def test_zero_bits(self, cache):
        codec = cache.codec(4, 3, 1)
        assert decrypt("", codec, KeySchedule(9, 128), 0) == ""

    @pytest.mark.parametrize("n_bits", [-1, -3, -9])
    def test_refuses_negative_n_bits(self, cache, n_bits):
        # refused at entry, also on an empty cipher, which no step would read
        codec = cache.codec(4, 3, 1)
        ks = KeySchedule(9, 128)
        cipher, _ = encrypt_bits(Bits.from_text("0110"), codec, ks)
        message = f"n_bits must be >= 0, got {n_bits}"
        for bits in (Bits(), cipher):
            with pytest.raises(ValueError, match=message):
                decrypt_bits(bits, codec, ks, n_bits)
            written = []
            with pytest.raises(ValueError, match=message):
                decrypt_stream(BitSource.of(bits), codec, ks, n_bits, BitWriter(written.append))
            assert written == []

    def test_wrong_key_never_silently_matches(self, cache):
        codec = cache.codec(6, 28, 1)
        bits = rand_bits(321, 100_000, 0.5)
        ks = KeySchedule(0x0123456789ABCDEF, 128)
        cipher, _ = encrypt(bits, codec, ks)
        wrong = KeySchedule(0x0123456789ABCDEE, 128)
        try:
            out = decrypt(cipher, codec, wrong, len(bits))
        except (WrongKeyError, TruncatedStreamError):
            return
        assert out != bits
        xs = [int(b) for b in bits[: len(out)]]
        ys = [int(b) for b in out[: len(bits)]]
        assert abs(pearson_corr(xs, ys)) < 0.01

    def test_truncated_stream(self, cache):
        codec = cache.codec(4, 3, 1)
        ks = KeySchedule(77, 128)
        cipher, _ = encrypt("0101010101", codec, ks)
        with pytest.raises(TruncatedStreamError):
            decrypt(cipher[: len(cipher) // 2], codec, ks, 10)

    @pytest.mark.parametrize("params", [(4, 3, 1), (7, 44, 10), (10, 1, 3)])
    def test_every_cut_raises(self, cache, params):
        codec = cache.codec(*params)
        bits = rand_bits(606, 300, 0.5)
        ks = KeySchedule(0xC0DE, 230)
        cipher, _ = encrypt(bits, codec, ks)
        for k in range(len(cipher)):
            with pytest.raises((TruncatedStreamError, WrongKeyError)):
                decrypt(cipher[:k], codec, ks, len(bits))

    def test_garbled_stream_raises(self, cache):
        codec = cache.codec(4, 3, 1)
        ks = KeySchedule(78, 128)
        cipher, _ = encrypt("1111000011110000", codec, ks)
        flipped = ("1" if cipher[0] == "0" else "0") + cipher[1:]
        with pytest.raises((WrongKeyError, TruncatedStreamError)):
            decrypt(flipped + "0000", codec, ks, 64)


    def test_whole_cipher_check_figures(self, cache):
        # the length check catches every wrong seed, but 13 of 51 single-bit
        # flips still decode, to wrong plaintext, without error: it is no MAC
        codec = cache.codec(7, 44, 10)
        seed = 0x0123456789ABCDEF
        plain = Bits.from_text(rand_bits(5, 15_000, 0.5))
        cipher, _ = encrypt_bits(plain, codec, KeySchedule(seed, 230))
        assert cipher.n == 16_843
        for j in range(1, 51):
            with pytest.raises((WrongKeyError, TruncatedStreamError)):
                decrypt_bits(cipher, codec, KeySchedule(seed + j, 230), plain.n)
        flips = range(0, cipher.n, cipher.n // 50)
        silent = 0
        for i in flips:
            data = bytearray(cipher.data)
            data[i // 8] ^= 0x80 >> (i % 8)
            try:
                out = decrypt_bits(Bits(data, cipher.n), codec, KeySchedule(seed, 230), plain.n)
            except (WrongKeyError, TruncatedStreamError):
                continue
            assert out != plain
            silent += 1
        assert (len(flips), silent) == (51, 13)

    def test_left_over_bits_name_step_and_offset(self, cache):
        codec = cache.codec(4, 3, 1)
        ks = KeySchedule(77, 128)
        cipher, trace = encrypt("0101010101", codec, ks)
        left_over = rf"3 stream bits left over after step {len(trace)}, at bit {len(cipher)}"
        with pytest.raises(WrongKeyError, match=left_over):
            decrypt(cipher + "101", codec, ks, 10)
        with pytest.raises(WrongKeyError, match="1 stream bits left over after step 0"):
            decrypt("1", codec, ks, 0)

    def test_truncation_names_step_and_offset(self, cache):
        codec = cache.codec(7, 44, 10)
        ks = KeySchedule(0xC0DE, 230)
        cipher, trace = encrypt(rand_bits(11, 3000, 0.5), codec, ks)
        last = trace.state[-1], trace.transition[-1]
        start = len(cipher) - len(codec.tables[last[0]].codewords[last[1]])
        with pytest.raises(
            TruncatedStreamError,
            match=f"stream ends inside a codeword at step {len(trace) - 1}, bit {start}$",
        ):
            decrypt(cipher[:-1], codec, ks, 3000)


def _outcome(decode, *args):
    """What a decode gives: its '0'/'1' text, or its error's (type, message)."""
    try:
        return decode(*args)
    except (TruncatedStreamError, WrongKeyError, CorruptStreamError) as exc:
        return type(exc), str(exc)


def _decrypt_text(codec, cipher: str, ks, n_bits: int) -> str:
    return decrypt_bits(Bits.from_text(cipher), codec, ks, n_bits).to_text()


def _flip(text: str, i: int) -> str:
    return text[:i] + "10"[int(text[i])] + text[i + 1 :]


class TestDecodeMatchesReference:
    """Every decode outcome, plain bits or error class and message, equals
    the one of the scalar `reference_decrypt`."""

    def check(self, codec, cipher: str, ks, n_bits: int):
        expected = _outcome(reference_decrypt, codec, cipher, ks, n_bits)
        if ks is None:
            got = _outcome(hfac_decode, cipher, codec, n_bits)
        else:
            got = _outcome(_decrypt_text, codec, cipher, ks, n_bits)
        assert got == expected
        return got

    def check_located(self, codec, cipher: str, ks, n_bits: int):
        """`check` of a failing decode; its error also carries the step and
        bit that the reference's message names, as `step` and `bit`."""
        error, message = self.check(codec, cipher, ks, n_bits)
        with pytest.raises(error) as info:
            _decrypt_text(codec, cipher, ks, n_bits)
        figures = re.search(r"step (\d+), (?:at )?bit (\d+)", message).groups()
        assert (info.value.step, info.value.bit) == tuple(map(int, figures)), message

    @pytest.mark.parametrize("params", [(4, 3, 1), (7, 44, 10), (10, 1, 3)])
    def test_every_cut(self, cache, params):
        codec = cache.codec(*params)
        bits = rand_bits(606, 300, 0.5)
        ks = KeySchedule(0xC0DE, 230)
        cipher, _ = encrypt(bits, codec, ks)
        assert self.check(codec, cipher, ks, len(bits)) == bits
        for k in range(len(cipher)):
            self.check_located(codec, cipher[:k], ks, len(bits))

    def test_check_figure_flips_and_wrong_keys(self, cache):
        # the ciphers of TestDecrypt::test_whole_cipher_check_figures
        codec = cache.codec(7, 44, 10)
        seed = 0x0123456789ABCDEF
        bits = rand_bits(5, 15_000, 0.5)
        cipher, _ = encrypt(bits, codec, KeySchedule(seed, 230))
        for j in range(1, 51):
            self.check(codec, cipher, KeySchedule(seed + j, 230), len(bits))
        for i in range(0, len(cipher), len(cipher) // 50):
            self.check(codec, _flip(cipher, i), KeySchedule(seed, 230), len(bits))

    @pytest.mark.parametrize("params", [(4, 3, 1), (7, 44, 10), (10, 1, 3)])
    def test_appended_bits(self, cache, params):
        codec = cache.codec(*params)
        bits = rand_bits(707, 200, 0.5)
        ks = KeySchedule(0xA99E, 128)
        cipher, _ = encrypt(bits, codec, ks)
        for tail in ("0", "1", "01", "0" * 8, "1" * 9, rand_bits(8, 40, 0.5)):
            self.check_located(codec, cipher + tail, ks, len(bits))

    def test_failures_past_the_first_keystream_block(self, cache):
        # the failing step is the last of the first block, the first of the
        # second, or in the last block
        codec = cache.codec(4, 3, 1)
        ks = KeySchedule(0x5EC0, 230)
        bits = rand_bits(808, 36_000, 0.5)
        cipher, trace = encrypt(bits, codec, ks)
        steps = len(trace)
        assert steps > 2 * BLOCK_STEPS
        rows = codec.rm.row_base[trace.state] + trace.transition
        starts = (np.cumsum(codec.code_len[rows]) - codec.code_len[rows]).tolist()
        fed = np.cumsum(codec.rm.block_len[rows]).tolist()
        for k in (BLOCK_STEPS - 1, BLOCK_STEPS, steps - 3):
            _, message = self.check(codec, cipher[: starts[k]], ks, len(bits))
            assert f"step {k}, bit {starts[k]}" in message
            self.check(codec, cipher[: starts[k] + 1], ks, len(bits))
            self.check(codec, _flip(cipher, starts[k]), ks, len(bits))
            # n_bits reached at step k: the rest of the cipher is left over
            _, message = self.check(codec, cipher, ks, fed[k])
            assert f"after step {k + 1}, at bit {starts[k + 1]}" in message

    @pytest.mark.parametrize("q", [0, 230])
    def test_long_block_cipher(self, cache, q):
        # more than two keystream blocks, decoded whole and with its last bit cut
        codec = cache.codec(4, 3, 1)
        ks = KeySchedule(0xB10C, q)
        bits = rand_bits(909, 36_000, 0.5)
        cipher, trace = encrypt(bits, codec, ks)
        assert len(trace) > 2 * BLOCK_STEPS
        assert self.check(codec, cipher, ks, len(bits)) == bits
        self.check(codec, cipher[:-1], ks, len(bits))

    def test_incomplete_code(self, cache):
        # state 0's first codeword grows a bit, which leaves a gap in its
        # code: windows in the gap match nothing, and no step overruns there
        codec = cache.codec(4, 3, 1)
        words = codec.outputs.words()
        words[0] += "0"
        gapped = huffman.HfsacCodec(
            codec.rm, [len(w) for w in words], packed([int(b) for w in words for b in w])
        )
        messages = set()
        for i in range(60):
            ks = KeySchedule(0x6A9 + i, 230)
            bits = rand_bits(i, 40, 0.5)
            cipher, _ = encrypt(bits, gapped, ks)
            assert self.check(gapped, cipher, ks, len(bits)) == bits
            for cut in range(40, 61):
                got = self.check(gapped, rand_bits(100 + i, cut, 0.5), ks, len(bits))
                if isinstance(got, tuple):
                    messages.add(got[1].split(" at ")[0])
        assert "no codeword of state 0 matches" in messages
        # keyless, from state 0: the gap at bit 0 of streams of every length
        gap = words[0][:-1] + "1" + "0" * 8
        outcomes = {self.check(gapped, gap[:k], None, 8) for k in range(len(gap) + 1)}
        assert {o[1].split(" at ")[0] for o in outcomes} == {
            "stream ends inside a codeword", "no codeword of state 0 matches",
        }

    def test_keyless_long_codewords(self, cache):
        # (10, 1, 3) has 10-bit codewords, which go through child nodes: the
        # keyless swap must lie past every one of them
        codec = cache.codec(10, 1, 3)
        assert codec.code_len.max() == 10
        bits = rand_bits(1010, 300, 0.5)
        code = hfac_encode(bits, codec)
        assert self.check(codec, code, None, len(bits)) == bits
        for k in range(len(code)):
            assert isinstance(self.check(codec, code[:k], None, len(bits)), tuple)
        for i in range(0, len(code), 7):
            self.check(codec, _flip(code, i), None, len(bits))
        for tail in ("0", "1", "1" * 10, rand_bits(9, 25, 0.5)):
            assert isinstance(self.check(codec, code + tail, None, len(bits)), tuple)


# every sweep machine, plus one whose input blocks (up to 512 bits) and
# codewords (10 bits) run past the end of the packed bytes
PACKED_PARAMS = SWEEP + [(10, 1, 3)]


class TestPackedCore:
    @settings(max_examples=120, deadline=None)
    @given(
        params=st.sampled_from(PACKED_PARAMS),
        text=st.text(alphabet="01", max_size=300),
        seed=st.integers(0, 2**64 - 1),
        q=st.sampled_from([0, 128, 230, 256]),
    )
    @example(params=(10, 1, 3), text="", seed=1, q=128)
    @example(params=(10, 1, 3), text="0" * 300, seed=2, q=230)
    @example(params=(4, 3, 1), text="0101", seed=3, q=0)
    def test_packed_matches_reference_and_text_adapters(self, cache, params, text, seed, q):
        codec = cache.codec(*params)
        ks = KeySchedule(seed, q)
        plain = Bits.from_text(text)
        cipher, no_trace = encrypt_bits(plain, codec, ks)
        assert no_trace is None
        assert cipher == Bits.from_text(reference_encrypt(codec, text, ks))
        text_cipher, trace = encrypt(text, codec, ks)
        assert Bits.from_text(text_cipher) == cipher
        assert encrypt_bits(plain, codec, ks, trace=True) == (cipher, trace)
        assert decrypt_bits(cipher, codec, ks, plain.n) == plain
        assert decrypt(text_cipher, codec, ks, len(text)) == text

    @pytest.mark.parametrize(
        "params, n_bits, three_blocks",
        [((4, 3, 1), 36_000, True), ((10, 1, 3), 17_000, False)],
    )
    def test_encrypt_and_parse_across_keystream_blocks(
        self, cache, params, n_bits, three_blocks
    ):
        # texts whose last step is the last of the first keystream block, the
        # first of the second or the one after; each ends one bit short of
        # that step's state's longest block, which the zero padding completes
        # (512 bits on (10, 1, 3)).  The whole text is checked too: on
        # (4, 3, 1) it runs over three keystream blocks, on (10, 1, 3) over two.
        codec = cache.codec(*params)
        rm = codec.rm
        ks = KeySchedule(0xB10C5, 230)
        bits = rand_bits(1313, n_bits, 0.5)
        rows = reducer.parse_rows(Bits.from_text(bits), rm)
        starts = (np.cumsum(rm.block_len[rows]) - rm.block_len[rows]).tolist()
        texts = {}
        for k in (BLOCK_STEPS - 1, BLOCK_STEPS, BLOCK_STEPS + 1):
            blocks = rm.transitions[int(rm.row_state[rows[k]])]
            longest = max((t.input_block for t in blocks), key=len)
            texts[k] = bits[: starts[k]] + longest[:-1]
        assert len(rows) > (2 if three_blocks else 1) * BLOCK_STEPS + 1
        texts[len(rows) - 1] = bits
        for last, text in texts.items():
            steps, padded = reference_parse(rm, text)
            assert len(steps) == last + 1
            assert fsac_parse(text, rm) == (steps, padded)
            cipher, _ = encrypt_bits(Bits.from_text(text), codec, ks)
            assert cipher == Bits.from_text(reference_encrypt(codec, text, ks))

    @pytest.mark.parametrize("params", [(4, 3, 1), (10, 1, 3)])
    def test_cipher_lengths_off_byte_boundaries(self, cache, params):
        codec = cache.codec(*params)
        ks = KeySchedule(0xB17E, 230)
        tails = set()
        for length in range(0, 64):
            plain = Bits.from_text(rand_bits(length + 50, length, 0.3))
            cipher, _ = encrypt_bits(plain, codec, ks)
            tails.add(cipher.n % 8)
            assert Bits(cipher.data, cipher.n) == cipher
            assert decrypt_bits(cipher, codec, ks, plain.n) == plain
        assert tails - {0}


class TestWindowRefill:
    """The walks read their streams through one byte buffer, slid to the
    first bit of each keystream block.  With a few steps per block, so that
    it slides and refills at every few words, encrypt, decrypt and the parse
    still equal the scalar references; so does every decode outcome of the
    cipher, one bit short and one bit long."""

    CODECS = [(4, 3, 1), (7, 44, 10), (10, 1, 3)]

    def check(self, codec, text: str, ks) -> list:
        steps, padded = reference_parse(codec.rm, text)
        assert fsac_parse(text, codec.rm) == (steps, padded)
        cipher = reference_encrypt(codec, text, ks)
        assert encrypt_bits(Bits.from_text(text), codec, ks)[0] == Bits.from_text(cipher)
        for c in (cipher, cipher[:-1], cipher + "0"):
            want = _outcome(reference_decrypt, codec, c, ks, len(text))
            assert _outcome(_decrypt_text, codec, c, ks, len(text)) == want
        return steps

    @pytest.mark.parametrize("block_steps", [1, 2, 3])
    @pytest.mark.parametrize("params", CODECS)
    def test_random_texts(self, cache, monkeypatch, params, block_steps):
        # the buffer slides to every bit offset within a byte, and many a
        # block's last word starts within the 8 bits before the next slide
        # (with one step a block, every word of at most 8 bits does)
        monkeypatch.setattr(prefix, "BLOCK_STEPS", block_steps)
        codec = cache.codec(*params)
        ks = KeySchedule(0x5EED + block_steps, 230)
        for n in (0, 1, 9, 2500):
            self.check(codec, rand_bits(n + block_steps, n, 0.4), ks)

    @pytest.mark.parametrize("block_steps", [1, 2])
    def test_longest_blocks_across_slides(self, cache, monkeypatch, block_steps):
        # (10, 1, 3): a run of 512-bit blocks of ones fills each keystream
        # block's span of the buffer to its last 3 bytes, so the next
        # block's first 512-bit word lies in bytes kept by the slide and in
        # bytes read after it; the random bits before the run move it off
        # byte boundaries
        monkeypatch.setattr(prefix, "BLOCK_STEPS", block_steps)
        codec = cache.codec(10, 1, 3)
        ks = KeySchedule(0x10B, 230)
        blocks = codec.rm.transitions[0]
        for lead in (0, 3, 13):
            text = rand_bits(lead, lead, 0.5) + "1" * (512 * 6) + rand_bits(lead + 1, 40, 0.5)
            steps = self.check(codec, text, ks)
            assert sum(len(blocks[i].input_block) == 512 for _, i in steps) >= 5

    @pytest.mark.parametrize("params", CODECS)
    def test_streams_ending_at_a_slide(self, cache, monkeypatch, params):
        # three steps a block: texts of exactly one and two blocks end where
        # the next slide would be, the others one step before or after
        monkeypatch.setattr(prefix, "BLOCK_STEPS", 3)
        codec = cache.codec(*params)
        ks = KeySchedule(0xE4D, 230)
        bits = rand_bits(77, 600, 0.5)
        rows = reducer.parse_rows(Bits.from_text(bits), codec.rm)
        ends = np.cumsum(codec.rm.block_len[rows]).tolist()
        for k in (2, 3, 4, 5, 6, 7):
            assert len(self.check(codec, bits[: ends[k - 1]], ks)) == k


class TestKeySchedule:
    def test_validation(self):
        with pytest.raises(ValueError):
            KeySchedule(-1, 128)
        with pytest.raises(ValueError):
            KeySchedule(5, 300)

    def test_tweak_changes_only_that_substream(self):
        base = KeySchedule(1234, 128)
        tweaked = KeySchedule(1234, 128, ((TAG_JUMP, 1),))
        assert base.substream(TAG_JUMP).state != tweaked.substream(TAG_JUMP).state
        assert base.substream(TAG_STATE).state == tweaked.substream(TAG_STATE).state
        assert base.substream(TAG_SWAP).state == tweaked.substream(TAG_SWAP).state


class TestKeyspace:
    def test_exact_small(self):
        assert keyspace_bits(8, 10) == pytest.approx(70 * math.log2(10), rel=1e-12)

    def test_asymptotic_small(self):
        expect = 0.8 * 256 / math.sqrt(8) * math.log2(10)
        assert keyspace_bits(8, 10, mode="asymptotic") == pytest.approx(expect)

    def test_forced_first_reduces_exponent(self):
        assert keyspace_bits(8, 10, forced_first=True) == pytest.approx(
            35 * math.log2(10), rel=1e-12
        )
        assert keyspace_bits(8, 10, forced_first=True, mode="asymptotic") == (
            pytest.approx(0.4 * 256 / math.sqrt(8) * math.log2(10))
        )

    def test_single_state_no_freedom(self):
        assert keyspace_bits(8, 1) == 0.0
        assert keyspace_bits(8, 1, mode="asymptotic") == 0.0

    @pytest.mark.parametrize("n", range(2, 31, 2))
    def test_exact_matches_direct_binomial(self, n):
        got = keyspace_bits(n, 12)
        expect = math.comb(n, n // 2) * math.log2(12)
        assert got == pytest.approx(expect, rel=1e-9)

    @pytest.mark.parametrize("n", [16, 20, 24, 28])
    def test_asymptotic_agrees_within_5pct(self, n):
        exact = keyspace_bits(n, 20)
        approx = keyspace_bits(n, 20, mode="asymptotic")
        assert abs(exact - approx) / exact < 0.05

    def test_rejects_odd_or_tiny_n(self):
        with pytest.raises(ValueError):
            keyspace_bits(7, 10)
        with pytest.raises(ValueError):
            keyspace_bits(0, 10)
        with pytest.raises(ValueError, match="n must be >= 1"):
            keyspace_bits(0, 10, mode="asymptotic")
        with pytest.raises(ValueError):
            keyspace_bits(8, 10, mode="nonsense")
        with pytest.raises(ValueError):
            keyspace_bits(8, 0)

    @pytest.mark.parametrize("mode", ["exact", "asymptotic"])
    def test_float_range(self, mode):
        # 2**1000 / sqrt(1000) is ~3.4e299; past n ~ 1,030 the count of a
        # float overflows, for a 64x64 image (n = 32,768) by far
        assert math.isfinite(keyspace_bits(1000, 10**6, mode=mode))
        for n in (1100, 32768):
            with pytest.raises(ValueError, match="exceeds the float range"):
                keyspace_bits(n, 2, mode=mode)


class TestColumnBuild:
    @pytest.mark.parametrize("params", [(3, 3, 1), (4, 6, 15), (16, 32768, 15)], ids=str)
    def test_narrowest_and_widest_params_round_trip(self, params):
        # the extremes CoderParams admits: 3-bit intervals; a follow count of
        # 15, all 4 follow bits of the state key, which (4, 6, 15) reaches
        # with 19-bit emissions; 16-bit intervals, whose high takes 17 bits
        if params == (4, 6, 15):
            fm = build_full_fsm(CoderParams(*params))
            assert (fm.follow.max(), fm.emit_len.max()) == (15, 19)
        codec = build_codec(CoderParams(*params))
        assert validate_reduced(codec.rm).passed
        for i, p_zero in enumerate((0.1, 0.5, 0.9)):
            bits = rand_bits(4100 + i, 3000, p_zero)
            ks = KeySchedule(0xC01 + i, 128)
            cipher, _ = encrypt(bits, codec, ks)
            assert decrypt(cipher, codec, ks, len(bits)) == bits

    def test_codec_paths_build_no_row_objects(self, monkeypatch, capsys):
        # encode, decode, analyze, the structural checks, `hfsac tables` and
        # `hfsac selftest` read the columns only: building any row view
        # raises while they run.  analyze samples 1000 distinct adjacent
        # pairs per direction, hence 40x40 pixels
        def no_rows(*args):
            raise AssertionError("row object built")

        for module, name in (
            (coder, "FullState"),
            (reducer, "ReducedTransition"),
            (huffman, "StateCodeTable"),
        ):
            monkeypatch.setattr(module, name, no_rows)
        params = CoderParams(7, 44, 10, 230)
        img = synthetic_image(40, 40)
        bits = unpack_bits(img.pixels)
        ks = KeySchedule(0x5EED, params.jump_q_num)
        codec = build_codec(params)
        cipher, _ = encrypt(bits, codec, ks)
        assert decrypt(cipher, codec, ks, len(bits)) == bits
        report = analyze_image(img, params, 0x5EED)
        assert sum(report.state_visits) == len(encrypt(bits, codec, ks)[1])
        assert validate_reduced(codec.rm).passed
        for fmt in ("text", "csv"):
            assert cli.main(
                ["tables", "--n", "7", "--p0-num", "44", "--fmax", "10", "--format", fmt]
            ) == 0
        assert cli.run_selftest()
        assert "FAIL" not in capsys.readouterr().out
        with pytest.raises(AssertionError, match="row object built"):
            codec.tables

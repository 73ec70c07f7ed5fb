from fractions import Fraction

import numpy as np
import pytest

from hfsac import (
    CoderParams,
    CorruptStreamError,
    KeySchedule,
    ReducedTransition,
    SplitMix64,
    encrypt,
    fsac_parse,
    hfac_decode,
    hfac_encode,
    swap_codeword,
)
from hfsac.huffman import (
    HfsacCodec, attach_tables, canonical_bits, code_lengths, integer_weights,
)
from conftest import (
    SWEEP,
    build_state_code,
    canonical_codewords,
    heuristic_weights,
    huffman_code_lengths,
    is_prefix_free,
    kraft,
    optimal_expected_length,
    rand_bits,
    reduced_from_rows,
)


def text(bits, n) -> str:
    """The first n of the packed `bits` as '0'/'1' text."""
    return "".join(map(str, np.unpackbits(bits)[:n].tolist()))


def one_state_machine(outputs):
    """Single-state machine with the given per-transition outputs."""
    blocks = {
        2: ["0", "1"],
        3: ["0", "10", "11"],
        4: ["00", "01", "10", "11"],
    }[len(outputs)]
    rows = [
        tuple(
            ReducedTransition(0, b, o, 0) for b, o in zip(blocks, outputs)
        )
    ]
    return reduced_from_rows(CoderParams(3, 3, 1), rows, [(0, 8, 0)])


class TestHeuristicWeights:
    def test_output_lengths_become_weights(self):
        rm = one_state_machine(["1", "011", "0"])
        assert heuristic_weights(rm, 0) == [
            Fraction(4, 9), Fraction(1, 9), Fraction(4, 9),
        ]

    def test_two_symbols(self):
        rm = one_state_machine(["0", "1"])
        assert heuristic_weights(rm, 0) == [Fraction(1, 2), Fraction(1, 2)]

    def test_integer_weights_scale_the_fractions(self):
        rm = one_state_machine(["1", "011", "0"])
        assert integer_weights(rm).tolist() == [4, 1, 4]
        assert [Fraction(w, 9) for w in integer_weights(rm).tolist()] == heuristic_weights(rm, 0)

    def test_equal_lengths_normalize_uniform(self):
        rm = one_state_machine(["00", "01", "10", "11"])
        assert heuristic_weights(rm, 0) == [Fraction(1, 4)] * 4


class TestBuildStateCode:
    def test_skewed_triple(self):
        codes = build_state_code([Fraction(4, 9), Fraction(1, 9), Fraction(4, 9)])
        assert sorted(len(c) for c in codes) == [1, 2, 2]
        # expected length matches the brute-force optimum (14/9)
        weights = [Fraction(4, 9), Fraction(1, 9), Fraction(4, 9)]
        got = sum(w * len(c) for w, c in zip(weights, codes))
        assert got == optimal_expected_length(weights) == Fraction(14, 9)

    def test_two_weights(self):
        assert build_state_code([Fraction(1, 2), Fraction(1, 2)]) == ["0", "1"]

    def test_rejects_single_weight(self):
        with pytest.raises(ValueError):
            build_state_code([Fraction(1)])

    def test_deterministic_under_ties(self):
        weights = [Fraction(1, 4)] * 4
        assert build_state_code(weights) == ["00", "01", "10", "11"]
        assert huffman_code_lengths(weights) == [2, 2, 2, 2]

    def test_scaled_integer_weights_give_the_same_code(self):
        # ties between a leaf and a merged node, and between leaves, broken
        # the same way whatever the common scale
        gen = SplitMix64(99)
        for k in range(2, 40):
            lengths = [1 + gen.next_u64() % 9 for _ in range(k)]
            fractions = [Fraction(1, 1 << n) for n in lengths]
            top = max(lengths)
            integers = [1 << (top - n) for n in lengths]
            assert huffman_code_lengths(integers) == huffman_code_lengths(fractions)
            assert build_state_code(integers) == build_state_code(fractions)

    def test_canonical_assignment_orders_by_length_then_index(self):
        assert canonical_codewords([2, 1, 2]) == ["10", "0", "11"]
        # codewords have at most 63 bits: the unary code 0, 10, ..., 1**k
        # is built up to k = 63 and refused at 64
        unary = np.append(np.arange(1, 64), 63)
        want = "".join(canonical_codewords(unary.tolist()))
        assert text(canonical_bits([64], unary), unary.sum()) == want
        unary = np.append(np.arange(1, 65), 64)
        with pytest.raises(OverflowError, match="63 bits"):
            canonical_bits([65], unary)

    @pytest.mark.parametrize("k", range(2, 9))
    def test_optimality_random_weights(self, k):
        gen = SplitMix64(k)
        for _ in range(12):
            weights = [Fraction(1 + gen.next_u64() % 64, 1) for _ in range(k)]
            total = sum(weights)
            weights = [w / total for w in weights]
            codes = build_state_code(weights)
            assert is_prefix_free(codes)
            assert kraft(codes) == 1
            got = sum(w * len(c) for w, c in zip(weights, codes))
            assert got == optimal_expected_length(weights)


class TestAllStatesAtOnce:
    @pytest.mark.parametrize("spread", [1, 12, 30])
    def test_matches_the_per_state_reference(self, spread):
        # many states of mixed row counts merged together, with the ties
        # that power-of-two weights make (spread 1 and 12) and arbitrary
        # integer weights up to 2**30 (spread 30)
        gen = SplitMix64(2024 + spread)
        counts = [2 + gen.next_u64() % 40 for _ in range(300)]
        if spread == 30:
            weights = [1 + gen.next_u64() % (1 << 30) for _ in range(sum(counts))]
        else:
            weights = [1 << (gen.next_u64() % spread) for _ in range(sum(counts))]
        lengths = code_lengths(counts, np.array(weights))
        bits = text(canonical_bits(counts, lengths), lengths.sum())
        base = at = 0
        for k in counts:
            reference = huffman_code_lengths(weights[base : base + k])
            assert lengths[base : base + k].tolist() == reference
            # equal lengths, so equal words where the concatenations agree
            assert bits[at : at + sum(reference)] == "".join(canonical_codewords(reference))
            base += k
            at += sum(reference)
        assert at == len(bits)


class TestMergeKeyBound:
    # a state's merge keys pack weight << (b + 1) | merged << b | leaf index
    # into 62 bits, b the bit length of its row count rounded up to a power
    # of two (at least 2): its weight sum may have at most 61 - b bits
    @pytest.mark.parametrize("k,b", [(2, 2), (5, 4)])
    def test_boundary_builds_and_one_more_raises(self, k, b):
        top = 1 << (61 - b)
        weights = [top >> k] * (k - 1)
        weights.append(top - 1 - sum(weights))  # the sum is 61 - b bits wide
        lengths = code_lengths([k], np.array(weights))
        assert lengths.tolist() == huffman_code_lengths(weights)
        weights[-1] += 1
        with pytest.raises(OverflowError, match="too wide for the merge key"):
            code_lengths([k], np.array(weights))

    def test_each_state_has_its_own_bound(self):
        # a 2-row state at its boundary beside a 5-row state: a bound taken
        # from the widest state (b = 4) would refuse the 2-row one
        weights = [1 << 58, (1 << 58) - 1, 1, 2, 3, 4, 5]
        assert code_lengths([2, 5], np.array(weights)).tolist() == [1, 1, 3, 3, 2, 2, 2]


class TestLargeStates:
    # (12, 1, 3) is one state of 2,049 rows; (10, 300, 3) has 19,508 states
    # of 2 to 23 rows
    @pytest.mark.parametrize("n,p0,fm", [(12, 1, 3), (10, 300, 3)])
    def test_matches_the_per_state_reference(self, cache, n, p0, fm):
        rm = cache.reduced(n, p0, fm)
        weights = integer_weights(rm)
        lengths = code_lengths(rm.counts, weights)
        words = text(canonical_bits(rm.counts, lengths), lengths.sum())
        weights, lengths = weights.tolist(), lengths.tolist()
        at = 0
        for a, b in zip(rm.row_base.tolist(), rm.row_base[1:].tolist()):
            reference = huffman_code_lengths(weights[a:b])
            assert lengths[a:b] == reference
            code = "".join(canonical_codewords(reference))
            assert words[at : at + len(code)] == code
            at += len(code)
        assert at == len(words)


class TestAttachTables:
    def test_single_state_machine_gets_one_bit_code(self, cache):
        codec = cache.codec(8, 128, 3)
        assert codec.tables[0].codewords == ("0", "1")
        assert codec.tables[0].max_len == 1

    @pytest.mark.parametrize("n,p0,fm", [(8, 128, 0), (6, 32, 1)])
    def test_half_probability_gives_one_state(self, cache, n, p0, fm):
        # p0_num = 2**(n - 1): one state, two rows of 1-bit blocks and
        # codewords, so the cipher is the plain bits XOR one swap bit a step
        # (swap position 0 of 0..1) and a jump lands where it was
        codec = cache.codec(n, p0, fm)
        rm = codec.rm
        assert rm.state_count == 1 and len(rm.next_state) == 2
        assert rm.inputs.words() == codec.outputs.words() == ["0", "1"]
        assert codec.swap_moduli.tolist() == [2]
        bits = rand_bits(n, 200)
        cipher, trace = encrypt(bits, codec, KeySchedule(n, 128))
        flips = "".join(str(int(a != b)) for a, b in zip(bits, cipher))
        assert flips == "".join(str(int(p == 0)) for p in trace.swap_pos.tolist())

    @pytest.mark.parametrize("n,p0,fm", SWEEP[::3])
    def test_tables_prefix_free_and_complete(self, cache, n, p0, fm):
        codec = cache.codec(n, p0, fm)
        assert len(codec.tables) == codec.rm.state_count
        for table, row in zip(codec.tables, codec.rm.transitions):
            assert len(table.codewords) == len(row)
            assert is_prefix_free(table.codewords)
            assert kraft(table.codewords) == 1
            assert table.max_len == max(len(c) for c in table.codewords)

    def test_swap_moduli(self, cache):
        codec = cache.codec(7, 44, 10)
        moduli = codec.swap_moduli
        assert moduli.tolist() == [t.max_len + 1 for t in codec.tables]
        assert codec.swap_moduli is moduli  # built once per codec

    def test_codec_needs_a_codeword_per_row(self, cache):
        # the step loop passes the codewords to C unchecked
        rm = cache.reduced(4, 3, 1)
        lengths = np.ones(len(rm.next_state) - 1, np.int32)
        with pytest.raises(ValueError, match="a codeword per row"):
            HfsacCodec(rm, lengths, canonical_bits([len(lengths)], lengths))

    def test_codewords_held_once(self, cache):
        # the codec keeps its codewords only as the packed bits of `outputs`,
        # built with it rather than on first use
        codec = attach_tables(cache.reduced(4, 3, 1))
        assert "outputs" in vars(codec)
        assert not hasattr(codec, "code_bits")
        assert codec.code_len is codec.outputs.lengths

    @pytest.mark.parametrize("n,p0,fm", SWEEP[::7])
    def test_codec_from_canonical_bits(self, cache, n, p0, fm):
        # the codec takes its codewords packed in row order; each
        # state's are its canonical code, counted upward by (length, index)
        codec = cache.codec(n, p0, fm)
        rm = codec.rm
        rebuilt = HfsacCodec(rm, codec.code_len, canonical_bits(rm.counts, codec.code_len))
        assert rebuilt == codec
        for table in rebuilt.tables:
            lengths = [len(c) for c in table.codewords]
            assert list(table.codewords) == canonical_codewords(lengths)

    def test_reference_table_shape(self, cache):
        codec = cache.codec(4, 3, 1)
        assert [t.max_len for t in codec.tables] == [3, 5, 3, 3]

    @pytest.mark.parametrize("n,p0,fm", [(4, 3, 1), (5, 6, 1), (6, 13, 3)])
    def test_expected_length_optimal_per_state(self, cache, n, p0, fm):
        codec = cache.codec(n, p0, fm)
        for s, table in enumerate(codec.tables):
            weights = heuristic_weights(codec.rm, s)
            if len(weights) > 8:
                continue
            got = sum(w * len(c) for w, c in zip(weights, table.codewords))
            assert got == optimal_expected_length(tuple(weights))


class TestSwapCodeword:
    def test_reference_swaps(self):
        assert swap_codeword("0010", 1) == "0101"
        assert swap_codeword("1", 1) == "1"
        assert swap_codeword("000", 0) == "111"

    def test_position_past_end_is_identity(self):
        assert swap_codeword("101", 7) == "101"

    def test_negative_position_rejected(self):
        with pytest.raises(ValueError):
            swap_codeword("101", -1)

    @pytest.mark.parametrize("pos", range(6))
    def test_involution(self, pos):
        for code in ("0", "1", "0010", "11011", "00000"):
            assert swap_codeword(swap_codeword(code, pos), pos) == code

    @pytest.mark.parametrize("n,p0,fm", [(4, 3, 1), (6, 28, 3), (8, 51, 1)])
    def test_swap_preserves_prefix_freeness(self, cache, n, p0, fm):
        codec = cache.codec(n, p0, fm)
        for table in codec.tables:
            for pos in range(table.max_len + 1):
                swapped = [swap_codeword(c, pos) for c in table.codewords]
                assert is_prefix_free(swapped)
                assert kraft(swapped) == 1


class TestHfacCodec:
    def test_encode_reference_block(self, cache):
        codec = cache.codec(4, 3, 1)
        assert hfac_encode("0", codec) == codec.tables[0].codewords[0]
        assert hfac_encode("0", codec) == "110"

    def test_all_zeros_alternates_two_states(self, cache):
        codec = cache.codec(4, 3, 1)
        steps, _ = fsac_parse("0" * 64, codec.rm)
        states = [s for s, _ in steps]
        assert states == [0, 1] * 32
        out = hfac_encode("0" * 8, codec)
        assert out == "110100" * 4

    def test_decode_reference_block(self, cache):
        codec = cache.codec(4, 3, 1)
        assert hfac_decode("110", codec, 1) == "0"

    def test_roundtrip_exhaustive_to_length_12(self, cache):
        codec = cache.codec(4, 3, 1)
        for length in range(13):
            for v in range(1 << length):
                bits = format(v, f"0{length}b") if length else ""
                assert hfac_decode(hfac_encode(bits, codec), codec, length) == bits

    @pytest.mark.parametrize("n,p0,fm", SWEEP[::5])
    def test_roundtrip_randomized(self, cache, n, p0, fm):
        codec = cache.codec(n, p0, fm)
        for i in range(20):
            bits = rand_bits(77_000 + 97 * n + i, 700, 0.4)
            assert hfac_decode(hfac_encode(bits, codec), codec, len(bits)) == bits

    def test_corrupt_stream_detected(self, cache):
        codec = cache.codec(4, 3, 1)
        code = hfac_encode("0110", codec)
        with pytest.raises(CorruptStreamError):
            hfac_decode(code[:-1], codec, 4)

    def test_left_over_bits_detected(self, cache):
        codec = cache.codec(4, 3, 1)
        code = hfac_encode("0110", codec)
        with pytest.raises(CorruptStreamError, match="1 stream bits left over"):
            hfac_decode(code + "0", codec, 4)

    def test_rate_ordering_on_iid_data(self, cache):
        from hfsac import ac_encode_parts, fsac_encode

        codec = cache.codec(8, 51, 1)
        bits = rand_bits(31337, 50_000, 0.2)
        n = len(bits)
        ac_rate = 100 * (1 - len(ac_encode_parts(bits, codec.rm.params)[0]) / n)
        fsac_rate = 100 * (1 - len(fsac_encode(bits, codec.rm)) / n)
        hfac_rate = 100 * (1 - len(hfac_encode(bits, codec)) / n)
        assert abs(ac_rate - fsac_rate) < 0.2
        assert fsac_rate >= hfac_rate - 0.5
        assert fsac_rate - hfac_rate <= 10.0

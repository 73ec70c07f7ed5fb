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
from hfsac import prefix
from hfsac.huffman import HfsacCodec, attach_tables
from hfsac.prefix import packed_bytes
from conftest import (
    SWEEP,
    build_state_code,
    canonical_codewords,
    heuristic_weights,
    huffman_code_lengths,
    is_prefix_free,
    kraft,
    optimal_expected_length,
    packed,
    rand_bits,
    reduced_from_rows,
    unary_machine,
)


def text(bits, n) -> str:
    """The first n of the packed `bits` as '0'/'1' text."""
    return "".join(map(str, np.unpackbits(bits)[:n].tolist()))


def output_weights(rm, state: int) -> list[int]:
    """State `state`'s weights as the kernel forms them from `out_len`:
    2**(the state's longest output - output length)."""
    out_len = rm.out_len[rm.row_base[state] : rm.row_base[state + 1]].tolist()
    return [1 << (max(out_len) - n) for n in out_len]


def check_per_state_reference(codec, weights):
    """Every state's code lengths and packed words in `codec` against the
    one-state references on `weights(codec.rm, state)`."""
    rm, words = codec.rm, text(codec.outputs._bits, codec.code_len.sum())
    lengths, at = codec.code_len.tolist(), 0
    for s, (a, b) in enumerate(zip(rm.row_base.tolist(), rm.row_base[1:].tolist())):
        reference = huffman_code_lengths(weights(rm, s))
        assert lengths[a:b] == reference, s
        code = "".join(canonical_codewords(reference))
        assert words[at : at + len(code)] == code, s
        at += len(code)
    assert at == len(words)


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
        # the kernel weights the rows 4, 1, 4: the fractions times 9
        rm = one_state_machine(["1", "011", "0"])
        assert output_weights(rm, 0) == [4, 1, 4]
        assert [Fraction(w, 9) for w in output_weights(rm, 0)] == heuristic_weights(rm, 0)
        want = build_state_code(heuristic_weights(rm, 0))
        assert list(attach_tables(rm).tables[0].codewords) == want == ["10", "11", "0"]

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
        # codewords have at most 63 bits: `kraft_words` writes the unary
        # code 0, 10, ..., 1**(k - 1) up to k = 64 and refuses it at 65
        lib = prefix.kernel()
        for k in (64, 65):
            unary = np.array([*range(1, k), k - 1], np.int32)
            counts = np.array([k], np.int64)
            bits = np.zeros(packed_bytes(unary.sum()), np.uint8)
            status = lib.kraft_words(counts.ctypes.data, 1, unary.ctypes.data, bits.ctypes.data)
            if k == 64:
                want = "".join(canonical_codewords(unary.tolist()))
                assert status == 0 and text(bits, unary.sum()) == want
            else:
                assert status == -1

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
        # many states of mixed row counts built together, with the ties
        # that power-of-two weights make: outputs of 0 to spread - 1 bits,
        # so weights of up to 2**29 at spread 30
        gen = SplitMix64(2024 + spread)
        counts = [2 + gen.next_u64() % 40 for _ in range(300)]
        rm = unary_machine([[gen.next_u64() % spread for _ in range(k)] for k in counts])
        check_per_state_reference(attach_tables(rm), heuristic_weights)


class TestMergeKeyBound:
    # a state's merge keys pack weight << (b + 1) | merged << b | leaf index
    # into 62 bits, b the bit length of its row count rounded up to a power
    # of two (at least 2): its weight sum may have at most 61 - b bits
    @pytest.mark.parametrize("k,b", [(2, 2), (5, 4)])
    def test_boundary_builds_and_one_more_raises(self, k, b):
        # k rows weighted 2**(60 - b), ..., 2**(62 - b - k) and 1 have the
        # widest sum below 2**(61 - b) that such weights make; lengthening
        # every output but the one of the smallest weight above 1 doubles
        # that weight, and the sum becomes 2**(61 - b) + 1
        out_len = [*range(k - 1), 60 - b]
        weights = [1 << (60 - b - n) for n in out_len]
        assert sum(weights) == (1 << (61 - b)) - (1 << (62 - b - k)) + 1
        codec = attach_tables(unary_machine([out_len]))
        assert codec.code_len.tolist() == huffman_code_lengths(weights)
        wide = [n + (i != k - 2) for i, n in enumerate(out_len)]
        assert sum(1 << (max(wide) - n) for n in wide) == (1 << (61 - b)) + 1
        with pytest.raises(OverflowError, match="too wide for the merge key"):
            attach_tables(unary_machine([wide]))

    def test_full_key_builds_and_one_more_unit_raises(self):
        # 54 rows (b = 7) weighted 2**0, ..., 2**53 add up to 2**54 - 1; a
        # 55th row of weight 1 makes 2**54, and one weighted 2**70 is wider
        # than the key itself
        out_len = list(range(53, -1, -1))
        codec = attach_tables(unary_machine([out_len]))
        assert codec.code_len.tolist() == huffman_code_lengths([1 << i for i in range(54)])
        for wide in ([*out_len, 53], [0, 70]):
            with pytest.raises(OverflowError, match="too wide for the merge key"):
                attach_tables(unary_machine([wide]))

    def test_each_state_has_its_own_bound(self):
        # a 2-row state weighted 2**58 and 1, under its bound of 2**59,
        # beside a 5-row state (b = 4): a bound taken from the widest state,
        # 2**57, would refuse the 2-row one
        counts = np.array([2, 5], np.int64)
        out_len = np.array([0, 58, 3, 3, 2, 1, 1], np.int32)
        lengths = np.empty(7, np.int32)
        heap, scratch = np.empty(5, np.uint64), np.empty(15, np.int32)
        status = prefix.kernel().huffman_lengths(
            counts.ctypes.data, 2, out_len.ctypes.data, lengths.ctypes.data,
            heap.ctypes.data, scratch.ctypes.data,
        )
        assert status == 0
        assert lengths.tolist() == [1, 1, *huffman_code_lengths([1, 1, 2, 4, 4])]


class TestLargeStates:
    # (12, 1, 3) is one state of 2,049 rows; (10, 300, 3) has 19,508 states
    # of 2 to 23 rows
    @pytest.mark.parametrize("n,p0,fm", [(12, 1, 3), (10, 300, 3)])
    def test_matches_the_per_state_reference(self, cache, n, p0, fm):
        check_per_state_reference(cache.codec(n, p0, fm), output_weights)


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
            HfsacCodec(rm, lengths, np.zeros(packed_bytes(len(lengths)), np.uint8))

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
        rm, base = codec.rm, codec.rm.row_base.tolist()
        lengths = codec.code_len.tolist()
        words = [canonical_codewords(lengths[a:b]) for a, b in zip(base, base[1:])]
        bits = packed([int(c) for code in words for word in code for c in word])
        rebuilt = HfsacCodec(rm, codec.code_len, bits)
        assert rebuilt == codec
        assert [list(table.codewords) for table in rebuilt.tables] == words

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

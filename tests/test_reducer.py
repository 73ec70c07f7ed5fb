import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from hfsac import (
    CoderParams,
    NonEmittingCycleError,
    ReducedTransition,
    ac_encode_parts,
    build_full_fsm,
    fsac_encode,
    fsac_parse,
    reduce_machine,
    validate_reduced,
)
from hfsac.prefix import BLOCK_STEPS, kraft_bits
from hfsac.reducer import _block_bits
from conftest import SWEEP, full_from_rows, rand_bits, reduced_from_rows, reference_reduce


def incomplete_machine():
    """One state whose blocks 0 and 10 leave 11 unparsed (Kraft sum 3/4)."""
    return reduced_from_rows(
        CoderParams(3, 3, 1),
        [(ReducedTransition(0, "0", "0", 0), ReducedTransition(0, "10", "1", 0))],
        [(0, 8, 0)],
    )


def rows_of(rm, state):
    return [(t.input_block, t.output_bits, t.to) for t in rm.transitions[state]]


def shared_state_machine():
    """Both edges of state 0 are mute into state 1: two chains through the
    same state."""
    params = CoderParams(3, 3, 1)
    states = ((0, 8, 0), (2, 6, 1), (0, 8, 1))
    edges = (
        ("", 1), ("", 1),  # state 0: symbol 0, symbol 1
        ("01", 0), ("10", 2),
        ("0", 0), ("1", 2),
    )
    return full_from_rows(params, states, edges)


class TestReduce:
    def test_mute_composition_makes_self_loops(self, cache):
        # the 1/- edge out of the start state composes with its successor,
        # leaving the self-returning rows 10/011 and 11/1
        rm = cache.reduced(3, 3, 1)
        assert rm.state_count == 2
        assert rows_of(rm, 0) == [("0", "0", 1), ("10", "011", 0), ("11", "1", 0)]

    def test_reference_block_structure(self, cache):
        rm = cache.reduced(4, 3, 1)
        assert rm.state_count == 4
        assert [t.input_block for t in rm.transitions[0]] == [
            "0", "10", "110", "1110", "1111",
        ]
        assert all(t.output_bits for row in rm.transitions for t in row)

    def test_origin_maps_back_to_full_states(self, cache):
        m = cache.machine(4, 3, 1)
        rm = cache.reduced(4, 3, 1)
        full = {(s.low, s.high, s.follow) for s in m.states}
        origin = list(map(tuple, rm.origin_bounds.tolist()))
        assert origin[0] == (0, 16, 0)
        assert set(origin) <= full

    def test_deterministic(self, cache):
        m = cache.machine(5, 6, 1)
        assert reduce_machine(m) == reduce_machine(m)

    def test_equality_reads_the_input_blocks(self):
        # the blocks live only in `rm.inputs`: 0/11/10 against 0/10/11
        def machine(a, b):
            blocks = ("0", a, b)
            row = tuple(ReducedTransition(0, x, "1", 0) for x in blocks)
            return reduced_from_rows(CoderParams(3, 3, 1), [row], [(0, 8, 0)])

        assert machine("11", "10") == machine("11", "10")
        assert machine("11", "10") != machine("10", "11")
        assert [r[0] for r in rows_of(machine("11", "10"), 0)] == ["0", "11", "10"]

    def test_blocks_cost_about_one_byte_per_bit(self):
        # (12, 1, 3) reads 2,100,224 block bits in 2,049 rows of up to
        # 2,048 bits; written as 0/1 bytes where they are made, the traced
        # peak of the reduction is ~1.3 B per block bit (5.6 B when each
        # block was a Python int unpacked afterwards)
        fm = build_full_fsm(CoderParams(12, 1, 3))
        tracemalloc.start()
        try:
            rm = reduce_machine(fm)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * rm.block_len.sum()

    def test_window_index_rounds_cost_a_fraction_of_a_byte_per_bit(self):
        # (14, 1, 3) reads 33,566,720 block bits in 8,193 rows of up to
        # 8,192 bits; cutting each word's window out of the packed bits at
        # its offset, the rounds of its input index peak at ~0.15 B per
        # block bit (1.25 B with a window byte written for every bit)
        rm = reduce_machine(build_full_fsm(CoderParams(14, 1, 3)))
        tracemalloc.start()
        try:
            rm.inputs._fills()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.25 * rm.block_len.sum()

    def test_tables_share_the_row_layout(self, cache):
        codec = cache.codec(7, 44, 10)
        rm = codec.rm
        assert not hasattr(rm, "block_bits")
        assert rm.inputs.lengths is rm.block_len
        for table in (rm.inputs, codec.outputs):
            assert table._row_base is rm.row_base
            assert table._row_state is rm.row_state
        assert rm.row_state.tolist() == [
            s for s, row in enumerate(rm.transitions) for _ in row
        ]

    @pytest.mark.parametrize(
        "n,p0,fm,expect",
        [(7, 44, 10, 330), (8, 51, 1, 994), (8, 26, 3, 348), (8, 128, 3, 1)],
    )
    def test_known_state_counts(self, cache, n, p0, fm, expect):
        assert cache.reduced(n, p0, fm).state_count == expect

    def test_long_mute_chains_on_skewed_split(self, cache):
        # p0 = 1/256 walks the low bound upward one step at a time before
        # anything renormalizes; the composed blocks get very long
        rm = cache.reduced(8, 1, 1)
        longest = max(len(t.input_block) for row in rm.transitions for t in row)
        assert longest > 60
        assert validate_reduced(rm).passed

    def test_non_emitting_cycle_detected(self):
        params = CoderParams(3, 3, 1)
        states = ((0, 8, 0), (3, 8, 0))
        edges = (
            ("", 1), ("0", 0),  # state 0: symbol 0, symbol 1
            ("", 0), ("1", 0),
        )
        broken = full_from_rows(params, states, edges)
        with pytest.raises(NonEmittingCycleError):
            reduce_machine(broken)

    def test_cycle_past_the_start_detected(self):
        # 0 -0/-> 1 -0/-> 2 -0/-> 1: the loop does not pass the start state
        params = CoderParams(3, 3, 1)
        states = [(0, 8, f) for f in range(3)]
        edges = (
            ("", 1), ("1", 0),  # state 0: symbol 0, symbol 1
            ("", 2), ("1", 0),
            ("", 1), ("0", 0),
        )
        with pytest.raises(NonEmittingCycleError):
            reduce_machine(full_from_rows(params, states, edges))

    def test_state_shared_by_two_chains_is_no_cycle(self):
        # each of the two chains through state 1 is composed in full, in
        # parse-tree order
        rm = reduce_machine(shared_state_machine())
        assert rows_of(rm, 0) == [
            ("00", "01", 0), ("01", "10", 1), ("10", "01", 0), ("11", "10", 1),
        ]
        assert rows_of(rm, 1) == [("0", "0", 0), ("1", "1", 1)]
        assert rm.origin_bounds.tolist() == [[0, 8, 0], [0, 8, 1]]
        assert validate_reduced(rm).passed

    def test_cycle_of_two_mute_edges_each_is_detected_at_once(self):
        # 0 -> 1 <-> 2 with both edges of every state mute: the chains
        # double at every level, so only a bound on their depth, the state
        # count, stops them before memory does
        params = CoderParams(3, 3, 1)
        states = [(0, 8, f) for f in range(3)]
        edges = (("", 1), ("", 1), ("", 2), ("", 2), ("", 1), ("", 1))
        start = time.process_time()
        with pytest.raises(NonEmittingCycleError):
            reduce_machine(full_from_rows(params, states, edges))
        assert time.process_time() - start < 1.0

    @pytest.mark.parametrize(
        "n,p0,fm",
        [
            (3, 3, 1), (4, 6, 15), (7, 44, 10), (8, 51, 1), (8, 26, 3),
            (8, 128, 3), (8, 1, 1), (9, 150, 3), (12, 1, 3), (10, 8, 3),
        ],
    )
    def test_matches_the_depth_first_walk(self, cache, n, p0, fm):
        machine = cache.machine(n, p0, fm)
        assert reduce_machine(machine) == reference_reduce(machine)

    def test_matches_the_depth_first_walk_on_a_shared_state(self):
        machine = shared_state_machine()
        assert reduce_machine(machine) == reference_reduce(machine)

    @pytest.mark.parametrize(
        "n,p0,fm",
        # the skewed (n, 1, f) with n >= 7 have blocks of 2**(n - 1) > 63 bits
        [(7, 44, 10), (9, 150, 3), *(m for m in SWEEP if m[0] < 7 or m[1] > 1)],
    )
    def test_copy_rule_matches_the_kraft_rule(self, cache, n, p0, fm):
        # an appended state with the unary code 0, 10, ..., 1**63 0, 1**64
        # has 64-bit blocks, which forces the copy rule on the whole machine
        rm = cache.reduced(n, p0, fm)
        assert rm.block_len.max() <= 63
        kraft = kraft_bits(rm.counts, rm.block_len)
        starts = np.cumsum(rm.block_len) - rm.block_len
        at = np.arange(len(kraft)) - np.repeat(starts, rm.block_len)
        branch = np.maximum.reduceat(np.where(kraft == 1, at, -1), starts)  # last 1
        bits = _block_bits(
            np.append(rm.counts, 65),
            np.append(rm.block_len, np.arange(1, 66).clip(max=64)),
            np.append(branch, np.arange(-1, 64)),
        )
        assert np.array_equal(bits[: len(kraft)], kraft)
        unary = "".join("1" * k + "0" for k in range(64)) + "1" * 64
        assert "".join(map(str, bits[len(kraft) :].tolist())) == unary

    def test_traced_peak_on_build_n9(self, cache):
        # (9, 150, 3): 5,031 states, 63,084 rows, 445,098 block bits; the
        # level passes peak at ~6.7 MiB, the depth-first walk at 8.85 MiB
        machine = cache.machine(9, 150, 3)
        tracemalloc.start()
        try:
            reduce_machine(machine)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 9.5 * 2**20


class TestValidateReduced:
    @pytest.mark.parametrize("n,p0,fm", SWEEP[::3])
    def test_reduce_output_always_valid(self, cache, n, p0, fm):
        report = validate_reduced(cache.reduced(n, p0, fm))
        assert report.passed
        assert not report.failures()

    def test_detects_prefix_violation(self):
        rm = reduced_from_rows(
            CoderParams(3, 3, 1),
            [
                (
                    ReducedTransition(0, "0", "0", 0),
                    ReducedTransition(0, "01", "1", 0),
                )
            ],
            [(0, 8, 0)],
        )
        report = validate_reduced(rm)
        assert not report.passed
        assert not report.checks[0].prefix_free

    def test_detects_incomplete_blocks(self):
        report = validate_reduced(incomplete_machine())
        assert not report.passed
        assert report.checks[0].prefix_free
        assert not report.checks[0].complete

    def test_parse_rejects_incomplete_blocks(self):
        rm = incomplete_machine()
        assert fsac_parse("0100", rm)[1] == "0100"
        with pytest.raises(AssertionError, match="incomplete input block set"):
            fsac_parse("011", rm)

    def test_parse_rejects_incomplete_blocks_in_later_keystream_blocks(self):
        # the gap is reached at the last step of the first keystream block,
        # the first step of the second, or further on in it
        rm = incomplete_machine()
        for k in (BLOCK_STEPS - 1, BLOCK_STEPS, BLOCK_STEPS + 5):
            assert fsac_parse("0" * k, rm)[1] == "0" * k
            with pytest.raises(
                AssertionError, match=r"^incomplete input block set in state 0$"
            ):
                fsac_parse("0" * k + "11", rm)

    def test_detects_unreachable_state(self):
        rm = reduced_from_rows(
            CoderParams(3, 3, 1),
            [
                (
                    ReducedTransition(0, "0", "0", 0),
                    ReducedTransition(0, "1", "1", 0),
                ),
                (
                    ReducedTransition(1, "0", "0", 1),
                    ReducedTransition(1, "1", "1", 1),
                ),
            ],
            [(0, 8, 0), (3, 8, 0)],
        )
        report = validate_reduced(rm)
        assert not report.passed
        assert not report.checks[1].reachable

    @pytest.mark.parametrize("n,p0,fm", SWEEP[::3])
    def test_kraft_sum_exactly_one(self, cache, n, p0, fm):
        rm = cache.reduced(n, p0, fm)
        for row in rm.transitions:
            kraft = sum(Fraction(1, 1 << len(t.input_block)) for t in row)
            assert kraft == 1
            assert len(row) >= 2


class TestFsacEncode:
    def test_empty_input(self, cache):
        assert fsac_encode("", cache.reduced(4, 3, 1)) == ""

    def test_padding_stays_below_longest_block(self, cache):
        rm = cache.reduced(4, 3, 1)
        longest = max(len(t.input_block) for row in rm.transitions for t in row)
        for i in range(40):
            bits = rand_bits(500 + i, 1 + i % 17, 0.3)
            _steps, padded = fsac_parse(bits, rm)
            assert 0 <= len(padded) - len(bits) < longest

    def test_matches_stream_coder_exhaustively(self, cache):
        rm = cache.reduced(4, 3, 1)
        params = rm.params
        for length in range(11):
            for v in range(1 << length):
                bits = format(v, f"0{length}b") if length else ""
                _steps, padded = fsac_parse(bits, rm)
                body, _flush = ac_encode_parts(padded, params)
                assert fsac_encode(bits, rm) == body

    @pytest.mark.parametrize("n,p0,fm", [(3, 3, 1), (5, 14, 3), (8, 51, 1), (8, 1, 3)])
    def test_matches_stream_coder_randomized(self, cache, n, p0, fm):
        rm = cache.reduced(n, p0, fm)
        for i in range(30):
            bits = rand_bits(9000 + 131 * n + i, 400, 0.45)
            _steps, padded = fsac_parse(bits, rm)
            body, _flush = ac_encode_parts(padded, rm.params)
            assert fsac_encode(bits, rm) == body

    def test_block_rate_tracks_stream_rate(self, cache):
        # the block coder is the stream coder minus its flush, so the two
        # rates agree to within the flush length
        rm = cache.reduced(8, 51, 1)
        bits = rand_bits(55, 100_000, 0.2)
        fsac_len = len(fsac_encode(bits, rm))
        ac_len = len(ac_encode_parts(bits, rm.params)[0])
        assert abs(fsac_len - ac_len) <= 64  # tail padding only
        assert fsac_len / len(bits) == pytest.approx(0.723, abs=0.015)

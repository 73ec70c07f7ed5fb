import gc
import hashlib
import math

import numpy as np
import pytest

from hfsac import coder
from hfsac import (
    CoderParams,
    StateExplosionError,
    TruncatedCodeError,
    ac_decode_stream,
    ac_encode_parts,
    ac_encode_stream,
    build_full_fsm,
    renormalize,
    split_interval,
)
from hfsac.prefix import bit_string
from conftest import SWEEP, rand_bits, reference_full_fsm


class TestCoderParams:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_bits=2, p0_num=1, f_max=1),
            dict(n_bits=17, p0_num=1, f_max=1),
            dict(n_bits=4, p0_num=0, f_max=1),
            dict(n_bits=4, p0_num=16, f_max=1),
            dict(n_bits=4, p0_num=3, f_max=-1),
            dict(n_bits=4, p0_num=3, f_max=16),
            dict(n_bits=4, p0_num=3, f_max=1, jump_q_num=257),
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            CoderParams(**kwargs)

    def test_bounds(self):
        p = CoderParams(4, 3, 1)
        assert (p.full, p.half, p.quarter) == (16, 8, 4)

    def test_from_probability_quantizes_and_clamps(self):
        assert CoderParams.from_probability(4, 0.2, 1).p0_num == 3
        assert CoderParams.from_probability(8, 0.2, 1).p0_num == 51
        assert CoderParams.from_probability(4, 0.01, 1).p0_num == 1
        assert CoderParams.from_probability(4, 0.99, 1).p0_num == 15

    @pytest.mark.parametrize(
        "p_zero", [math.inf, -math.inf, math.nan, -1.0, 0.0, 1.0, 2.0], ids=repr
    )
    def test_from_probability_refuses_out_of_range(self, p_zero):
        with pytest.raises(ValueError, match=rf"p_zero must be .*got {p_zero!r}"):
            CoderParams.from_probability(4, p_zero, 1)

    @pytest.mark.parametrize("n_bits", [-1, -5])
    def test_from_probability_refuses_negative_n_bits(self, n_bits):
        with pytest.raises(ValueError, match=f"n_bits must be in 3..16, got {n_bits}"):
            CoderParams.from_probability(n_bits, 0.5, 1)


class TestSplitInterval:
    def test_basic(self):
        assert split_interval(0, 16, CoderParams(4, 3, 1)) == 3
        assert split_interval(0, 8, CoderParams(3, 3, 1)) == 3

    def test_clamp_forces_nonempty_subintervals(self):
        assert split_interval(3, 5, CoderParams(3, 1, 1)) == 4
        assert split_interval(0, 2, CoderParams(3, 7, 1)) == 1

    def test_too_narrow(self):
        with pytest.raises(ValueError, match="too narrow"):
            split_interval(3, 4, CoderParams(3, 3, 1))


class TestRenormalize:
    def test_low_half_emits_zero(self):
        assert renormalize(0, 3, 0, CoderParams(3, 3, 1)) == (0, 6, 0, "0")

    def test_middle_straddle_defers(self):
        assert renormalize(2, 6, 0, CoderParams(3, 3, 1)) == (0, 8, 1, "")

    def test_saturated_follow_stops(self):
        assert renormalize(2, 6, 1, CoderParams(3, 3, 1)) == (2, 6, 1, "")

    def test_follow_flushes_as_opposite_bits(self):
        _, _, follow, out = renormalize(1, 4, 2, CoderParams(3, 3, 3))
        assert out.startswith("011")
        assert follow == 0


class TestFullMachine:
    def test_small_skewed_machine_shape(self, cache):
        m = cache.machine(3, 3, 1)
        assert len(m.states) == 5
        assert len(m.target) == 10  # edges 2*s and 2*s + 1 per state
        assert m.mute_count == 3

    def test_symmetric_split_single_state(self, cache):
        m = cache.machine(3, 4, 0)
        assert len(m.states) == 1
        assert m.emit_len.tolist() == [1, 1]

    def test_symmetric_split_n8(self, cache):
        assert len(cache.machine(8, 128, 3).states) == 1

    def test_states_deduplicated(self, cache):
        m = cache.machine(5, 6, 3)
        triples = [(s.low, s.high, s.follow) for s in m.states]
        assert len(set(triples)) == len(triples)

    def test_all_states_reachable(self, cache):
        m = cache.machine(5, 6, 3)
        reached = {0}
        frontier = [0]
        while frontier:
            s = frontier.pop()
            for t in m.target[2 * s : 2 * s + 2].tolist():
                if t not in reached:
                    reached.add(t)
                    frontier.append(t)
        assert reached == set(range(len(m.states)))

    def test_deterministic(self):
        p = CoderParams(5, 11, 1)
        assert build_full_fsm(p) == build_full_fsm(p)

    @pytest.mark.parametrize(
        "n,p0,fm",
        # follow 15 and 19-bit emits; one state; 2,048 levels deep; the
        # columns grown five times
        SWEEP + [(4, 6, 15), (16, 32768, 15), (12, 1, 3), (9, 150, 3)],
    )
    def test_matches_the_scalar_bfs(self, n, p0, fm):
        params = CoderParams(n, p0, fm)
        got, want = build_full_fsm(params), reference_full_fsm(params)
        assert got.params == want.params
        for name in ("low", "high", "follow", "target", "emit_len", "emit_val"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name

    def test_state_ceiling(self, monkeypatch):
        monkeypatch.setattr(coder, "STATE_CEILING", 10)
        with pytest.raises(StateExplosionError):
            build_full_fsm(CoderParams(8, 51, 3))
        assert gc.isenabled()

    @pytest.mark.parametrize("n,p0,fm", [(3, 3, 1), (4, 3, 1), (6, 13, 3), (8, 51, 1)])
    def test_canonical_state_invariants(self, cache, n, p0, fm):
        m = cache.machine(n, p0, fm)
        p = m.params
        for s in m.states:
            assert 0 <= s.low < s.high <= p.full
            assert s.high > p.half  # E1 exhausted
            assert s.low < p.half  # E2 exhausted
            if s.follow < p.f_max:
                assert s.high - s.low > p.quarter
            else:
                assert s.high - s.low >= 2

    @pytest.mark.parametrize("n,p0,fm", [(4, 3, 1), (5, 13, 3), (8, 51, 1)])
    def test_emitted_bits_bound(self, cache, n, p0, fm):
        m = cache.machine(n, p0, fm)
        assert m.emit_len.max() <= n + fm


class TestStreamCoder:
    def test_empty_message_flush_only(self):
        out = ac_encode_stream("", CoderParams(4, 3, 1))
        assert len(out) >= 1
        assert out == "01"

    def test_decode_empty(self):
        assert ac_decode_stream("01", 0, CoderParams(4, 3, 1)) == ""

    def test_invalid_symbol(self):
        with pytest.raises(ValueError, match="invalid bit"):
            ac_encode_stream("01x", CoderParams(4, 3, 1))

    @pytest.mark.parametrize("n_symbols", [-1, -3])
    def test_decode_refuses_negative_count(self, n_symbols):
        with pytest.raises(ValueError, match=f"n_symbols must be >= 0, got {n_symbols}"):
            ac_decode_stream("01", n_symbols, CoderParams(4, 3, 1))

    @pytest.mark.parametrize("code", ["01x0", "0 10", "2"])
    def test_decode_invalid_symbol(self, code):
        with pytest.raises(ValueError, match="invalid bit"):
            ac_decode_stream(code, 3, CoderParams(4, 3, 1))

    @pytest.mark.parametrize(
        "params,n_symbols",
        [
            # symbol 0 owns [0, 15), [0, 14), ..., [0, 8): no doubling until
            # the ninth symbol, which needs one code bit past the pad
            (CoderParams(4, 15, 1), 8),
            # symbol 0 owns [0, 128) = [0, half): the second symbol needs a bit
            (CoderParams(8, 128, 1), 1),
        ],
    )
    def test_truncation_threshold(self, params, n_symbols):
        # the empty code reads exactly n_bits pad bits into its first window
        assert ac_decode_stream("", n_symbols, params) == "0" * n_symbols
        with pytest.raises(TruncatedCodeError):
            ac_decode_stream("", n_symbols + 1, params)

    def test_decoder_digest(self):
        # every case's output or exception class, on valid codes, the same
        # codes cut at a random point, and random bits with random symbol
        # counts; the digest was taken from the decoder with its own copy
        # of the doubling rules
        rng = np.random.default_rng(13)
        h = hashlib.sha256()
        for n in range(3, 11):
            full = 1 << n
            for p0 in sorted({1, full // 5, full // 3, full // 2, full - 1}):
                for fm in (0, 1, 3, 15):
                    params = CoderParams(n, p0, fm)
                    for _ in range(4):
                        bits = "".join(map(str, rng.integers(0, 2, rng.integers(120))))
                        code = ac_encode_stream(bits, params)
                        cut = code[: rng.integers(len(code) + 1)]
                        noise = "".join(map(str, rng.integers(0, 2, rng.integers(120))))
                        for c, m in (
                            (code, len(bits)),
                            (cut, len(bits)),
                            (noise, int(rng.integers(120))),
                        ):
                            try:
                                result = ac_decode_stream(c, m, params)
                            except ValueError as e:
                                result = type(e).__name__
                            h.update(f"{n},{p0},{fm},{c},{m}:{result}\n".encode())
        assert h.hexdigest() == (
            "e0628e6e5856ce290033d7f82d0f446911434e68eb4171355cf128216896346a"
        )

    def test_roundtrip_exhaustive_length_10(self):
        params = CoderParams(4, 3, 1)
        for v in range(1 << 10):
            bits = format(v, "010b")
            assert ac_decode_stream(ac_encode_stream(bits, params), 10, params) == bits

    @pytest.mark.parametrize("n", range(3, 9))
    def test_roundtrip_randomized(self, n):
        params = CoderParams(n, max(1, (1 << n) // 3), 2)
        for i in range(25):
            bits = rand_bits(1000 * n + i, 1000, 0.35)
            code = ac_encode_stream(bits, params)
            assert ac_decode_stream(code, len(bits), params) == bits

    def test_truncated_code_detected(self):
        params = CoderParams(8, 128, 1)
        with pytest.raises(TruncatedCodeError):
            ac_decode_stream("", 50, params)

    def test_rate_matches_entropy_for_skewed_source(self):
        # P(0)=0.2 at byte precision: output/input tracks H(0.2) = 0.722
        params = CoderParams.from_probability(8, 0.2, 3)
        bits = rand_bits(7, 100_000, 0.2)
        ratio = len(ac_encode_stream(bits, params)) / len(bits)
        assert ratio == pytest.approx(0.719, abs=0.02)

    @pytest.mark.parametrize("p_zero", [0.1, 0.3, 0.5])
    def test_compression_sanity_bound(self, p_zero):
        params = CoderParams.from_probability(8, p_zero, 3)
        bits = rand_bits(11, 100_000, p_zero)
        saved = 1.0 - len(ac_encode_stream(bits, params)) / len(bits)
        entropy = -(p_zero * math.log2(p_zero) + (1 - p_zero) * math.log2(1 - p_zero))
        assert saved <= (1.0 - entropy) + 0.03

    def test_flush_length_is_follow_plus_two(self):
        params = CoderParams(4, 3, 1)
        body, flush = ac_encode_parts("0110", params)
        assert body + flush == ac_encode_stream("0110", params)
        assert len(flush) >= 2

    @pytest.mark.parametrize("n,p0,fm", SWEEP[::4])
    def test_path_emissions_equal_stream_body(self, cache, n, p0, fm):
        # walking the full machine must reproduce the stream coder bit for bit
        m = cache.machine(n, p0, fm)
        bits = rand_bits(n * 31 + p0, 300, 0.4)
        target = m.target.tolist()
        emitted = list(map(bit_string, m.emit_len.tolist(), m.emit_val.tolist()))
        state = 0
        path = []
        for b in bits:
            e = 2 * state + int(b)
            path.append(emitted[e])
            state = target[e]
        body, _ = ac_encode_parts(bits, m.params)
        assert "".join(path) == body

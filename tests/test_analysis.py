import dataclasses
import math
import subprocess
import sys

import numpy as np
import pytest

import hfsac.bitio
from hfsac import (
    Bits,
    CoderParams,
    GrayImage,
    SplitMix64,
    ac_encode_stream,
    adjacent_pixel_corr,
    analyze_image,
    bits_to_image,
    block_frequency,
    compression_rate,
    compression_rates,
    draw_uniform,
    fsac_encode,
    hfac_encode,
    histogram,
    histogram_chi_square,
    monobit,
    npcr,
    pearson_corr,
    runs,
    shannon_entropy_binary,
    state_visit_histogram,
    uaci,
)
from hfsac.analysis import DegenerateSampleError, gammaincc
from conftest import rand_bits


def image_from_fn(w, h, fn):
    return GrayImage(w, h, bytes(fn(x, y) % 256 for y in range(h) for x in range(w)))


# the bit statistics take packed bits, and '0'/'1' text until the
# benchmark's traced run stops passing it; each case runs on both forms
FORMS = (str, Bits.from_text)


class TestEntropy:
    def test_balanced_is_one(self):
        for form in FORMS:
            assert shannon_entropy_binary(form("01" * 500)) == 1.0

    def test_quarter_three_quarter(self):
        for form in FORMS:
            bits = form("0" * 250 + "1" * 750)
            assert shannon_entropy_binary(bits) == pytest.approx(0.811278, abs=1e-6)

    def test_constant_is_zero(self):
        for form in FORMS:
            assert shannon_entropy_binary(form("0" * 100)) == 0.0

    def test_empty_rejected(self):
        for form in FORMS:
            with pytest.raises(ValueError):
                shannon_entropy_binary(form(""))


class TestPearson:
    def test_identity(self):
        xs = [1.0, 2.0, 5.0, 9.0]
        assert pearson_corr(xs, xs) == pytest.approx(1.0)

    def test_negated(self):
        xs = [1.0, 2.0, 5.0, 9.0]
        ys = [10 - x for x in xs]
        assert pearson_corr(xs, ys) == pytest.approx(-1.0)

    def test_degenerate(self):
        # a constant sequence, and a sample of one value
        for xs, ys in (([1, 1, 1], [1, 2, 3]), ([4], [2])):
            with pytest.raises(DegenerateSampleError, match="degenerate"):
                pearson_corr(xs, ys)

    def test_length_mismatch(self):
        for xs, ys in (([1, 2], [1, 2, 3]), ([1], [])):
            with pytest.raises(ValueError) as exc:
                pearson_corr(xs, ys)
            assert not isinstance(exc.value, DegenerateSampleError)

    def test_symmetry_and_scale_invariance(self):
        gen = SplitMix64(99)
        xs = [gen.next_u64() % 1000 for _ in range(500)]
        ys = [gen.next_u64() % 1000 for _ in range(500)]
        r = pearson_corr(xs, ys)
        assert -1.0 <= r <= 1.0
        assert pearson_corr(ys, xs) == pytest.approx(r)
        assert pearson_corr([3 * x + 7 for x in xs], ys) == pytest.approx(r)
        assert pearson_corr([-2 * x + 1 for x in xs], ys) == pytest.approx(-r)


class TestAdjacentCorr:
    def test_constant_image_degenerate(self):
        img = GrayImage(16, 16, bytes(256))
        with pytest.raises(ValueError, match="degenerate"):
            adjacent_pixel_corr(img, "horizontal", pairs=50)

    def test_gradient_strongly_correlated(self):
        img = image_from_fn(256, 64, lambda x, y: x)
        assert adjacent_pixel_corr(img, "horizontal", pairs=2000) > 0.99

    def test_direction_validation(self):
        img = image_from_fn(16, 16, lambda x, y: x ^ y)
        with pytest.raises(ValueError, match="direction"):
            adjacent_pixel_corr(img, "sideways")

    def test_too_many_pairs(self):
        img = image_from_fn(4, 4, lambda x, y: x + y)
        with pytest.raises(ValueError, match="too small"):
            adjacent_pixel_corr(img, "diagonal", pairs=100)

    @pytest.mark.parametrize("pairs", [1, 0, -5])
    def test_too_few_pairs(self, pairs):
        img = image_from_fn(16, 16, lambda x, y: x ^ y)
        with pytest.raises(ValueError, match=f"need at least 2 pairs, got {pairs}"):
            adjacent_pixel_corr(img, "horizontal", pairs=pairs)

    def test_draws_as_one_per_candidate(self):
        # 49 positions for 40 pairs: many repeats; the block draws leave
        # the pairs and the generator as one draw_uniform per candidate does
        img = image_from_fn(8, 8, lambda x, y: x * y)
        gen, ref = SplitMix64(5), SplitMix64(5)
        got = adjacent_pixel_corr(img, "diagonal", pairs=40, gen=gen)
        chosen: list[int] = []
        while len(chosen) < 40:
            p = draw_uniform(ref, 49)
            if p not in chosen:
                chosen.append(p)
        assert gen.state == ref.state
        ys, xs = np.divmod(chosen, 7)
        arr = img.to_array()
        assert got == pearson_corr(arr[ys, xs], arr[ys + 1, xs + 1])

    def test_default_generator_reproducible(self):
        img = image_from_fn(64, 64, lambda x, y: (x * 7 + y * 13) ^ (x >> 2))
        a = adjacent_pixel_corr(img, "vertical")
        b = adjacent_pixel_corr(img, "vertical")
        assert a == b


class TestNpcrUaci:
    def test_identical_images_zero(self):
        img = image_from_fn(32, 32, lambda x, y: x * y)
        assert npcr(img, img) == 0.0
        assert uaci(img, img) == 0.0

    def test_everywhere_different(self):
        a = GrayImage(16, 16, bytes([0]) * 256)
        b = GrayImage(16, 16, bytes([255]) * 256)
        assert npcr(a, b) == 100.0
        assert uaci(a, b) == 100.0

    def test_dimension_mismatch(self):
        a = GrayImage(4, 4, bytes(16))
        b = GrayImage(4, 5, bytes(20))
        with pytest.raises(ValueError):
            npcr(a, b)
        with pytest.raises(ValueError):
            uaci(a, b)

    def test_single_pixel_change(self):
        a = image_from_fn(16, 16, lambda x, y: 100)
        px = bytearray(a.pixels)
        px[0] = 110
        b = GrayImage(16, 16, bytes(px))
        assert npcr(a, b) == pytest.approx(100 / 256)
        assert uaci(a, b) == pytest.approx(10 / 255 / 256 * 100)


class TestHistogram:
    def test_constant_image(self):
        img = GrayImage(8, 8, bytes(64))
        counts = histogram(img)
        assert counts[0] == 64
        assert sum(counts) == 64
        assert all(c == 0 for c in counts[1:])

    def test_counts_sum_to_pixels(self):
        img = image_from_fn(50, 30, lambda x, y: (x * 31 + y * 17))
        assert sum(histogram(img)) == 1500

    def test_chi_square_flat_histogram(self):
        assert histogram_chi_square([10] * 256) == 0.0
        assert histogram_chi_square([0] * 255 + [256]) > 310.457


class TestCompressionRate:
    def test_basic(self):
        assert compression_rate(100, 72) == pytest.approx(28.0)
        assert compression_rate(100, 101) == pytest.approx(-1.0)
        assert compression_rate(500, 500) == 0.0

    def test_rejects_empty_input(self):
        with pytest.raises(ValueError):
            compression_rate(0, 10)


class TestCompressionRates:
    @pytest.mark.parametrize(
        "params",
        [(3, 3, 1), (5, 13, 1), (6, 60, 0), (7, 44, 10), (8, 128, 3), (9, 150, 3), (10, 1, 3)],
        ids=str,
    )
    def test_one_parse_matches_the_coders(self, cache, params):
        # the stream coder's length, flush included, and both block coders'
        codec = cache.codec(*params)
        rm = codec.rm
        for p_zero in (0.1, 0.35, 0.5, 0.9):
            for length in [*range(1, 24), 255, 1000, 3000]:
                bits = rand_bits(97 * length + int(100 * p_zero), length, p_zero)
                assert compression_rates(Bits.from_text(bits), codec) == {
                    "ac": compression_rate(length, len(ac_encode_stream(bits, rm.params))),
                    "fsac": compression_rate(length, len(fsac_encode(bits, rm))),
                    "hfac": compression_rate(length, len(hfac_encode(bits, codec))),
                }, (p_zero, length)

    def test_empty_input_rejected(self, cache):
        with pytest.raises(ValueError):
            compression_rates(Bits(), cache.codec(4, 3, 1))


class TestRandomnessTests:
    def test_monobit_alternating(self):
        for form in FORMS:
            assert monobit(form("01" * 500)) == 1.0

    def test_monobit_all_ones(self):
        for form in FORMS:
            assert monobit(form("1" * 10_000)) < 1e-10

    def test_monobit_needs_100_bits(self):
        for form in FORMS:
            with pytest.raises(ValueError):
                monobit(form("01" * 49))

    def test_block_frequency_random(self):
        for form in FORMS:
            assert block_frequency(form(rand_bits(12, 100_000))) >= 0.01

    def test_block_frequency_structured(self):
        for form in FORMS:
            assert block_frequency(form("0" * 64_000 + "1" * 64_000)) < 1e-10

    def test_block_frequency_needs_one_block(self):
        for form in FORMS:
            with pytest.raises(ValueError):
                block_frequency(form("01" * 50), m=128)

    @pytest.mark.parametrize("m", [0, -1, -4])
    def test_block_frequency_refuses_block_length_below_one(self, m):
        for form in FORMS:
            with pytest.raises(ValueError, match=f"m must be >= 1, got {m}"):
                block_frequency(form("01" * 50), m=m)

    def test_runs_random(self):
        for form in FORMS:
            assert runs(form(rand_bits(13, 100_000))) >= 0.01

    def test_runs_alternating_fails(self):
        for form in FORMS:
            assert runs(form("01" * 5000)) < 1e-10

    def test_runs_prerequisite_short_circuit(self):
        for form in FORMS:
            assert runs(form("1" * 9_000 + "0" * 1_000)) == 0.0

    def test_keystream_passes_all_three(self):
        for form in FORMS:
            bits = form(rand_bits(1_000_003, 200_000))
            assert monobit(bits) >= 0.01
            assert block_frequency(bits) >= 0.01
            assert runs(bits) >= 0.01


class TestGammaincc:
    # a spans block counts of 1 to 200,000 blocks, the largest summing
    # 100,000 terms; x runs from far below a to far above it
    @pytest.mark.parametrize(
        "a",
        [0.5, 1.0, 2.5, 10.0, 64.0, 128.5, 500.0, 3000.0, 10_000.5, 36_700.0, 100_000.0],
    )
    def test_matches_scipy(self, a):
        from scipy.special import gammaincc as reference

        xs = [a * r for r in (1e-6, 0.01, 0.3, 0.7, 0.95, 1.0, 1.05, 1.3, 2.0, 5.0)]
        xs += [a + 1 - 1e-9, a + 1, a + 1 + 1e-9, 1e-3, 0.5, 30.0]
        for x in xs:
            want = float(reference(a, x))
            got = gammaincc(a, x)
            assert 0.0 <= got <= 1.0, (a, x)
            if want > 1e-300:
                assert got == pytest.approx(want, rel=1e-9), (a, x)
            else:  # scipy flushes some subnormal results to zero
                assert 0.0 <= got <= 1e-300, (a, x)

    def test_edges(self):
        assert gammaincc(3.0, 0.0) == 1.0
        assert gammaincc(1.0, 2.0) == pytest.approx(np.exp(-2.0), rel=1e-14)
        for a, x in ((0.0, 1.0), (-1.0, 1.0), (1.0, -0.5)):
            with pytest.raises(ValueError):
                gammaincc(a, x)

    @pytest.mark.parametrize("a", [0.3, 2.25])
    def test_shape_in_halves_only(self, a):
        # block frequency's shape is a block count over 2; the finite sum
        # holds for no other
        with pytest.raises(ValueError, match="multiple of 1/2"):
            gammaincc(a, 1.0)


class TestStateVisits:
    def test_empty_trace(self):
        assert state_visit_histogram((), 5) == [0] * 5

    def test_counts_sum_to_steps(self):
        states = [0, 1, 1, 3, 2, 1, 0, 3]
        counts = state_visit_histogram(states, 4)
        assert counts == [2, 3, 1, 2]
        assert sum(counts) == len(states)


class TestBitsToImage:
    def test_truncates_long_stream(self):
        for form in FORMS:
            bits = form("10000000" * 20)  # 20 bytes of 0x80
            img = bits_to_image(bits, 4, 4)
            assert img.pixels == bytes([0x80]) * 16

    def test_tiles_short_stream(self):
        for form in FORMS:
            img = bits_to_image(form("1111111100000000"), 4, 2)
            assert img.pixels == bytes([255, 0, 255, 0, 255, 0, 255, 0])

    def test_empty_rejected(self):
        for form in FORMS:
            with pytest.raises(ValueError):
                bits_to_image(form(""), 4, 4)


class TestGrayImage:
    def test_size_validation(self):
        with pytest.raises(ValueError):
            GrayImage(4, 4, bytes(15))
        with pytest.raises(ValueError):
            GrayImage(0, 4, b"")

    def test_array_roundtrip(self):
        arr = np.arange(64, dtype=np.uint8).reshape(8, 8)
        img = GrayImage.from_array(arr)
        assert (img.to_array() == arr).all()
        with pytest.raises(ValueError):
            GrayImage.from_array(np.arange(64, dtype=np.uint8))


@pytest.fixture(scope="module")
def small_report():
    img = image_from_fn(48, 48, lambda x, y: (x * x + 3 * y) // 2)
    params = CoderParams(5, 14, 3, 200)
    return img, params, analyze_image(img, params, seed=0xBEEF)


# the rows `hfsac analyze` prints, in order; the state_visits_* rows only
# when some state is visited
REPORT_ROWS = [
    "plain_entropy", "cipher_entropy",
    *(f"{side}_corr_{d}" for side in ("plain", "cipher")
      for d in ("horizontal", "vertical", "diagonal")),
    "npcr_pct", "uaci_pct", "cipher_hist_chi2",
    *(f"compression_{c}_pct" for c in ("ac", "fsac", "hfac", "hfsac")),
    *(f"randomness_{t}_p" for t in ("block_frequency", "monobit", "runs")),
    *(f"key_flip_corr_{k}" for k in ("both", "jump_stream", "state_stream")),
    "state_visits_min", "state_visits_max", "state_visits_ratio",
]


class TestAnalyzeImage:
    def test_report_fields_sane(self, small_report):
        _img, _params, rep = small_report
        assert [f.name for f in dataclasses.fields(rep)] == [
            "metrics", "plain_histogram", "cipher_histogram", "state_visits",
        ]
        m = rep.metrics
        assert list(m) == REPORT_ROWS
        assert 0.9 <= m["cipher_entropy"] <= 1.0
        assert 0 <= m["npcr_pct"] <= 100
        assert 0 <= m["uaci_pct"] <= 100
        assert sum(rep.plain_histogram) == 48 * 48
        assert sum(rep.cipher_histogram) == 48 * 48
        assert sum(rep.state_visits) > 0
        visits = [v for v in rep.state_visits if v]
        assert m["state_visits_ratio"] == max(visits) / min(visits)

    def test_report_deterministic(self, small_report):
        img, params, rep = small_report
        again = analyze_image(img, params, seed=0xBEEF)
        assert again == rep

    def test_report_serialization(self, small_report):
        _img, _params, rep = small_report
        csv = rep.to_csv()
        assert csv.startswith("metric,value\n")
        assert [line.split(",")[0] for line in csv.splitlines()[1:]] == REPORT_ROWS
        # names padded to the longest, then two spaces and the value
        width = max(map(len, REPORT_ROWS))
        text = rep.to_text().splitlines()
        assert [line[:width].rstrip() for line in text] == REPORT_ROWS
        assert all(line[width:width + 2] == "  " and line[width + 2] != " " for line in text)

    def test_constant_image_reports_nan(self):
        # a constant image has no plain pixel correlation: those three rows
        # are nan, and the rest of the report is computed as usual
        img = GrayImage(64, 64, bytes(64 * 64))
        rows = analyze_image(img, CoderParams(5, 14, 3, 200), seed=0xBEEF).metrics
        plain = [k for k in rows if k.startswith("plain_corr_")]
        assert len(plain) == 3 and all(math.isnan(rows[k]) for k in plain)
        assert all(math.isfinite(v) for k, v in rows.items() if k not in plain)

    def test_one_bit_cipher_reports_nan(self):
        # (6, 63, 3) takes a zero byte in one step of one cipher bit: the
        # randomness p-values and the key-flip correlations read nan, and
        # the tests called on their own still refuse so short a sample
        rep = analyze_image(GrayImage(1, 1, bytes(1)), CoderParams(6, 63, 3, 128), seed=7)
        m = rep.metrics
        assert m["compression_hfsac_pct"] == 87.5
        for prefix in ("randomness_", "key_flip_corr_"):
            rows = [k for k in m if k.startswith(prefix)]
            assert len(rows) == 3 and all(math.isnan(m[k]) for k in rows)
        for test, need in ((monobit, 100), (block_frequency, 128), (runs, 100)):
            with pytest.raises(ValueError, match=f"need at least {need} bits"):
                test("0" * (need - 1))

    def test_analyze_converts_no_text(self, monkeypatch):
        # the report is computed on packed bits from pixels to statistics
        img = image_from_fn(40, 40, lambda x, y: (x * 5 + y * y) ^ (y >> 1))
        params = CoderParams(7, 44, 10, 230)
        expected = analyze_image(img, params, seed=0x5EED)

        def refuse(*args):
            raise AssertionError("'0'/'1' text on the analyze path")

        monkeypatch.setattr(Bits, "to_text", refuse)
        monkeypatch.setattr(Bits, "from_text", refuse)
        monkeypatch.setattr(hfsac.bitio, "pack_bits", refuse)
        assert analyze_image(img, params, seed=0x5EED) == expected

    def test_analyze_leaves_scipy_unloaded(self):
        # the block-frequency p-value needs no scipy, whose import alone
        # costs ~0.3 s of every `hfsac analyze`
        code = (
            "import sys\n"
            "from hfsac import CoderParams, GrayImage, analyze_image\n"
            "img = GrayImage(48, 48, bytes(range(256)) * 9)\n"
            "analyze_image(img, CoderParams(4, 3, 1, 128), 7)\n"
            "print('scipy' in sys.modules)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

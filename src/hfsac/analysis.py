"""Statistical-security and compression metrics.

Entropy, pixel correlations, NPCR/UACI, histograms, a minimal randomness
test subset (monobit, block frequency, runs), compression rates, and the
full image report that ties the codec and the metrics together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bitio import Bits
from .coder import CoderParams, renormalize, split_interval
from .crypto import (
    TAG_JUMP,
    TAG_STATE,
    TAG_SWAP,
    KeySchedule,
    SplitMix64,
    encrypt_bits,
    substream_init,
)
from .huffman import build_codec
from .pgm import GrayImage
from .reducer import parse_rows

# fixed seed for the default sampling generator, so reports reproduce
ANALYSIS_SEED = 0x414E414C59534953

_DIRECTIONS = {"horizontal": (1, 0), "vertical": (0, 1), "diagonal": (1, 1)}


def shannon_entropy_binary(bits: Bits | str) -> float:
    """Empirical two-symbol entropy of a bit sequence, in bits per symbol."""
    n = len(bits)
    if not n:
        raise ValueError("empty bit string")
    ones = int(np.count_nonzero(_bit_array(bits)))
    h = 0.0
    for count in (ones, n - ones):
        if count:
            p = count / n
            h -= p * math.log2(p)
    return h


class DegenerateSampleError(ValueError):
    """A correlation's sample has fewer than two values or zero variance, an
    image has too few distinct pairs to draw it from, or a bit sequence is
    shorter than a randomness test needs."""


def pearson_corr(xs, ys) -> float:
    """Correlation coefficient from the discrete mean/variance/covariance forms."""
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("need two equal-length sequences")
    if x.size < 2:
        raise DegenerateSampleError(f"degenerate sample of {x.size} values")
    dx = x - x.mean()
    dy = y - y.mean()
    vx = float((dx * dx).mean())
    vy = float((dy * dy).mean())
    if vx == 0.0 or vy == 0.0:
        raise DegenerateSampleError("degenerate sequence")
    return float((dx * dy).mean() / math.sqrt(vx * vy))


def adjacent_pixel_corr(
    img: GrayImage, direction: str, pairs: int = 1000, gen: SplitMix64 | None = None
) -> float:
    """Correlation over randomly sampled adjacent-pixel pairs."""
    try:
        dx, dy = _DIRECTIONS[direction]
    except KeyError:
        raise ValueError(f"unknown direction {direction!r}") from None
    cols = img.width - dx
    rows = img.height - dy
    if pairs < 2:
        raise ValueError(f"need at least 2 pairs, got {pairs}")
    if pairs > cols * rows:
        raise DegenerateSampleError(f"image too small for {pairs} distinct pairs")
    if gen is None:
        gen = substream_init(ANALYSIS_SEED, TAG_SWAP)
    chosen: list[int] = []
    seen: set[int] = set()
    while len(chosen) < pairs:  # a draw adds at most one pair: none is left over
        for p in (gen.next_block(pairs - len(chosen)) % (cols * rows)).tolist():
            if p not in seen:
                seen.add(p)
                chosen.append(p)
    arr = img.to_array()
    ys = np.array([p // cols for p in chosen])
    xs = np.array([p % cols for p in chosen])
    return pearson_corr(arr[ys, xs], arr[ys + dy, xs + dx])


def npcr(c1: GrayImage, c2: GrayImage) -> float:
    """Percentage of pixel positions at which the two images differ."""
    if (c1.width, c1.height) != (c2.width, c2.height):
        raise ValueError("image dimensions differ")
    a = c1.to_array()
    b = c2.to_array()
    return float((a != b).mean() * 100.0)


def uaci(c1: GrayImage, c2: GrayImage) -> float:
    """Mean absolute pixel difference as a percentage of 255."""
    if (c1.width, c1.height) != (c2.width, c2.height):
        raise ValueError("image dimensions differ")
    a = c1.to_array().astype(np.int16)
    b = c2.to_array().astype(np.int16)
    return float(np.abs(a - b).mean() / 255.0 * 100.0)


def histogram(img: GrayImage) -> list[int]:
    """Counts per gray level, 256 bins."""
    return np.bincount(img.to_array().ravel(), minlength=256).tolist()


def histogram_chi_square(counts) -> float:
    """Chi-square statistic of a 256-bin histogram against the uniform law."""
    counts = np.asarray(counts, dtype=np.float64)
    expected = counts.sum() / counts.size
    return float(((counts - expected) ** 2 / expected).sum())


def compression_rate(in_bits: int, out_bits: int) -> float:
    """Percent saved: negative when the output is larger than the input."""
    if in_bits <= 0:
        raise ValueError("in_bits must be positive")
    return (1.0 - out_bits / in_bits) * 100.0


def _bit_array(bits: Bits | str) -> np.ndarray:
    bits = Bits.from_text(bits) if isinstance(bits, str) else bits
    return np.unpackbits(np.frombuffer(bits.data, np.uint8), count=bits.n)


def monobit(bits: Bits | str) -> float:
    """Frequency test p-value: erfc(|#1 - #0| / sqrt(2n))."""
    n = len(bits)
    if n < 100:
        raise DegenerateSampleError("need at least 100 bits")
    arr = _bit_array(bits)
    excess = abs(2 * int(arr.sum()) - n)
    return math.erfc(excess / math.sqrt(2 * n))


def gammaincc(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) for a a positive multiple
    of 1/2: the chi-square tail with 2a degrees of freedom at 2x.

    For those shapes the tail is a finite sum (Abramowitz & Stegun 26.4.4,
    26.4.5): erfc(sqrt(x)) when a is not whole, plus x**j * e**-x /
    Gamma(j + 1) for j = a mod 1, ..., a - 1, each term taken in logs
    through `math.lgamma`, all added by `math.fsum`.
    """
    if a <= 0 or x < 0 or (2 * a) % 1:
        raise ValueError(f"need a > 0 a multiple of 1/2 and x >= 0, got a={a}, x={x}")
    if x == 0:
        return 1.0
    frac, log_x = a % 1, math.log(x)
    js = (frac + i for i in range(int(a)))
    return min(math.fsum([  # rounding can carry a sum near 1 past 1
        math.erfc(math.sqrt(x)) if frac else 0.0,
        *(math.exp(j * log_x - x - math.lgamma(j + 1)) for j in js),
    ]), 1.0)


def block_frequency(bits: Bits | str, m: int = 128) -> float:
    """Block-frequency test p-value over k = n // m blocks of m bits: the
    chi-square tail with k degrees of freedom of the blocks' statistic
    (NIST SP 800-22 2.2), summed in closed form by `gammaincc`."""
    if m < 1:
        raise ValueError(f"block length m must be >= 1, got {m}")
    n = len(bits)
    if n < m:
        raise DegenerateSampleError(f"need at least {m} bits")
    arr = _bit_array(bits)
    k = n // m
    pis = arr[: k * m].reshape(k, m).mean(axis=1)
    chi2 = 4.0 * m * float(((pis - 0.5) ** 2).sum())
    return gammaincc(k / 2.0, chi2 / 2.0)


def runs(bits: Bits | str) -> float:
    """Runs test p-value; 0.0 when the monobit prerequisite fails."""
    n = len(bits)
    if n < 100:
        raise DegenerateSampleError("need at least 100 bits")
    arr = _bit_array(bits)
    pi = float(arr.mean())
    if abs(pi - 0.5) >= 2.0 / math.sqrt(n):
        return 0.0
    v = 1 + int(np.count_nonzero(np.diff(arr)))
    num = abs(v - 2.0 * n * pi * (1.0 - pi))
    den = 2.0 * math.sqrt(2.0 * n) * pi * (1.0 - pi)
    return math.erfc(num / den)


def state_visit_histogram(states, state_count: int) -> list[int]:
    """Visit count per state over the visited states, e.g. `trace.state`."""
    return np.bincount(states, minlength=state_count).tolist()


def bits_to_image(bits: Bits | str, width: int, height: int) -> GrayImage:
    """Cipher bits as bytes, MSB-first, fit to width x height.

    Shorter payloads tile cyclically; longer ones are truncated.
    """
    data = (Bits.from_text(bits) if isinstance(bits, str) else bits).data
    if not data:
        raise ValueError("empty bit stream")
    need = width * height
    if len(data) < need:
        data = (data * (need // len(data) + 1))[:need]
    return GrayImage(width, height, data[:need])


@dataclass
class MetricsReport:
    """Full metric suite for one image/key pair: `metrics` maps each printed
    row's name to its value, in report order, and the three count lists
    are the ones the CLI writes as CSV."""

    metrics: dict[str, float]
    plain_histogram: list[int]
    cipher_histogram: list[int]
    state_visits: list[int]

    def to_csv(self) -> str:
        return "metric,value\n" + "".join(
            f"{name},{value:.6g}\n" for name, value in self.metrics.items()
        )

    def to_text(self) -> str:
        width = max(map(len, self.metrics))
        return "".join(
            f"{name:<{width}}  {value:.6g}\n" for name, value in self.metrics.items()
        )


def _ac_stream_len(n: int, rm, rows: np.ndarray) -> int:
    """`len(ac_encode_stream(bits))` from the block parse `rows` of n bits.

    The stream coder emits the outputs of the blocks before the last, then
    what renormalize emits on the last block's real bits, walked from that
    block's origin state, then a flush of follow + 2 bits, follow being that
    of the state the last real bit reaches.  The parse matched the
    zero-padded tail, so the real bits lead the last row's input block.  On
    a complete last block the walk emits the row's out_len and ends on the
    origin of its next state.
    """
    if not len(rows):
        return 2
    real = n - int(rm.block_len[rows[:-1]].sum())
    params = rm.params
    low, high, follow = rm.origin_bounds[rm.row_state[rows[-1]]].tolist()
    emitted = 0
    for b in rm.inputs.word(rows[-1])[:real].tolist():
        s = split_interval(low, high, params)
        low, high = (s, high) if b else (low, s)
        low, high, follow, out = renormalize(low, high, follow, params)
        emitted += len(out)
    return int(rm.out_len[rows[:-1]].sum()) + emitted + follow + 2


def compression_rates(bits: Bits, codec) -> dict[str, float]:
    """AC / FSAC / HFAC output sizes for one input, as percent saved, all
    from one block parse."""
    rm = codec.rm
    n = bits.n
    rows = parse_rows(bits, rm)
    return {
        "ac": compression_rate(n, _ac_stream_len(n, rm, rows)),
        "fsac": compression_rate(n, int(rm.out_len[rows].sum())),
        "hfac": compression_rate(n, int(codec.code_len[rows].sum())),
    }


def _or_nan(metric, *args, **kwargs) -> float:
    """`metric` of the arguments; nan where its sample is degenerate: a
    constant sequence, an image with too few pairs, or a cipher shorter
    than a correlation or a randomness test needs, as tiny images give."""
    try:
        return metric(*args, **kwargs)
    except DegenerateSampleError:
        return math.nan


def analyze_image(img: GrayImage, params: CoderParams, seed: int) -> MetricsReport:
    """Encrypt an image and compute the full metric suite.

    Covers entropy, plain/cipher correlations, NPCR/UACI under a one-bit
    plaintext flip, randomness of the cipher stream, one-bit key-flip
    correlations confined to single substreams, and state-visit counts.
    Each row goes into `metrics` where it is computed, in report order.
    """
    codec = build_codec(params)
    plain = Bits(img.pixels)
    ks = KeySchedule(seed, params.jump_q_num)
    cipher, trace = encrypt_bits(plain, codec, ks, trace=True)
    cipher_img = bits_to_image(cipher, img.width, img.height)
    metrics = {
        "plain_entropy": shannon_entropy_binary(plain),
        "cipher_entropy": shannon_entropy_binary(cipher),
    }

    # one sampling generator: the plain pairs are drawn before the cipher's
    sample_gen = substream_init(ANALYSIS_SEED, TAG_SWAP)
    for side, image in (("plain", img), ("cipher", cipher_img)):
        for d in _DIRECTIONS:
            metrics[f"{side}_corr_{d}"] = _or_nan(
                adjacent_pixel_corr, image, d, gen=sample_gen
            )

    # plaintext sensitivity: flip the first bit, same key
    flipped = Bits(bytes([plain.data[0] ^ 0x80]) + plain.data[1:])
    flip_img = bits_to_image(encrypt_bits(flipped, codec, ks)[0], img.width, img.height)
    metrics["npcr_pct"] = npcr(cipher_img, flip_img)
    metrics["uaci_pct"] = uaci(cipher_img, flip_img)
    cipher_histogram = histogram(cipher_img)
    metrics["cipher_hist_chi2"] = histogram_chi_square(cipher_histogram)

    rates = compression_rates(plain, codec)
    rates["hfsac"] = compression_rate(plain.n, cipher.n)
    for name, rate in rates.items():
        metrics[f"compression_{name}_pct"] = rate
    for name, test in (
        ("block_frequency", block_frequency), ("monobit", monobit), ("runs", runs)
    ):
        metrics[f"randomness_{name}_p"] = _or_nan(test, cipher)

    # key sensitivity: one-bit change confined to single substreams
    base = _bit_array(cipher)
    for name, tags in (
        ("both", (TAG_JUMP, TAG_STATE)),
        ("jump_stream", (TAG_JUMP,)),
        ("state_stream", (TAG_STATE,)),
    ):
        tweaked = KeySchedule(seed, params.jump_q_num, tuple((t, 1) for t in tags))
        other, _ = encrypt_bits(plain, codec, tweaked)
        m = min(cipher.n, other.n)
        metrics[f"key_flip_corr_{name}"] = _or_nan(
            pearson_corr, base[:m], _bit_array(other)[:m]
        )

    state_visits = state_visit_histogram(trace.state, codec.rm.state_count)
    visits = [v for v in state_visits if v]
    if visits:
        metrics["state_visits_min"] = float(min(visits))
        metrics["state_visits_max"] = float(max(visits))
        metrics["state_visits_ratio"] = max(visits) / min(visits)
    return MetricsReport(metrics, histogram(img), cipher_histogram, state_visits)

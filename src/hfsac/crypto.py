"""Keyed encryption layer: keystream, state jumps, swap transforms.

One 64-bit seed feeds three independent splitmix substreams: J decides
whether a step jumps, S picks the jump target, W picks the per-step swap
position.  Encoder and decoder derive identical substreams from the seed,
so their draws stay aligned step for step.  The mix and the walk's draws
are C kernels, `splitmix` and `draw_block` of _walk.c;
`draw_bernoulli` and `draw_uniform` are their scalar form.

The keystream is deliberately a plain splitmix recurrence, not a CSPRNG:
it is bit-exact and cheap to reproduce anywhere, and the scheme's security
rests on seed secrecy (known-plaintext attacks are out of scope).
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass, field
from math import exp, inf, lgamma, log2, sqrt

import numpy as np

from .bitio import BitSource, BitWriter, Bits
from .huffman import HfsacCodec
from .prefix import kernel, walk

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15

TAG_JUMP = 1
TAG_STATE = 2
TAG_SWAP = 3


class KeyFormatError(ValueError):
    """Key text is not 16 lowercase hex characters."""


class WrongKeyError(ValueError):
    """Cipher bits match no codeword, or are left over once the plain bits
    are out: wrong key or corrupt stream."""


class TruncatedStreamError(ValueError):
    """Cipher ended mid-codeword."""


class SplitMix64:
    """Deterministic 64-bit generator (splitmix recurrence).

    Counter-based: draw k after state s0 is mix(s0 + k*GOLDEN mod 2**64),
    so a block of draws is computed at once by `next_block`.
    """

    __slots__ = ("state",)

    def __init__(self, state: int):
        self.state = state & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + GOLDEN) & MASK64
        return kernel().splitmix(self.state)

    def next_block(self, m: int) -> np.ndarray:
        """The next m draws as uint64, equal to m calls of next_u64."""
        if m < 0:
            raise ValueError(f"m must be >= 0, got {m}")
        draws, streams = np.empty(m, np.uint64), (ctypes.c_uint64 * 3)(0, 0, self.state)
        kernel().draw_block(streams, 0, 1, False, m, None, draws.ctypes.data)
        self.state = streams[2]
        return draws


def substream_init(seed: int, tag: int) -> SplitMix64:
    """Substream generator for one key role; pure function of (seed, tag)."""
    return SplitMix64((seed ^ (tag * GOLDEN)) & MASK64)


def draw_bernoulli(gen: SplitMix64, q_num: int) -> bool:
    """True with probability q_num / 256; consumes exactly one draw."""
    return (gen.next_u64() >> 56) < q_num


def draw_uniform(gen: SplitMix64, m: int) -> int:
    """Integer in [0, m); modulo bias is negligible for the small m used here."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return gen.next_u64() % m


def bernoulli_bits(gen: SplitMix64, n: int, p_zero: float) -> str:
    """n i.i.d. bits with P('0') = p_zero, for benchmarks and tests: bit i is
    '0' when draw i is below p_zero * 2**64; drawn in blocks of 2**16."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if not 0.0 <= p_zero <= 1.0:
        raise ValueError(f"p_zero must be in [0, 1], got {p_zero!r}")
    threshold = round(p_zero * (1 << 64))
    blocks = (gen.next_block(min(n - i, 1 << 16)) for i in range(0, n, 1 << 16))
    return b"".join(np.where(z < threshold, b"0", b"1").tobytes() for z in blocks).decode()


def seed_from_hex(text: str) -> int:
    """Parse a 16-lowercase-hex-character key (optional trailing newline)."""
    text = text.rstrip("\n")
    if len(text) != 16 or text.strip("0123456789abcdef"):
        raise KeyFormatError("key must be 16 lowercase hex characters")
    return int(text, 16)


def seed_to_hex(seed: int) -> str:
    return format(seed & MASK64, "016x")


@dataclass(frozen=True)
class KeySchedule:
    """Symmetric secret plus jump rate.

    Substreams are derived fresh per session, so a schedule may be reused;
    `tweaks` XORs a mask into chosen substream init states and exists for
    key-sensitivity experiments (a one-bit change confined to one role).
    """

    seed: int
    jump_q_num: int
    tweaks: tuple[tuple[int, int], ...] = field(default=())

    def __post_init__(self) -> None:
        if not 0 <= self.seed <= MASK64:
            raise ValueError("seed must fit in 64 bits")
        if not 0 <= self.jump_q_num <= 256:
            raise ValueError(f"jump_q_num must be in 0..256, got {self.jump_q_num}")

    def substream(self, tag: int) -> SplitMix64:
        gen = substream_init(self.seed, tag)
        for t, mask in self.tweaks:
            if t == tag:
                gen.state ^= mask & MASK64
        return gen


@dataclass(frozen=True)
class StepRecord:
    """What one encryption step did; `transition` indexes the state's rows."""

    jumped: bool
    state: int
    transition: int
    swap_pos: int


class StepTrace:
    """What every step of one encryption did, as columns.

    `len` counts the steps and iteration yields one `StepRecord` per step;
    index the columns for anything else.
    """

    __slots__ = ("jumped", "state", "transition", "swap_pos")

    def __init__(self, jumped=(), state=(), transition=(), swap_pos=()):
        self.jumped = np.asarray(jumped, bool)
        self.state = np.asarray(state, np.int32)
        self.transition = np.asarray(transition, np.int32)
        self.swap_pos = np.asarray(swap_pos, np.int32)

    def _columns(self):
        return (self.jumped, self.state, self.transition, self.swap_pos)

    def __len__(self) -> int:
        return len(self.jumped)

    def __iter__(self):
        for rec in zip(*(c.tolist() for c in self._columns())):
            yield StepRecord(*rec)

    def __eq__(self, other) -> bool:
        if isinstance(other, StepTrace):
            return all(
                np.array_equal(a, b) for a, b in zip(self._columns(), other._columns())
            )
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"StepTrace(steps={len(self)})"


def _walk(codec: HfsacCodec, ks: KeySchedule, stream: BitSource, limit: int, **kwargs) -> None:
    """`prefix.walk` of `codec` keyed by the substreams and the jump rate of `ks`."""
    streams = (ks.substream(t).state for t in (TAG_JUMP, TAG_STATE, TAG_SWAP))
    keys = ((ctypes.c_uint64 * 3)(*streams), ks.jump_q_num)
    walk(codec.rm, stream, limit, codec.outputs, keys=keys, moduli=codec.swap_moduli, **kwargs)


def encrypt_stream(
    plain: BitSource, codec: HfsacCodec, ks: KeySchedule, out: BitWriter, *, trace: bool = False
) -> StepTrace | None:
    """Encrypt the bits `plain` reads into `out`, a keystream block of
    steps at a time; returns the per-step trace when asked for, else None.
    A step draws as decrypt's does, so that their draws stay aligned."""
    blocks = [] if trace else None
    _walk(codec, ks, plain, plain.n, out=out, blocks=blocks)
    if not trace:
        return None
    rm, columns = codec.rm, []
    for rows, targets, swaps in blocks:
        states = rm.row_state[rows]
        columns.append((targets >= 0, states, rows - rm.row_base[states], swaps))
    return StepTrace(*map(np.concatenate, zip(*columns)))


def decrypt_stream(
    cipher: BitSource, codec: HfsacCodec, ks: KeySchedule, n_bits: int, out: BitWriter
) -> None:
    """Invert encrypt_stream under the same schedule: write the first
    n_bits decoded bits into `out`.  The codewords must use every bit that
    `cipher` reads."""
    if n_bits < 0:
        raise ValueError(f"n_bits must be >= 0, got {n_bits}")
    _walk(codec, ks, cipher, n_bits, out=out, fail=(TruncatedStreamError, WrongKeyError))


def encrypt_bits(
    plain: Bits, codec: HfsacCodec, ks: KeySchedule, *, trace: bool = False
) -> tuple[Bits, StepTrace | None]:
    """`encrypt_stream` on packed bits; returns (cipher bits, per-step
    trace), the trace only when asked for, else None."""
    buf = bytearray()
    out = BitWriter(buf.extend)
    steps = encrypt_stream(BitSource.of(plain), codec, ks, out, trace=trace)
    return Bits(buf, out.flush()), steps


def decrypt_bits(cipher: Bits, codec: HfsacCodec, ks: KeySchedule, n_bits: int) -> Bits:
    """`decrypt_stream` on packed bits: the first n_bits decoded bits."""
    buf = bytearray()
    out = BitWriter(buf.extend)
    decrypt_stream(BitSource.of(cipher), codec, ks, n_bits, out)
    return Bits(buf, out.flush())


def encrypt(plain: str, codec: HfsacCodec, ks: KeySchedule) -> tuple[str, StepTrace]:
    """`encrypt_bits` on '0'/'1' text; returns (cipher text, trace)."""
    cipher, steps = encrypt_bits(Bits.from_text(plain), codec, ks, trace=True)
    return cipher.to_text(), steps


def decrypt(cipher: str, codec: HfsacCodec, ks: KeySchedule, n_bits: int) -> str:
    """`decrypt_bits` on '0'/'1' text."""
    return decrypt_bits(Bits.from_text(cipher), codec, ks, n_bits).to_text()


def keyspace_bits(
    n: int, state_count: int, forced_first: bool = False, mode: str = "exact"
) -> float:
    """log2 of the jump-key count for an n-bit plaintext over S states.

    Exact mode counts half-weight jump patterns via log-gamma; asymptotic
    mode applies the Stirling closed form (coefficient 0.8, or 0.4 when the
    first jump is forced).  The result is a float, so it must stay within
    sys.float_info.max (~1.8e308): n = 1,000 gives ~2.7e299 * log2(S), and
    both modes raise ValueError from about n = 1,030 on.
    """
    if state_count < 1:
        raise ValueError("state_count must be >= 1")
    try:
        if mode == "exact":
            if n < 2 or n % 2:
                raise ValueError("exact mode needs even n >= 2")
            a, b = (n - 1, n // 2 - 1) if forced_first else (n, n // 2)
            log_comb = lgamma(a + 1) - lgamma(b + 1) - lgamma(a - b + 1)
            bits = exp(log_comb) * log2(state_count)
        elif mode == "asymptotic":
            if n < 1:
                raise ValueError("n must be >= 1")
            coeff = 0.4 if forced_first else 0.8
            bits = coeff * (2**n / sqrt(n)) * log2(state_count)
        else:
            raise ValueError(f"unknown mode {mode!r}")
    except OverflowError:
        bits = inf
    if bits == inf:
        raise ValueError(f"the key space of n = {n} bits exceeds the float range")
    return bits

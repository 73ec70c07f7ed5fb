"""Keyed encryption layer: keystream, state jumps, swap transforms.

One 64-bit seed feeds three independent splitmix substreams: J decides
whether a step jumps, S picks the jump target, W picks the per-step swap
position.  Encoder and decoder derive identical substreams from the seed,
so their draws stay aligned step for step.

The keystream is deliberately a plain splitmix recurrence, not a CSPRNG:
it is bit-exact and cheap to reproduce anywhere, and the scheme's security
rests on seed secrecy (known-plaintext attacks are out of scope).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import exp, inf, lgamma, log2, sqrt

import numpy as np

from .bitio import BitSource, BitWriter, Bits
from .huffman import HfsacCodec
from .prefix import walk

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

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


def _mix(z):
    """The splitmix output of counter value z, an int or a uint64 array (on
    which the products wrap and the masks change nothing)."""
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return z ^ (z >> 31)


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
        return _mix(self.state)

    def next_block(self, m: int) -> np.ndarray:
        """The next m draws as uint64, equal to m calls of next_u64."""
        if m < 0:
            raise ValueError(f"m must be >= 0, got {m}")
        z = np.arange(1, m + 1, dtype=np.uint64)
        z *= GOLDEN
        z += self.state
        self.state = (self.state + m * GOLDEN) & MASK64
        return _mix(z)


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


class _Draws:
    """A schedule's three substreams, drawn a block of steps at a time."""

    def __init__(self, ks: KeySchedule, state_count: int):
        self.q = ks.jump_q_num
        self.state_count = state_count
        self.jump = ks.substream(TAG_JUMP)
        self.state = ks.substream(TAG_STATE)
        self.swap = ks.substream(TAG_SWAP)
        self.first = True

    def jumps(self, m: int) -> np.ndarray:
        """Jump targets of the next m steps, -1 where a step does not jump;
        the first step always jumps."""
        jumped = (self.jump.next_block(m) >> 56) < self.q
        jumped[0] |= self.first
        self.first = False
        targets = np.full(m, -1, np.int64)
        draws = self.state.next_block(int(np.count_nonzero(jumped)))
        targets[jumped] = draws % self.state_count
        return targets


def encrypt_stream(
    plain: BitSource, codec: HfsacCodec, ks: KeySchedule, out: BitWriter, *, trace: bool = False
) -> StepTrace | None:
    """Encrypt the bits `plain` reads into `out`, a keystream block of
    steps at a time; returns the per-step trace when asked for, else None.

    Per step: draw the jump flag (the first step always jumps), on a jump
    draw the target state, draw the swap position, parse one input block,
    emit the swapped codeword.  The draw order is fixed so the decoder can
    mirror it exactly.  The parse does not depend on the swap draws, so a
    block of steps is walked first and its codewords are swapped and
    packed together.
    """
    rm = codec.rm
    draws = _Draws(ks, rm.state_count)
    columns = []
    for rows, targets in walk(rm, rm.inputs, plain, plain.n, draws.jumps):
        states = rm.row_state[rows]
        swap_pos = draws.swap.next_block(len(rows)) % codec.swap_moduli[states]
        swap_pos = swap_pos.astype(np.int32)
        out.write(codec.outputs.gather(rows, swap_pos))
        if trace:
            columns.append(
                (targets >= 0, states, rows - rm.row_base[states], swap_pos)
            )
    return StepTrace(*map(np.concatenate, zip(*columns))) if trace else None


def decrypt_stream(
    cipher: BitSource, codec: HfsacCodec, ks: KeySchedule, n_bits: int, out: BitWriter
) -> None:
    """Invert encrypt_stream under the same schedule: write the first
    n_bits decoded bits into `out`.  The codewords must use every bit that
    `cipher` reads."""
    if n_bits < 0:
        raise ValueError(f"n_bits must be >= 0, got {n_bits}")
    draws = _Draws(ks, codec.rm.state_count)
    swaps = (draws.swap.next_block, codec.swap_moduli)
    fail = (TruncatedStreamError, WrongKeyError)
    left = n_bits  # the last input block may run past the plain bits
    for rows, _ in walk(codec.rm, codec.outputs, cipher, n_bits, draws.jumps, swaps, fail):
        bits01 = codec.rm.inputs.gather(rows)[:left]
        left -= len(bits01)
        out.write(bits01)


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

"""Integer arithmetic coding on [0, 2**N) and its full finite-state machine.

The coder keeps an integer interval [low, high) plus a follow counter for
deferred middle expansions.  Enumerating every canonical interval reachable
from (0, 2**N, 0) yields a finite state machine whose edges carry the bits
emitted during renormalization; the same interval rules drive the streaming
encoder/decoder used as a compression baseline.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import prefix

STATE_CEILING = 10**6


class StateExplosionError(RuntimeError):
    """State-machine exploration exceeded STATE_CEILING states."""


class TruncatedCodeError(ValueError):
    """Arithmetic code ran out before all symbols were recovered."""


@dataclass(frozen=True)
class CoderParams:
    """Static coder configuration.

    The model probability of symbol 0 is p0_num / 2**n_bits.  jump_q_num / 256
    is the jump probability consumed by the encryption layer; it does not
    affect the coder tables themselves.
    """

    n_bits: int
    p0_num: int
    f_max: int
    jump_q_num: int = 0

    def __post_init__(self) -> None:
        if not 3 <= self.n_bits <= 16:
            raise ValueError(f"n_bits must be in 3..16, got {self.n_bits}")
        top = (1 << self.n_bits) - 1
        if not 1 <= self.p0_num <= top:
            raise ValueError(f"p0_num must be in 1..{top}, got {self.p0_num}")
        if not 0 <= self.f_max <= 15:
            raise ValueError(f"f_max must be in 0..15, got {self.f_max}")
        if not 0 <= self.jump_q_num <= 256:
            raise ValueError(f"jump_q_num must be in 0..256, got {self.jump_q_num}")

    @property
    def full(self) -> int:
        return 1 << self.n_bits

    @property
    def half(self) -> int:
        return 1 << (self.n_bits - 1)

    @property
    def quarter(self) -> int:
        return 1 << (self.n_bits - 2)

    @classmethod
    def from_probability(
        cls, n_bits: int, p_zero: float, f_max: int, jump_q_num: int = 0
    ) -> "CoderParams":
        """Quantize a probability of symbol 0 strictly inside (0, 1) to the
        nearest numerator in 1..2**n_bits - 1."""
        if not 0.0 < p_zero < 1.0:
            raise ValueError(f"p_zero must be strictly inside (0, 1), got {p_zero!r}")
        full = cls(n_bits, 1, f_max, jump_q_num).full  # checks n_bits first
        num = min(max(round(p_zero * full), 1), full - 1)
        return cls(n_bits, num, f_max, jump_q_num)


@dataclass(frozen=True)
class FullState:
    """Canonical coder state: interval bounds plus pending follow count."""

    low: int
    high: int
    follow: int


class FullMachine:
    """Complete state graph of the coder, as columns; immutable.

    State s is the interval [low[s], high[s]) with follow[s] deferred
    middle expansions.  Its two edges are e = 2*s (symbol 0) and 2*s + 1
    (symbol 1): edge e leads to target[e] and emits the emit_len[e] bits of
    emit_val[e], most significant first; at most n_bits + f_max <= 31 bits.
    `states` is an object view, built on first access.
    """

    def __init__(
        self, params: CoderParams, low, high, follow, target, emit_len, emit_val
    ):
        self.params = params
        self.low = np.asarray(low, np.int64)
        self.high = np.asarray(high, np.int64)
        self.follow = np.asarray(follow, np.int64)
        self.target = np.asarray(target, np.int32)
        self.emit_len = np.asarray(emit_len, np.int32)
        self.emit_val = np.asarray(emit_val, np.int64)

    def _columns(self):
        return (
            self.low, self.high, self.follow, self.target, self.emit_len, self.emit_val,
        )

    @functools.cached_property
    def states(self) -> tuple[FullState, ...]:
        return tuple(
            map(FullState, self.low.tolist(), self.high.tolist(), self.follow.tolist())
        )

    @property
    def mute_count(self) -> int:
        return int(np.count_nonzero(self.emit_len == 0))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FullMachine)
            and self.params == other.params
            and all(map(np.array_equal, self._columns(), other._columns()))
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"FullMachine(params={self.params!r}, states={len(self.low)})"


def split_interval(low: int, high: int, params: CoderParams) -> int:
    """Split point of [low, high): symbol 0 owns [low, s), symbol 1 owns [s, high)."""
    if high - low < 2:
        raise ValueError(f"interval too narrow to split: [{low}, {high})")
    s = low + (((high - low) * params.p0_num) >> params.n_bits)
    return min(max(s, low + 1), high - 1)


def renormalize(low: int, high: int, follow: int, params: CoderParams):
    """Expand the interval until no doubling rule fires; returns the new
    (low, high, follow) and the emitted bits."""
    half = params.half
    quarter = params.quarter
    three_quarter = half + quarter
    f_max = params.f_max
    out: list[str] = []
    while True:
        if high <= half:
            out.append("0" + "1" * follow)
            follow = 0
            low, high = low * 2, high * 2
        elif low >= half:
            out.append("1" + "0" * follow)
            follow = 0
            low, high = (low - half) * 2, (high - half) * 2
        elif low >= quarter and high <= three_quarter and follow < f_max:
            # middle straddle: defer one bit; disabled once follow saturates
            follow += 1
            low, high = (low - quarter) * 2, (high - quarter) * 2
        else:
            break
    return low, high, follow, "".join(out)


def build_full_fsm(params: CoderParams) -> FullMachine:
    """Breadth-first exploration of every canonical state from (0, 2**N, 0).

    States are numbered in order of first occurrence, in (parent, edge)
    order.  The loop is `explore` of the compiled kernels (prefix.kernel):
    split_interval and renormalize on each edge, emitted bits carried as
    (length, value), and states deduplicated by open addressing.  It writes
    the columns straight into arrays held here and stops when they may be
    too small; they are then doubled and the loop resumes.  More than
    STATE_CEILING states raise StateExplosionError.
    """
    states = 1 << 10
    columns = [np.zeros(states, np.int64) for _ in range(3)] + [
        np.zeros(2 * states, dtype) for dtype in (np.int32, np.int32, np.int64)
    ]
    columns[1][0] = params.full  # state 0 is (0, 2**N, 0)
    progress = np.array([0, 1], np.int64)  # states explored, states found
    while True:
        bits = states.bit_length()  # 2 * states slots: at most half are used
        slots = np.empty(1 << bits, np.int32)
        status = prefix.kernel().explore(
            params.n_bits, params.p0_num, params.f_max, STATE_CEILING,
            *(c.ctypes.data for c in columns), states, slots.ctypes.data, bits,
            progress.ctypes.data,
        )
        if status < 0:
            raise StateExplosionError(f"state explosion for {params}")
        if status == 0:
            break
        states *= 2
        for k, c in enumerate(columns):
            columns[k] = np.empty(2 * len(c), c.dtype)
            columns[k][: len(c)] = c
    found = int(progress[1])
    low, high, follow, target, emit_len, emit_val = columns
    return FullMachine(
        params, low[:found], high[:found], follow[:found],
        target[: 2 * found], emit_len[: 2 * found], emit_val[: 2 * found],
    )


def _check_bits(bits: str) -> None:
    bad = bits.strip("01")  # starts at the first character that is not a bit
    if bad:
        raise ValueError(f"invalid bit {bad[0]!r}")


def ac_encode_parts(bits: str, params: CoderParams) -> tuple[str, str]:
    """Streaming encode split into (body, flush suffix)."""
    _check_bits(bits)
    low, high, follow = 0, params.full, 0
    out: list[str] = []
    for b in bits:
        s = split_interval(low, high, params)
        low, high = (low, s) if b == "0" else (s, high)
        low, high, follow, emitted = renormalize(low, high, follow, params)
        out.append(emitted)
    follow += 1
    if low >= params.quarter:
        flush = "1" + "0" * follow
    else:
        flush = "0" + "1" * follow
    return "".join(out), flush


def ac_encode_stream(bits: str, params: CoderParams) -> str:
    """Encode a bit string; the output ends with a flush that pins the interval."""
    body, flush = ac_encode_parts(bits, params)
    return body + flush


def ac_decode_stream(code: str, n_symbols: int, params: CoderParams) -> str:
    """Recover n_symbols bits from an ac_encode_stream output.

    The window holds the n_bits code bits that the interval has reached.
    Every doubling of renormalize maps the window exactly as it maps low,
    so when renormalize widens the interval by 2**k the window becomes
    new_low + ((window - low) << k) plus the next k code bits.  Up to
    n_bits zero bits are read past the end of the code (a valid stream
    never needs more); needing more raises TruncatedCodeError.  A code
    holding a character other than '0' and '1' raises ValueError.
    """
    if n_symbols < 0:
        raise ValueError(f"n_symbols must be >= 0, got {n_symbols}")
    _check_bits(code)
    n = params.n_bits
    padded = code + "0" * n
    window, pos = int(padded[:n], 2), n
    low, high, follow = 0, params.full, 0
    out: list[str] = []
    for i in range(n_symbols):
        if i:
            width = high - low
            new_low, high, follow, _ = renormalize(low, high, follow, params)
            k = (high - new_low).bit_length() - width.bit_length()
            if pos + k > len(padded):
                raise TruncatedCodeError("truncated code")
            bits = int("0" + padded[pos : pos + k], 2)
            window = new_low + ((window - low) << k) + bits
            low, pos = new_low, pos + k
        s = split_interval(low, high, params)
        b = "0" if window < s else "1"
        out.append(b)
        low, high = (low, s) if b == "0" else (s, high)
    return "".join(out)

"""Workload definitions, input generation and pinned known answers.

Inputs come from a SHA-256 counter-mode stream of the benchmark's own, not
from the package's keystream, so a change to `hfsac.SplitMix64` cannot
change what is measured.  The cipher key is fixed for every workload.

A workload input depends on the seed only through `variant(seed)`, so the
expected ciphertext and analysis digests can be pinned for every seed in
`pins.json` (written by `pin.py`).
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

# The README's example key.  With it the image-256 workload reproduces the
# reference figures: 262,838 steps and 590,908 cipher bits.
KEY_HEX = "0123456789abcdef"
VARIANTS = 16
SETUP_INPUT = b"\x5a"
PINS_PATH = Path(__file__).with_name("pins.json")

# Container header (README "Container format"): the two u64 bit lengths
# follow 13 bytes of magic, version and parameters.
_LENGTHS = struct.Struct(">QQ")
_LENGTHS_OFFSET = 13


@dataclass(frozen=True)
class Workload:
    name: str
    n_bits: int
    p0_num: int
    f_max: int
    jump_q: int
    # bytes of seeded random input; None means the fixed 256x256 image
    random_bytes: int | None

    def cli_params(self) -> list[str]:
        return [
            "--n", str(self.n_bits),
            "--p0-num", str(self.p0_num),
            "--fmax", str(self.f_max),
            "--jump-prob", str(self.jump_q),
        ]

    def variant(self, seed: int) -> int:
        return 0 if self.random_bytes is None else seed % VARIANTS

    def variants(self) -> range:
        return range(1 if self.random_bytes is None else VARIANTS)


WORKLOADS = {
    w.name: w
    for w in (
        # (7, 44, 10) is the paper's image codec: 330 states, cheap to build
        Workload("image-256", 7, 44, 10, 230, None),
        Workload("bulk-random", 7, 44, 10, 230, 96 * 1024),
        # every CLI call rebuilds this codec, ~2.3 s of a ~3 s call
        Workload("build-n9", 9, 150, 3, 230, 16 * 1024),
    )
}


@dataclass(frozen=True)
class Inputs:
    plain: bytes  # the file handed to `hfsac encode`
    is_pgm: bool
    # geometry of `plain` if is_pgm, else of the analyze image; the traced
    # run views the cipher at this size for its statistics
    width: int
    height: int
    analyze_pgm: bytes  # the P5 file handed to `hfsac analyze`

    @property
    def plain_bits(self) -> int:
        return 8 * len(pgm_pixels(self.plain) if self.is_pgm else self.plain)


def stream_bytes(label: str, n: int) -> bytes:
    """n bytes of SHA-256 counter-mode output for `label`."""
    blocks = (
        hashlib.sha256(f"{label}:{i}".encode()).digest()
        for i in range((n + 31) // 32)
    )
    return b"".join(blocks)[:n]


def synthetic_pixels(width: int = 256, height: int = 256) -> bytes:
    """Smooth test image with strongly correlated neighbours.

    The same formula as the test suite's synthetic image, kept here so the
    benchmark does not import the tests.
    """
    px = bytearray()
    for y in range(height):
        for x in range(width):
            v = (
                128
                + 60 * math.sin(2 * math.pi * x / 71) * math.sin(2 * math.pi * y / 83)
                + 24 * math.sin(2 * math.pi * (x + y) / 47)
            )
            px.append(min(max(int(v), 0), 255))
    return bytes(px)


def pgm(width: int, height: int, pixels: bytes) -> bytes:
    """P5 bytes in the exact layout `hfsac decode --format pgm` writes."""
    return b"P5\n%d %d\n255\n" % (width, height) + pixels


def pgm_pixels(data: bytes) -> bytes:
    return data[data.index(b"\n255\n") + 5 :]


def make_inputs(w: Workload, seed: int) -> Inputs:
    # `analyze` gets a 64x64 image: about 1.2 s, where the full 256x256 image
    # takes 9-16 s and would leave a run too few samples
    side = 64
    if w.random_bytes is None:
        px = synthetic_pixels()
        crop = b"".join(px[y * 256 : y * 256 + side] for y in range(side))
        return Inputs(pgm(256, 256, px), True, 256, 256, pgm(side, side, crop))
    data = stream_bytes(f"{w.name}/{w.variant(seed)}", w.random_bytes)
    return Inputs(data, False, side, side, pgm(side, side, data[: side * side]))


def container_bit_lengths(blob: bytes) -> tuple[int, int]:
    """(plain_bit_len, cipher_bit_len) from a container header."""
    return _LENGTHS.unpack_from(blob, _LENGTHS_OFFSET)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_pins() -> dict:
    with open(PINS_PATH, encoding="ascii") as fh:
        return json.load(fh)


def pinned(pins: dict, w: Workload, seed: int) -> dict:
    return pins["workloads"][w.name]["variants"][str(w.variant(seed))]

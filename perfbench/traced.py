"""Traced in-process run: each module's public functions in pipeline order.

Every call is wrapped in a span (name, start, end, parent span, run id).
Spans stay in memory and are written out when the run ends.  Exact counts
are taken at the same call boundaries and checked against `pins.json`.
"""

from __future__ import annotations

import os
import sys
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

from workloads import KEY_HEX, Workload, make_inputs, pinned, sha256

LAYERS = (
    "cli", "coder", "reducer", "huffman", "crypto",
    "container", "bitio", "pgm", "analysis",
)

# Spans timed as per-layer metrics `<name>_s`; the value is the summed
# duration of every span of that name.
TIMED_SPANS = (
    "cli.import",
    "coder.build_full_fsm", "coder.ac_encode_stream",
    "reducer.reduce_machine", "reducer.fsac_parse",
    "huffman.attach_tables", "huffman.hfac_encode", "huffman.hfac_decode",
    "crypto.encrypt", "crypto.decrypt", "crypto.keystream", "crypto.swap",
    "container.serialize", "container.parse",
    "bitio.unpack_bits", "bitio.pack_bits",
    "pgm.parse_pgm", "pgm.pgm_bytes",
    "analysis.analyze_image", "analysis.stats",
)

# CLI command -> the traced ops that together do the same work
CLI_EQUIVALENT = {
    "encode": ("op.import", "op.setup", "op.encode"),
    "decode": ("op.import", "op.setup", "op.decode"),
    "analyze": ("op.import", "op.analyze"),
}


class Tracer:
    """In-memory span recorder; times are seconds since the tracer started."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "run": self.run_id,
            "start": time.perf_counter() - self._t0,
            "end": None,
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.perf_counter() - self._t0
            self._open.pop()

    def call(self, name: str, fn, *args):
        with self.span(name):
            return fn(*args)

    def seconds(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def self_seconds(self) -> dict[str, float]:
        """Per layer: span time minus the part its child spans cover."""
        children: dict[int, list[dict]] = {}
        for s in self.spans:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append(s)
        totals = dict.fromkeys(LAYERS, 0.0)
        for s in self.spans:
            layer = s["name"].split(".", 1)[0]
            if layer not in totals:
                continue
            covered = 0.0
            reach = s["start"]
            for c in sorted(children.get(s["id"], ()), key=lambda c: c["start"]):
                lo, hi = max(c["start"], reach), min(c["end"], s["end"])
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            totals[layer] += s["end"] - s["start"] - covered
        return totals


def exact_counts(fm, rm, codec, parse_steps, padded, trace, cipher, bits) -> dict:
    """Deterministic sizes and rates; equal on every run of the same code."""
    steps = len(trace)
    jumps = sum(1 for r in trace if r.jumped)
    return {
        "coder.full_states": len(fm.states),
        "coder.mute_edges": fm.mute_count,
        "reducer.states": rm.state_count,
        "reducer.rows": sum(len(row) for row in rm.transitions),
        "reducer.match_calls": len(parse_steps),
        "reducer.mean_block_bits": len(padded) / len(parse_steps),
        "huffman.max_codeword_bits": max(t.max_len for t in codec.tables),
        "crypto.steps": steps,
        # one jump draw and one swap draw per step, one state draw per jump
        "crypto.keystream_draws": 2 * steps + jumps,
        "crypto.jump_rate": jumps / steps,
        "crypto.mean_codeword_bits": len(cipher) / steps,
        "cipher_ratio": len(cipher) / len(bits),
    }


def _replay_keystream(hf, trace, codec, ks):
    """Redraw the encrypt keystream through KeySchedule.substream.

    Returns (draws made, whether every draw reproduced the trace).
    """
    from hfsac.crypto import TAG_JUMP, TAG_STATE, TAG_SWAP

    gen_jump = ks.substream(TAG_JUMP)
    gen_state = ks.substream(TAG_STATE)
    gen_swap = ks.substream(TAG_SWAP)
    n_states = codec.rm.state_count
    draws = 0
    same = True
    for i, rec in enumerate(trace):
        jumped = hf.draw_bernoulli(gen_jump, ks.jump_q_num) or i == 0
        draws += 1
        if jumped:
            same = same and hf.draw_uniform(gen_state, n_states) == rec.state
            draws += 1
        swap_pos = hf.draw_uniform(gen_swap, codec.tables[rec.state].max_len + 1)
        draws += 1
        same = same and jumped == rec.jumped and swap_pos == rec.swap_pos
    return draws, same


def _swap_trace(hf, trace, codec) -> str:
    return "".join(
        hf.swap_codeword(codec.tables[r.state].codewords[r.transition], r.swap_pos)
        for r in trace
    )


def _cipher_stats(hf, cipher: str, flipped: str, width: int, height: int) -> dict:
    """The analysis metrics of one cipher, as `analyze_image` computes them."""
    img = hf.bits_to_image(cipher, width, height)
    flip_img = hf.bits_to_image(flipped, width, height)
    return {
        "entropy": hf.shannon_entropy_binary(cipher),
        "corr": {
            d: hf.adjacent_pixel_corr(img, d)
            for d in ("horizontal", "vertical", "diagonal")
        },
        "npcr": hf.npcr(img, flip_img),
        "uaci": hf.uaci(img, flip_img),
        "chi2": hf.histogram_chi_square(hf.histogram(img)),
        "monobit": hf.monobit(cipher),
        "block_frequency": hf.block_frequency(cipher),
        "runs": hf.runs(cipher),
    }


def _peak_mib(fn, *args) -> float:
    """Peak bytes the call allocates, from tracemalloc, in MiB."""
    tracemalloc.start()
    try:
        fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 2**20


def traced_run(root: Path, w: Workload, seed: int, pins: dict):
    """Run the pipeline once under the tracer.

    Returns (tracer, per-layer metrics, {check name: passed}).
    """
    tr = Tracer(f"{w.name}/seed={seed}/pid={os.getpid()}")
    inp = make_inputs(w, seed)
    expect = pinned(pins, w, seed)
    key = int(KEY_HEX, 16)
    checks: dict[str, bool] = {}

    sys.path.insert(0, str(root / "src"))
    with tr.span("op.import"), tr.span("cli.import"):
        import hfsac.cli  # noqa: F401  (timed: interpreter-level import cost)
    import hfsac as hf

    src = (root / "src").resolve()
    if src not in Path(hf.__file__).resolve().parents:
        raise RuntimeError(f"imported hfsac from {hf.__file__}, not from {src}")

    params = hf.CoderParams(w.n_bits, w.p0_num, w.f_max, w.jump_q)
    ks = hf.KeySchedule(key, w.jump_q)

    with tr.span("op.setup"):
        fm = tr.call("coder.build_full_fsm", hf.build_full_fsm, params)
        rm = tr.call("reducer.reduce_machine", hf.reduce_machine, fm)
        codec = tr.call("huffman.attach_tables", hf.attach_tables, rm)

    with tr.span("op.encode"):
        raw = inp.plain
        if inp.is_pgm:
            raw = tr.call("pgm.parse_pgm", hf.parse_pgm, inp.plain).pixels
        bits = tr.call("bitio.unpack_bits", hf.unpack_bits, raw)
        cipher, trace = tr.call("crypto.encrypt", hf.encrypt, bits, codec, ks)
        blob = tr.call(
            "container.serialize", hf.serialize,
            hf.CipherContainer(params, len(bits), cipher),
        )
    checks["encode digest"] = sha256(blob) == expect["encode_sha256"]

    with tr.span("op.decode"):
        box = tr.call("container.parse", hf.parse, blob)
        back = tr.call(
            "crypto.decrypt", hf.decrypt, box.cipher_bits, codec, ks, box.plain_bit_len
        )
        data = tr.call("bitio.pack_bits", hf.pack_bits, back)
        if inp.is_pgm:
            data = tr.call(
                "pgm.pgm_bytes", hf.pgm_bytes, hf.GrayImage(inp.width, inp.height, data)
            )
    checks["decode roundtrip"] = data == inp.plain

    with tr.span("op.layers"):
        parse_steps, padded = tr.call("reducer.fsac_parse", hf.fsac_parse, bits, rm)
        draws, replay_same = tr.call(
            "crypto.keystream", _replay_keystream, hf, trace, codec, ks
        )
        swapped = tr.call("crypto.swap", _swap_trace, hf, trace, codec)
        keyless = tr.call("huffman.hfac_encode", hf.hfac_encode, bits, codec)
        keyless_back = tr.call(
            "huffman.hfac_decode", hf.hfac_decode, keyless, codec, len(bits)
        )
        tr.call("coder.ac_encode_stream", hf.ac_encode_stream, bits, params)
    checks["swap replay"] = swapped == cipher
    checks["hfac roundtrip"] = keyless_back == bits

    with tr.span("op.analyze"):
        img = tr.call("pgm.parse_pgm", hf.parse_pgm, inp.analyze_pgm)
        report = tr.call("analysis.analyze_image", hf.analyze_image, img, params, key)
        again = tr.call("pgm.pgm_bytes", hf.pgm_bytes, img)
    checks["analyze digest"] = sha256(report.to_text().encode()) == expect["analyze_sha256"]
    checks["pgm roundtrip"] = again == inp.analyze_pgm

    with tr.span("op.stats"):
        flipped = ("1" if bits[0] == "0" else "0") + bits[1:]
        cipher_flip, _ = tr.call("crypto.encrypt_flip", hf.encrypt, flipped, codec, ks)
        tr.call(
            "analysis.stats", _cipher_stats, hf, cipher, cipher_flip,
            inp.width, inp.height,
        )

    # tracemalloc slows the calls it watches, so memory is a separate pass
    with tr.span("op.memory"):
        enc_peak = tr.call("mem.crypto.encrypt", _peak_mib, hf.encrypt, bits, codec, ks)
        dec_peak = tr.call(
            "mem.crypto.decrypt", _peak_mib, hf.decrypt, cipher, codec, ks, len(bits)
        )

    counts = exact_counts(fm, rm, codec, parse_steps, padded, trace, cipher, bits)
    checks["keystream replay"] = replay_same and draws == counts["crypto.keystream_draws"]
    checks["exact counts"] = counts == expect["counts"]
    if not checks["exact counts"]:
        for name, value in counts.items():
            if expect["counts"].get(name) != value:
                print(
                    f"count {name}: {value!r}, pinned {expect['counts'].get(name)!r}",
                    file=sys.stderr,
                )

    metrics = {f"{name}_s": tr.seconds(name) for name in TIMED_SPANS}
    metrics.update((k, v) for k, v in counts.items() if k != "cipher_ratio")
    metrics["crypto.encrypt_peak_mib"] = enc_peak
    metrics["crypto.decrypt_peak_mib"] = dec_peak
    metrics.update((f"{layer}.self_s", s) for layer, s in tr.self_seconds().items())
    return tr, metrics, checks

"""Write pins.json: the known answers every benchmark run is checked against.

For each workload and input variant it records the sha256 of the container
`hfsac encode` must write, the sha256 of the report `hfsac analyze` must
print, and the exact counts the traced run must reproduce.  Computed
in-process from the code as it stands; rerun only when a change is meant
to alter ciphertexts, and say so.

    python3 perfbench/pin.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import hfsac as hf  # noqa: E402

from traced import exact_counts  # noqa: E402
from workloads import (  # noqa: E402
    KEY_HEX, PINS_PATH, SETUP_INPUT, VARIANTS, WORKLOADS,
    make_inputs, pgm_pixels, sha256,
)


def main() -> None:
    key = int(KEY_HEX, 16)
    pins = {"key": KEY_HEX, "variants": VARIANTS, "workloads": {}}
    for w in WORKLOADS.values():
        params = hf.CoderParams(w.n_bits, w.p0_num, w.f_max, w.jump_q)
        fm = hf.build_full_fsm(params)
        rm = hf.reduce_machine(fm)
        codec = hf.attach_tables(rm)
        ks = hf.KeySchedule(key, w.jump_q)

        def encode(bits: str):
            cipher, trace = hf.encrypt(bits, codec, ks)
            blob = hf.serialize(hf.CipherContainer(params, len(bits), cipher))
            return sha256(blob), cipher, trace

        entry = {"setup_sha256": encode(hf.unpack_bits(SETUP_INPUT))[0], "variants": {}}
        for variant in w.variants():
            inp = make_inputs(w, variant)
            bits = hf.unpack_bits(pgm_pixels(inp.plain) if inp.is_pgm else inp.plain)
            digest, cipher, trace = encode(bits)
            parse_steps, padded = hf.fsac_parse(bits, rm)
            report = hf.analyze_image(hf.parse_pgm(inp.analyze_pgm), params, key)
            entry["variants"][str(variant)] = {
                "encode_sha256": digest,
                "analyze_sha256": sha256(report.to_text().encode()),
                "counts": exact_counts(
                    fm, rm, codec, parse_steps, padded, trace, cipher, bits
                ),
            }
            print(f"{w.name} variant {variant}: pinned", flush=True)
        pins["workloads"][w.name] = entry
    with open(PINS_PATH, "w", encoding="ascii") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()

"""Words longer than the 8-bit window, near the end of a stream.

A long input block or codeword is resolved through the window index's
child nodes, reading the windows 8, 16, ... bits further on; windows past
the end of the stream read as 0, the zero padding of the final block.
(8, 1, 3) and (10, 1, 3) have one state with blocks of up to 128 and 512
bits, (10, 1, 3) also codewords of 10 bits, and (9, 150, 3) both kinds on
5,031 states; under keyed jumps its parse reads past the end at some of
the lengths below.  `TestDecrypt::test_every_cut_raises` covers the read
past the end of a cut ciphertext.
"""

import numpy as np
import pytest

from hfsac import prefix
from hfsac import (
    KeySchedule,
    decrypt,
    encrypt,
    fsac_parse,
    hfac_decode,
    hfac_encode,
    swap_codeword,
)
from conftest import rand_bits, reference_parse


@pytest.mark.parametrize("n,p0,fm", [(8, 1, 3), (10, 1, 3), (9, 150, 3)])
def test_long_words_at_stream_end(cache, n, p0, fm):
    codec = cache.codec(n, p0, fm)
    rm = codec.rm
    assert max(rm.inputs.lengths.max(), codec.outputs.lengths.max()) > 8
    for p0 in (0.02, 0.5, 0.98):
        for length in range(141):
            bits = rand_bits(length, length, p0)
            ks = KeySchedule(0x5EED + length, 128)
            cipher, _ = encrypt(bits, codec, ks)
            assert decrypt(cipher, codec, ks, length) == bits
            code = hfac_encode(bits, codec)
            assert hfac_decode(code, codec, length) == bits
            steps, padded = fsac_parse(bits, rm)
            assert (steps, padded) == reference_parse(rm, bits)


@pytest.mark.parametrize("n,p0,fm", [(7, 44, 10), (10, 1, 3)])
def test_gather_matches_word_text(cache, n, p0, fm):
    # row counts on both sides of the slice-per-word path's limit
    codec = cache.codec(n, p0, fm)
    rm = codec.rm
    blocks = [t.input_block for ts in rm.transitions for t in ts]
    codewords = [w for table in codec.tables for w in table.codewords]
    rng = np.random.default_rng(n)
    few = prefix._FEW_ROWS
    for k in (0, 1, few, few + 1, 3 * few):
        rows = rng.integers(0, len(blocks), k).astype(np.int32)
        got = rm.inputs.gather(rows)
        assert "".join(map(str, got.tolist())) == "".join(blocks[r] for r in rows)
        swap_pos = rng.integers(0, 12, k).astype(np.int32)
        got = codec.outputs.gather(rows, swap_pos)
        want = "".join(swap_codeword(codewords[r], p) for r, p in zip(rows, swap_pos))
        assert "".join(map(str, got.tolist())) == want

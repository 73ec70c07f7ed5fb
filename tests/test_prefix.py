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

import ctypes
import functools
import hashlib
import os
import re
import shutil
import stat
import subprocess
import tempfile

import numpy as np
import pytest

from hfsac import prefix
from hfsac import (
    Bits,
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
    codec = cache.codec(n, p0, fm)
    rm = codec.rm
    blocks = [t.input_block for ts in rm.transitions for t in ts]
    codewords = [w for table in codec.tables for w in table.codewords]
    rng = np.random.default_rng(n)
    for k in (0, 1, 16, 17, 48):
        rows = rng.integers(0, len(blocks), k).astype(np.int32)
        got = rm.inputs.gather(rows)
        assert "".join(map(str, got.tolist())) == "".join(blocks[r] for r in rows)
        swap_pos = rng.integers(0, 12, k).astype(np.int32)
        got = codec.outputs.gather(rows, swap_pos)
        want = "".join(swap_codeword(codewords[r], p) for r, p in zip(rows, swap_pos))
        assert "".join(map(str, got.tolist())) == want


@pytest.mark.parametrize("pass_bits", [1, 37, 1 << 10])
def test_gather_in_passes(cache, monkeypatch, pass_bits):
    # passes of one word, of a few words, and of hundreds of bits, against
    # the words' text; a pass always takes at least one whole word
    monkeypatch.setattr(prefix, "_PASS_BITS", pass_bits)
    codec = cache.codec(10, 1, 3)
    rm = codec.rm
    blocks = [t.input_block for ts in rm.transitions for t in ts]
    codewords = [w for table in codec.tables for w in table.codewords]
    rng = np.random.default_rng(pass_bits)
    rows = rng.integers(0, len(blocks), 300).astype(np.int32)
    got = rm.inputs.gather(rows)
    assert "".join(map(str, got.tolist())) == "".join(blocks[r] for r in rows)
    swap_pos = rng.integers(0, 12, len(rows)).astype(np.int32)
    got = codec.outputs.gather(rows, swap_pos)
    want = "".join(swap_codeword(codewords[r], p) for r, p in zip(rows, swap_pos))
    assert "".join(map(str, got.tolist())) == want


def test_index_size_cap(monkeypatch):
    # "0" and a 17-bit word: a root node, a width-8 child and a width-1
    # grandchild, 514 entries; a child link holds at most _MAX_ENTRIES
    long_word = prefix.bit_string(17, 1 << 16 | 0x1234)
    layout = np.array([0, 2]), np.zeros(2, np.int32)
    bits = [0] + [int(b) for b in long_word]
    monkeypatch.setattr(prefix, "_MAX_ENTRIES", 514)
    table = prefix.PrefixTable(*layout, [1, 17], bits)
    assert len(table.index) == 514
    data = Bits.from_text(long_word).data
    assert _lookup(table, data, 0, 0) == 1
    monkeypatch.setattr(prefix, "_MAX_ENTRIES", 513)
    with pytest.raises(ValueError, match="over 513 entries"):
        prefix.PrefixTable(*layout, [1, 17], bits).index


@pytest.mark.parametrize("n_bits", [2, 4])
def test_bits_must_be_the_words_long(n_bits):
    # words "0" and "10": three bits in row order
    layout = np.array([0, 2]), np.zeros(2, np.int32)
    with pytest.raises(ValueError, match="not as long as the words"):
        prefix.PrefixTable(*layout, [1, 2], np.zeros(n_bits, np.uint8))


def _lookup(table, data, state, pos, swap_pos=None):
    """Row that one step of the step loop matches at bit `pos` of the bytes
    `data` in `state`, its words complemented from `swap_pos` on where
    given, or -1.  Every modulus is 2**64 - 1, so the swap position is the
    draw."""
    draws = None if swap_pos is None else np.array([swap_pos], np.uint64)
    rows = _one_step_loop(table).match_block(data, len(data), pos, 0, [state], draws)
    return int(rows[0]) if len(rows) else -1


@functools.lru_cache
def _one_step_loop(table):
    """The step loop of `_lookup` over `table`, built once per table: next
    states 0 and every modulus 2**64 - 1."""
    rows, states = len(table.lengths), len(table._row_base) - 1
    moduli = np.full(states, 2**64 - 1, np.uint64)
    return prefix.StepLoop(table, np.zeros(rows, np.int32), moduli)


def _scan(words, first, stream, swap_pos):
    """Row of the word that prefixes `stream`, zero-padded, by a scan; the
    words complemented from `swap_pos` on where given."""
    for r, word in enumerate(words):
        if swap_pos is not None:
            word = swap_codeword(word, swap_pos)
        if (stream + "0" * len(word)).startswith(word):
            return first + r
    return -1


# child widths of the (input block, codeword) indexes; (10, 1, 3) chains 63
# width-8 nodes under its one state's 512-bit blocks
CHILD_WIDTHS = {
    (7, 44, 10): ({1, 2, 3, 4, 5, 6, 7, 8}, {1, 2, 3, 4, 5, 6, 7, 8}),
    (9, 150, 3): ({1, 2, 3, 4, 5, 6, 7, 8}, {1, 2, 3, 4, 5}),
    (10, 1, 3): ({8}, {2}),
}


@pytest.mark.parametrize(
    "n,p0,fm",
    [pytest.param(*m, marks=pytest.mark.slow) if m == (9, 150, 3) else m for m in CHILD_WIDTHS],
)
def test_sized_child_nodes_match_a_scan(cache, n, p0, fm):
    # In every state: a stream that starts with one of its words, one cut
    # inside a word and one of random bits, each after 0-7 bits of junk;
    # unswapped and swapped from a position on either side of the window.
    codec = cache.codec(n, p0, fm)
    tables = [
        (codec.rm.inputs, [t.input_block for ts in codec.rm.transitions for t in ts]),
        (codec.outputs, [w for table in codec.tables for w in table.codewords]),
    ]
    rng = np.random.default_rng(n)
    for (table, all_words), want_widths in zip(tables, CHILD_WIDTHS[n, p0, fm]):
        index = np.asarray(table.index)
        links = -2 - index[index < -1]
        assert set((prefix.WINDOW_BITS - (links & 7)).tolist()) == want_widths
        base = codec.rm.row_base.tolist()
        for state in range(len(base) - 1):
            words = all_words[base[state] : base[state + 1]]
            longest = max(map(len, words))
            for trial in range(6):
                swap_pos = int(rng.integers(longest + 2)) if trial >= 3 else None
                word = words[rng.integers(len(words))]
                if swap_pos is not None:
                    word = swap_codeword(word, swap_pos)
                tail = (
                    word + rand_bits(state, int(rng.integers(12))),
                    word[: int(rng.integers(len(word) + 1))],
                    rand_bits(state + 1, int(rng.integers(2 * longest))),
                )[trial % 3]
                junk = rand_bits(trial, int(rng.integers(8)))
                data = Bits.from_text(junk + tail).data
                got = _lookup(table, data, state, len(junk), swap_pos)
                assert got == _scan(words, base[state], tail, swap_pos), (state, trial)


# per codec: the byte size and sha256 of the window index of its input
# blocks, then of its codewords; (9, 150, 3) held 9.3 / 9.5 MiB with
# 256-entry child nodes
INDEX_LAYOUT = {
    (7, 44, 10): (
        (582_752, "b99be540eefcbb46c37581fa86d316dcff18676f307d826fbbe509815234a57b"),
        (488_368, "a8139326598bf0fa5bdcfd488d36302d8176fa3fb9988013dc1de18d56b38076"),
    ),
    (9, 150, 3): (
        (6_086_712, "8fdfde0497c90e2a229fa5774123c60d1f1ea2f74d29100225fb99d8f05c1b78"),
        (5_279_136, "180072bfc15b89a3673710ac7527e3764a1dbd1908ec39baa321fb756889c0f1"),
    ),
    (10, 1, 3): (
        (65_536, "16ae21d6db85902b5dd4bee9e7e3015670da6cdde9663e6a7146ab5235e9d6fc"),
        (3_072, "6265805516289408ff835f28209aef22c1da3db328256700077db7999811c18c"),
    ),
    (12, 1, 3): (
        (262_144, "58d150cb5cedd377b3f5a336547a0241b087a568647f4fc759d40713d811e031"),
        (9_216, "873d73841b10b8e437c9e6ac18dce6a69dcfee79380737c52b30cff278138f8f"),
    ),
}


@pytest.mark.parametrize("n,p0,fm", list(INDEX_LAYOUT))
def test_child_node_sizes(cache, n, p0, fm):
    codec = cache.codec(n, p0, fm)
    got = tuple(
        (table.index.nbytes, hashlib.sha256(np.asarray(table.index).tobytes()).hexdigest())
        for table in (codec.rm.inputs, codec.outputs)
    )
    assert got == INDEX_LAYOUT[n, p0, fm]


def test_read_only_package_builds_in_a_private_folder(tmp_path, monkeypatch):
    # the package's __pycache__ cannot be written: the step loop is built in
    # a folder of this user's own under the temporary directory, and a
    # folder that others may write is refused
    package, temp = tmp_path / "package", tmp_path / "temp"
    package.mkdir()
    temp.mkdir()
    shutil.copy(prefix._SOURCE, package)
    monkeypatch.setattr(prefix, "_SOURCE", str(package / "_walk.c"))
    monkeypatch.setattr(tempfile, "tempdir", str(temp))
    access = os.access
    cache = str(package / "__pycache__")
    monkeypatch.setattr(os, "access", lambda path, mode: path != cache and access(path, mode))
    source = (package / "_walk.c").read_bytes()
    path = prefix._library(source)
    folder = temp / f"hfsac-{os.getuid()}"
    assert os.path.dirname(path) == str(folder) and os.listdir(folder) == [os.path.basename(path)]
    assert stat.S_IMODE(folder.stat().st_mode) == 0o700
    assert os.listdir(cache) == []
    folder.chmod(0o777)
    os.remove(path)
    with pytest.raises(prefix.KernelBuildError, match="not private to this user"):
        prefix._library(source)


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_kernels_compile_without_warnings(tmp_path):
    # the shipped flags stay as they are; this build only lints the source
    done = subprocess.run(
        ["cc", "-Wall", "-Wextra", "-Werror", *prefix._CFLAGS, prefix._SOURCE,
         "-o", str(tmp_path / "kernels.so")],
        capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr


def test_every_kernel_is_typed():
    # an untyped ctypes call passes and returns C int, which cuts an int64
    # or a pointer: every function _walk.c exports has the types of its C
    # signature, each pointer as c_void_p
    with open(prefix._SOURCE) as f:
        source = f.read()
    c_types = {"int": ctypes.c_int, "int64_t": ctypes.c_int64}
    defined = re.findall(r"^(int|int64_t) (\w+)\(([^)]*)\)\s*\{", source, re.M)
    assert {name for _, name, _ in defined} == {
        "walk_block", "explore", "huffman_lengths", "kraft_words",
    }
    # no definition of another form: every line that starts one, static aside
    assert len(defined) == len(re.findall(r"^(?!static)\w[^(]*\(", source, re.M))
    lib = prefix.kernel()
    for returns, name, params in defined:
        function = getattr(lib, name)
        argtypes = [
            ctypes.c_void_p if "*" in p else c_types[p.split()[0]] for p in params.split(",")
        ]
        assert function.argtypes == argtypes, name
        assert function.restype is c_types[returns], name


def test_failed_build_leaves_no_file(tmp_path, monkeypatch):
    # a compiler that fails: its error is raised, and no part file is left
    monkeypatch.setattr(prefix, "_compiler", lambda: shutil.which("false"))
    path = str(tmp_path / "_walk-0.so")
    with pytest.raises(prefix.KernelBuildError, match="false failed on _walk.c"):
        prefix._build(b"", path)
    assert os.listdir(tmp_path) == []

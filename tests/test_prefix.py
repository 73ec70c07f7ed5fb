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
import sys
import tempfile

import numpy as np
import pytest

from hfsac import prefix
from hfsac import (
    Bits,
    BitWriter,
    KeySchedule,
    decrypt,
    encrypt,
    fsac_parse,
    hfac_decode,
    hfac_encode,
    swap_codeword,
)
from conftest import SWEEP, rand_bits, reference_index, reference_parse


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


def _emitted(codec, rows, swap_pos=None, decode=False, block=None, cut=0) -> str:
    """What the step loop emits for `rows`, as text: their codewords,
    complemented from `swap_pos` on where given, or with `decode` their
    input blocks with the last `cut` bits cut off by the limit.  The stream
    is the words the steps match, each step jumps to its row's state, and
    the steps run `block` at a time, into one writer."""
    rm = codec.rm
    match, emit = (codec.outputs, rm.inputs) if decode else (rm.inputs, codec.outputs)
    stream = "".join("".join(map(str, match.word(r).tolist())) for r in rows)
    moduli = None if swap_pos is None else np.full(rm.state_count, 2**64 - 1, np.uint64)
    fed = rm.inputs.lengths
    loop = prefix.StepLoop(match, rm.next_state, fed, emit, moduli, decode, len(rows))
    data = Bits.from_text(stream).data + bytes(-(-match.longest // 8) + 2)
    limit = int(rm.block_len[rows].sum()) - cut
    buf = bytearray()
    out = BitWriter(buf.extend)
    for a in range(0, len(rows), block or max(len(rows), 1)):
        m = min(block or len(rows), len(rows) - a)
        loop.targets[:m] = rm.row_state[rows[a : a + m]]
        if swap_pos is not None:
            loop.draws[:m] = swap_pos[a : a + m]
        assert loop.run(data, loop.frame[0], len(stream), m, limit, out) == 0
    assert loop.frame[4] == len(rows)
    return Bits(buf, out.flush()).to_text()


@pytest.mark.parametrize("n,p0,fm", [(7, 44, 10), (10, 1, 3)])
def test_emit_matches_word_text(cache, n, p0, fm):
    # every word, swapped and unswapped; (10, 1, 3)'s input blocks run to
    # 512 bits
    codec = cache.codec(n, p0, fm)
    rm = codec.rm
    blocks = [t.input_block for ts in rm.transitions for t in ts]
    codewords = [w for table in codec.tables for w in table.codewords]
    rng = np.random.default_rng(n)
    for k in (0, 1, 16, 17, 48):
        rows = rng.integers(0, len(blocks), k)
        assert _emitted(codec, rows, decode=True) == "".join(blocks[r] for r in rows)
        swap_pos = rng.integers(0, 12, k)
        want = "".join(swap_codeword(codewords[r], p) for r, p in zip(rows, swap_pos))
        assert _emitted(codec, rows, swap_pos) == want
        assert _emitted(codec, rows) == "".join(codewords[r] for r in rows)
    rows = np.arange(len(blocks))
    assert _emitted(codec, rows, decode=True) == "".join(blocks)
    assert _emitted(codec, rows, np.zeros(len(rows), np.uint64)) == "".join(
        swap_codeword(w, 0) for w in codewords
    )


@pytest.mark.parametrize("block", [1, 37, 1024])
def test_emit_across_blocks(cache, block):
    # blocks of one step, of a few and of hundreds, whose bits carry over
    # unfinished bytes, against the words' text; a decode's last block is
    # cut at the limit
    codec = cache.codec(10, 1, 3)
    rm = codec.rm
    blocks = [t.input_block for ts in rm.transitions for t in ts]
    codewords = [w for table in codec.tables for w in table.codewords]
    rng = np.random.default_rng(block)
    rows = rng.integers(0, len(blocks), 300)
    text = "".join(blocks[r] for r in rows)
    assert _emitted(codec, rows, decode=True, block=block) == text
    for cut in (1, 7, len(blocks[rows[-1]]) - 1):
        assert _emitted(codec, rows, decode=True, block=block, cut=cut) == text[:-cut]
    swap_pos = rng.integers(0, 12, len(rows))
    want = "".join(swap_codeword(codewords[r], p) for r, p in zip(rows, swap_pos))
    assert _emitted(codec, rows, swap_pos, block=block) == want


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


def _one_state(words):
    """A one-state table of the '0'/'1' `words`, in that row order."""
    layout = np.array([0, len(words)]), np.zeros(len(words), np.int32)
    bits = [int(b) for w in words for b in w]
    return prefix.PrefixTable(*layout, [len(w) for w in words], bits)


@pytest.mark.parametrize("n,p0,fm", [*SWEEP, (9, 150, 3), (10, 1, 3), (12, 1, 3)])
def test_index_matches_the_numpy_rounds(cache, n, p0, fm):
    # input blocks come in lexicographic order, codewords in canonical order
    codec = cache.codec(n, p0, fm)
    for table in (codec.rm.inputs, codec.outputs):
        want = reference_index(table)
        assert table.index.dtype == want.dtype and np.array_equal(table.index, want)


@pytest.mark.parametrize(
    "words",
    [
        # long words out of lexicographic order, and in order with children
        # that part at the second level
        ["1" * 20 + "0", "0", "1" * 9 + "0" * 3, "1" * 20 + "1", "10", "1" * 8 + "0", "110"],
        ["0", "10", "110", "1110", "11110", *(f"11111000{b * 8}{c}" for b in "01" for c in "01"),
         "11111001", "1111101", "111111"],
    ],
    ids=["unordered", "ordered"],
)
def test_hand_built_index_matches_the_numpy_rounds(words):
    table = _one_state(words)
    want = reference_index(table)
    assert np.array_equal(table.index, want)


NOT_PREFIX = {
    "short in short": ["0", "01", "1"],
    "short in long": ["0", "0" * 12, "1"],
    "long twice": ["1" * 12, "1" * 12, "0"],
    "long in longer": ["1" * 10, "1" * 20, "0"],
    "long in longer, out of order": ["0", "1" * 20, "1" * 10],
}


@pytest.mark.parametrize("words", NOT_PREFIX.values(), ids=list(NOT_PREFIX))
def test_non_prefix_codes_raise(words):
    with pytest.raises(ValueError, match="not a prefix code"):
        reference_index(_one_state(words))
    with pytest.raises(ValueError, match="not a prefix code"):
        _one_state(words).index


def test_entry_limit_matches_the_numpy_rounds(cache, monkeypatch):
    # (10, 1, 3)'s input index has 16,384 entries: at the limit it builds,
    # one entry under it raises, on both sides
    table = cache.reduced(10, 1, 3).inputs
    columns = table._row_base, table._row_state, table.lengths, table._bits
    size = len(reference_index(table, 16_384))
    assert size == 16_384
    monkeypatch.setattr(prefix, "_MAX_ENTRIES", size)
    assert len(prefix.PrefixTable(*columns).index) == size
    monkeypatch.setattr(prefix, "_MAX_ENTRIES", size - 1)
    with pytest.raises(ValueError, match=f"over {size - 1} entries"):
        reference_index(table, size - 1)
    with pytest.raises(ValueError, match=f"over {size - 1} entries"):
        prefix.PrefixTable(*columns).index


@pytest.mark.parametrize("n_bits", [2, 4])
def test_bits_must_be_the_words_long(n_bits):
    # words "0" and "10": three bits in row order
    layout = np.array([0, 2]), np.zeros(2, np.int32)
    with pytest.raises(ValueError, match="not as long as the words"):
        prefix.PrefixTable(*layout, [1, 2], np.zeros(n_bits, np.uint8))


def _lookup(table, data, state, pos, swap_pos=None):
    """Row that one decode step of the step loop matches at bit `pos` of the
    bytes `data` in `state`, its words complemented from `swap_pos` on where
    given, or -1.  Every modulus is 2**64 - 1, so the swap position is the
    draw, 2**62 (past every word) where none is given.  `data` is padded as
    a walk's byte buffer is, and its end lies past the padding, so that the
    step reads the stream zero-padded: no word runs past it."""
    loop = _one_step_loop(table)
    loop.targets[0] = state
    loop.draws[0] = 2**62 if swap_pos is None else swap_pos
    padded = data + bytes(-(-table.longest // 8) + 2)
    failed = loop.run(padded, pos, 8 * len(padded), 1, 2**62)
    return -1 if failed else int(loop.rows[0])


@functools.lru_cache
def _one_step_loop(table):
    """The step loop of `_lookup` over `table`, built once per table: next
    states 0 and every modulus 2**64 - 1."""
    rows, states = len(table.lengths), len(table._row_base) - 1
    moduli = np.full(states, 2**64 - 1, np.uint64)
    next_state = np.zeros(rows, np.int32)
    return prefix.StepLoop(table, next_state, table.lengths, None, moduli, True, 1)


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
    c_types = {
        "int": ctypes.c_int, "int64_t": ctypes.c_int64, "uint64_t": ctypes.c_uint64, "void": None,
    }
    defined = re.findall(r"^(int|int64_t|uint64_t|void) (\w+)\(([^)]*)\)\s*\{", source, re.M)
    assert {name for _, name, _ in defined} == {
        "splitmix", "draw_block", "walk_block", "explore",
        "huffman_lengths", "kraft_words", "reduce_rows", "window_index",
    }
    # no definition of another form: every line that starts one, static aside
    assert len(defined) == len(re.findall(r"^(?!static)\w[^(\n]*\(", source, re.M))
    lib = prefix.kernel()
    for returns, name, params in defined:
        function = getattr(lib, name)
        argtypes = [
            ctypes.c_void_p if "*" in p else c_types[p.split()[0]] for p in params.split(",")
        ]
        assert function.argtypes == argtypes, name
        assert function.restype is c_types[returns], name


# run in a child that loads the sanitized kernels: every kernel on codecs
# whose columns, rows and (on (9, 150, 3)) exploration arrays grow, both
# indexes, a keyed round trip, the decodes an attacker reaches, each ending
# in its error class, and each build kernel's error return
SANITIZED_RUN = """
import sys
import numpy as np
from hfsac import coder, prefix
prefix._library = lambda source: sys.argv[1]
from hfsac import (
    CoderParams, CorruptStreamError, KeySchedule, NonEmittingCycleError, StateExplosionError,
    TruncatedStreamError, WrongKeyError, build_codec, build_full_fsm, decrypt, encrypt,
    hfac_decode, reduce_machine,
)
from conftest import full_from_rows, rand_bits

def fails(errors, decode, *args):
    try:
        decode(*args)
    except errors:
        return
    raise AssertionError(f"{args[2:]} decoded without {errors}")

refused = (WrongKeyError, TruncatedStreamError)
for n, p0, fm in [(7, 44, 10), (9, 150, 3), (10, 1, 3), (12, 1, 3)]:
    codec = build_codec(CoderParams(n, p0, fm))
    codec.rm.inputs.index, codec.outputs.index
    bits = rand_bits(n, 3000, 0.3)
    ks = KeySchedule(0x5EED + n, 128)
    cipher, _ = encrypt(bits, codec, ks)
    assert decrypt(cipher, codec, ks, len(bits)) == bits
    # a wrong key, random bits, a cut cipher and n_bits past the cipher's
    noise = rand_bits(n + 1, len(cipher), 0.5)
    fails(refused, decrypt, cipher, codec, KeySchedule(0x5EED + n + 1, 128), len(bits))
    fails(refused, decrypt, noise, codec, ks, len(bits))
    fails(TruncatedStreamError, decrypt, cipher[: len(cipher) // 2], codec, ks, len(bits))
    fails(TruncatedStreamError, decrypt, cipher, codec, ks, len(bits) + 64)
    fails(CorruptStreamError, hfac_decode, noise, codec, len(bits))
coder.STATE_CEILING = 5000
try:
    build_full_fsm(CoderParams(9, 150, 3))
    raise AssertionError("no StateExplosionError")
except StateExplosionError:
    pass
params = CoderParams(3, 3, 1)
edges = [("", 1), ("1", 0), ("", 2), ("1", 0), ("", 1), ("0", 0)]
cycle = full_from_rows(params, [(0, 8, f) for f in range(3)], edges)
try:
    reduce_machine(cycle)
    raise AssertionError("no NonEmittingCycleError")
except NonEmittingCycleError:
    pass
for words, limit in ((["0", "0" * 12, "1"], prefix._MAX_ENTRIES), (["0", "1" * 17], 513)):
    prefix._MAX_ENTRIES = limit
    bits = [int(b) for w in words for b in w]
    table = prefix.PrefixTable(np.array([0, 2]), np.zeros(2, np.int32), list(map(len, words)), bits)
    try:
        table.index
        raise AssertionError("no ValueError")
    except ValueError:
        pass
print("clean")
"""


def _asan_runtime() -> str | None:
    """Path of the compiler's AddressSanitizer runtime, or None."""
    cc = shutil.which("cc")
    if cc is None:
        return None
    done = subprocess.run([cc, "-print-file-name=libasan.so"], capture_output=True, text=True)
    path = done.stdout.strip()
    return path if os.path.isabs(path) and os.path.exists(path) else None


def test_kernels_run_clean_under_sanitizers(tmp_path):
    # every kernel writes into arrays that Python allocates: an ASan and
    # UBSan build of _walk.c, loaded in a child that preloads the ASan
    # runtime (the interpreter is not built with it), aborts on the first
    # bad access or undefined operation
    runtime = _asan_runtime()
    if runtime is None:
        pytest.skip("libasan does not resolve")
    lib = tmp_path / "kernels-asan.so"
    flags = ["-O1", "-g", "-fsanitize=address,undefined", "-fno-sanitize-recover=all"]
    done = subprocess.run(
        ["cc", *flags, "-shared", "-fPIC", prefix._SOURCE, "-o", str(lib)],
        capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    env = {**os.environ, "LD_PRELOAD": runtime, "ASAN_OPTIONS": "detect_leaks=0"}
    env["PYTHONPATH"] = os.pathsep.join([os.path.dirname(__file__), env["PYTHONPATH"]])
    done = subprocess.run(
        [sys.executable, "-c", SANITIZED_RUN, str(lib)], env=env, capture_output=True,
        text=True, timeout=600,
    )
    assert done.returncode == 0 and done.stdout.split() == ["clean"], done.stderr[-4000:]


def test_failed_build_leaves_no_file(tmp_path, monkeypatch):
    # a compiler that fails: its error is raised, and no part file is left
    monkeypatch.setattr(prefix, "_compiler", lambda: shutil.which("false"))
    path = str(tmp_path / "_walk-0.so")
    with pytest.raises(prefix.KernelBuildError, match="false failed on _walk.c"):
        prefix._build(b"", path)
    assert os.listdir(tmp_path) == []

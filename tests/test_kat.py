"""Known-answer vectors for the codec tables and for encrypt/decrypt.

Each encrypt case pins the sha256 of the ciphertext, of the trace columns
and of the decrypt output for one (codec, jump rate, key schedule,
plaintext).  The digests were taken from the per-step reference loops the
step engine replaced, so any change to a ciphertext, a keystream draw or
the parse shows here.  The plaintext carries long runs of ones and zeros:
on the two larger codecs some input blocks and some emitted codewords are
longer than the 8-bit match window, so the long-entry lookup runs in both
directions.

The table digests cover every row (state, input block, output bits,
codeword, next state) of five codecs.  The first three were taken from the
build that composed mute chains per reduced state and ran Huffman merging
on `Fraction` weights, so the reducer and the integer-weight tables are
held to that reference row for row.  The two skewed (n, 1, 3) codecs, one
state with blocks of up to 2**(n - 1) bits, and the full-machine and origin
digests were taken from the per-object build that preceded the columnar
one.
"""

import hashlib

import pytest

from hfsac import coder
from hfsac import (
    CoderParams,
    KeySchedule,
    SplitMix64,
    StateExplosionError,
    bernoulli_bits,
    build_codec,
    build_full_fsm,
    decrypt,
    encrypt,
    reduce_machine,
)
from hfsac.crypto import TAG_STATE, TAG_SWAP
from hfsac.prefix import WINDOW_BITS, bit_string
from conftest import SWEEP, build_state_code, heuristic_weights

SEED = 0x0123456789ABCDEF
TWEAKS = ((TAG_STATE, 1 << 63), (TAG_SWAP, 0x5A5A))


def plain(long_input: bool) -> str:
    gen = SplitMix64(0x6B6174)
    bits = "".join(
        [
            bernoulli_bits(gen, 1200, 0.5),
            "1" * 48,
            bernoulli_bits(gen, 800, 0.25),
            "0" * 48,
            bernoulli_bits(gen, 800, 0.75),
            "1" * 33,
            "0" * 17,
        ]
    )
    # the long input (~10.5k steps) spans two keystream blocks of the engine
    return bits * 3 + bernoulli_bits(gen, 12_000, 0.5) if long_input else bits


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def trace_text(trace) -> str:
    return "".join(
        f"{int(r.jumped)} {r.state} {r.transition} {r.swap_pos}\n" for r in trace
    )


# (codec params, jump q, tweaked schedule, long input)
CASES = [
    (params, q, False, False)
    for params in ((4, 3, 1), (7, 44, 10), (9, 150, 3))
    for q in (0, 128, 230, 256)
] + [
    ((7, 44, 10), 230, True, False),
    ((7, 44, 10), 230, False, True),
]

# (cipher, trace, decrypt output) digests
EXPECTED = {
    ((4, 3, 1), 0, False, False): (
        "e26e1475882daddceb7c90a50f5b37aca3c5f71e42dfa5fdb284ca5a2d2115ad",
        "404791a5fbef92895869524610284b82a734a6feda27228641968f7bf2bd05c4",
        "7e5880c81d8314944761825987b9af14dd3edaf057e4c5a4b822aaf2edb72292",
    ),
    ((4, 3, 1), 128, False, False): (
        "8e1af66f9a2775c6a08399e593cf34b76dd35b0db79820b76acd3579fb445c32",
        "458e4171c35fc82b40fd3decc7db3346f14b77547ff2383e90d43ef6f265e105",
        "7e5880c81d8314944761825987b9af14dd3edaf057e4c5a4b822aaf2edb72292",
    ),
    ((4, 3, 1), 230, False, False): (
        "67de1251c5988fdf253febd0fcd5d344cd90692c304d10610a1765459184fe85",
        "657710eaa889df677c13d2de2b599f9d2f4d8ae1f6d40bfbbfeaaa74c8c8cf85",
        "7e5880c81d8314944761825987b9af14dd3edaf057e4c5a4b822aaf2edb72292",
    ),
    ((4, 3, 1), 256, False, False): (
        "f2ddc4eaecff088cd681c19bfc5da0221d5fdc197f09214f1f4db8486f6364bb",
        "1384eefc52598236915a33eafcac746ffb4af544692043c06f22b23315d00d6c",
        "7e5880c81d8314944761825987b9af14dd3edaf057e4c5a4b822aaf2edb72292",
    ),
    ((7, 44, 10), 0, False, False): (
        "7d00b40cdc9bf4ddd724d70143fd0afe25705ab898a063f65b39896bb39816a4",
        "62a80fccb43fd0d99ed7a9d9f6707c8e0314dbde9a66ba5d742d4c3cefbdae67",
        "7e5880c81d8314944761825987b9af14dd3edaf057e4c5a4b822aaf2edb72292",
    ),
    ((7, 44, 10), 128, False, False): (
        "a9292411221ed235117b36f8c5aeb171cbfe04fb0cc7d6143e58eb365f57cc0a",
        "78651a43d953fd33445f005e17d15c08356a2922306b2327f71192244a06e2e4",
        "7e5880c81d8314944761825987b9af14dd3edaf057e4c5a4b822aaf2edb72292",
    ),
    ((7, 44, 10), 230, False, False): (
        "d127777d757f0e1fecd1d297d0cb0eb6768778dcef99b5635278b6dfbb0f7857",
        "9fcf6904c5f8abe174663f1e2f2a02d7212cbab3aabf6a8fa9ccaf10e14b276e",
        "7e5880c81d8314944761825987b9af14dd3edaf057e4c5a4b822aaf2edb72292",
    ),
    ((7, 44, 10), 256, False, False): (
        "ee65c7bd60eaf9cf44d08b55b397d395a511612fa858d59f7333931e6ca03220",
        "f4cde6eb9563cc9c140ae5ba3126cf865a36d302c15e2ea0f91901f323400cbd",
        "7e5880c81d8314944761825987b9af14dd3edaf057e4c5a4b822aaf2edb72292",
    ),
    ((9, 150, 3), 0, False, False): (
        "3a578d709ab2b7adbf5f2b25d9bfcf65aaf69ce352b862dc6f56aec67bca43af",
        "4ed0421b751c80adfc0ec7eacedd785d388aacd4d1804f47ac86c2a91363bfad",
        "7e5880c81d8314944761825987b9af14dd3edaf057e4c5a4b822aaf2edb72292",
    ),
    ((9, 150, 3), 128, False, False): (
        "fad5c256bcbcf71a56a004f29ea8336f1a601cb8fb4b261b7771887754f2c949",
        "8de3317f00a3462792725c096a2f7efd0b6b14a85d3608b9f5940357d503dfff",
        "7e5880c81d8314944761825987b9af14dd3edaf057e4c5a4b822aaf2edb72292",
    ),
    ((9, 150, 3), 230, False, False): (
        "979dc1a92c013033c90549ca12f5c9d6c31dfd5c12ded5a3440604ced049882d",
        "13c6f7e15bcab98f213f51dc7c6e86a96f3b7b93a52f7243e2ef8f9f9f257442",
        "7e5880c81d8314944761825987b9af14dd3edaf057e4c5a4b822aaf2edb72292",
    ),
    ((9, 150, 3), 256, False, False): (
        "ea6baa8c6a5fb47138e263ab262272163c288c39e94ddce2d03caea2b26c97d3",
        "4317eefa90e587dbbbf5d84702162823b534df4840c62fc2c5890e738da1416f",
        "7e5880c81d8314944761825987b9af14dd3edaf057e4c5a4b822aaf2edb72292",
    ),
    ((7, 44, 10), 230, True, False): (
        "a4b03939f6db8130a1e6871c0104143d11fd92933099199bfb6f4a8dc7a2d552",
        "d23a1d876adb13e967a070cf698755263ec1654788c9b35f567f6f1be9a7d4f0",
        "7e5880c81d8314944761825987b9af14dd3edaf057e4c5a4b822aaf2edb72292",
    ),
    ((7, 44, 10), 230, False, True): (
        "54c02ca890681e74ec829d5feca900a545ca8b7377ac7a9a48b91e0ccbf08422",
        "ee26391b8fd5a1b92e539252273e447f73f4db8c78753f501454c1665752ddf4",
        "32cd2262a51c38874d0a8de4703382f87c6569a188542f14bca5f6f48a1b082e",
    ),
}


@pytest.mark.parametrize("case", CASES, ids=lambda c: "-".join(map(str, c)))
def test_known_answers(cache, case):
    params, q, tweaked, long_input = case
    codec = cache.codec(*params)
    bits = plain(long_input)
    ks = KeySchedule(SEED, q, TWEAKS if tweaked else ())
    cipher, trace = encrypt(bits, codec, ks)
    back = decrypt(cipher, codec, ks, len(bits))
    assert (sha(cipher), sha(trace_text(trace)), sha(back)) == EXPECTED[case]
    assert back == bits
    if params != (4, 3, 1):
        rm = codec.rm
        blocks = [len(rm.transitions[r.state][r.transition].input_block) for r in trace]
        codes = [len(codec.tables[r.state].codewords[r.transition]) for r in trace]
        assert max(blocks) > WINDOW_BITS and max(codes) > WINDOW_BITS


# sha256 of the table rows, one line "state block output codeword next" each
TABLE_DIGESTS = {
    (4, 3, 1): "6fad5192fc1e28a295669048662de6b018c47f2c4be517e9e493772cef94b1e6",
    (7, 44, 10): "7499568d55ffb174f08ed91da3a0f897a0c7652c8d1428e93f3d117cee431f95",
    (9, 150, 3): "58f98b7fe82f39ebfcbfdd790438d6bd34af7fad3cd2f9a9023d4e9c6fa7268b",
    # one state whose input blocks run to 2**(n - 1) bits
    (8, 1, 3): "6ea6808ce4a8932991c0d6f4cdf2e073a668278ae4bda78fcb175932585dd93d",
    (10, 1, 3): "dec75ec4b4b777dac28c190e87ca535e825181dc925f1dd467dcc42d242d0411",
}


def table_text(codec) -> str:
    return "".join(
        f"{s} {t.input_block} {t.output_bits} {codec.tables[s].codewords[i]} {t.to}\n"
        for s, row in enumerate(codec.rm.transitions)
        for i, t in enumerate(row)
    )


@pytest.mark.parametrize("params", sorted(TABLE_DIGESTS), ids=str)
def test_table_digests(params):
    assert sha(table_text(build_codec(CoderParams(*params)))) == TABLE_DIGESTS[params]


# sha256 of the full machine, one line "low high follow" per state then one
# line "emitted to" per edge, and of the reduced states' origins, one line
# "low high follow" each
MACHINE_DIGESTS = {
    (4, 3, 1): (
        "6b9fecfc8616be9e9df2a43f60dcc122039e23e7cef9fe677f6595f9a4e41e32",
        "3e1a2744cc9527255b3d85a596f9e3a95cbe553288054f066a3cc512088efc79",
    ),
    (7, 44, 10): (
        "05dc59197c37a7044a2ce41b7574f55c027c4300ae226d0d790a8b0cace2cb95",
        "eabdb3629ebd73751ea9b7a650fa6bb663d64f65f30d5ee2a22ae1a8121ac4b2",
    ),
    (9, 150, 3): (
        "7dbaaa892636bb64c739f0188ec5a28ac6e54c5f80ac5ae0bb7c7d44043a8bed",
        "cbad48c78b23cc2e91da37799949a853aedddaab9bf09b6df8bbca3d66004c87",
    ),
    (10, 1, 3): (
        "e6b436117632bfaa05f82bb318158c29660ab4a4bdc3c2da845ffb00b759a59e",
        "24597ebfd628344d715187528ee02fd2ea96d70b3068500a7d330e43b8e3fa98",
    ),
}


def machine_text(fm) -> str:
    states = zip(fm.low.tolist(), fm.high.tolist(), fm.follow.tolist())
    emitted = map(bit_string, fm.emit_len.tolist(), fm.emit_val.tolist())
    return "".join(f"{low} {high} {follow}\n" for low, high, follow in states) + "".join(
        f"{bits} {to}\n" for bits, to in zip(emitted, fm.target.tolist())
    )


def origin_text(rm) -> str:
    return "".join(
        f"{low} {high} {follow}\n" for low, high, follow in rm.origin_bounds.tolist()
    )


@pytest.mark.parametrize("params", sorted(MACHINE_DIGESTS), ids=str)
def test_machine_digests(params):
    fm = build_full_fsm(CoderParams(*params))
    rm = reduce_machine(fm)
    assert (sha(machine_text(fm)), sha(origin_text(rm))) == MACHINE_DIGESTS[params]


def test_state_ceiling_boundary(monkeypatch):
    # (7, 44, 10) has 2,388 full states: a ceiling of exactly that builds,
    # one fewer raises, and a build after the raise is the pinned machine
    params = CoderParams(7, 44, 10)
    monkeypatch.setattr(coder, "STATE_CEILING", 2388)
    assert len(build_full_fsm(params).low) == 2388
    monkeypatch.setattr(coder, "STATE_CEILING", 2387)
    with pytest.raises(StateExplosionError, match="state explosion for"):
        build_full_fsm(params)
    monkeypatch.undo()
    assert sha(machine_text(build_full_fsm(params))) == MACHINE_DIGESTS[7, 44, 10][0]


@pytest.mark.parametrize("params", SWEEP + [(9, 150, 3)], ids=str)
def test_tables_match_fraction_reference(params):
    # the build runs Huffman merging on integer weights; the reference runs
    # it on the normalized Fraction weights
    codec = build_codec(CoderParams(*params))
    for s, table in enumerate(codec.tables):
        codes = build_state_code(heuristic_weights(codec.rm, s))
        assert table.codewords == tuple(codes)
        assert table.max_len == max(map(len, codes))

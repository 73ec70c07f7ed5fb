"""Command-line surface: keygen, tables, encode, decode, bench, analyze, selftest.

Exit codes: 0 success, 1 usage error, 2 data/format error, 3 key/decrypt
error.
"""

from __future__ import annotations

import argparse
import io
import itertools
import os
import stat
import sys
from contextlib import contextmanager

from .analysis import analyze_image, compression_rates
from .bitio import BitSource, BitWriter, Bits
from .coder import CoderParams, StateExplosionError
from .container import ContainerError, pack_header, read_header
from .crypto import (
    KeyFormatError,
    KeySchedule,
    SplitMix64,
    TruncatedStreamError,
    WrongKeyError,
    bernoulli_bits,
    decrypt_bits,
    decrypt_stream,
    encrypt_bits,
    encrypt_stream,
    seed_from_hex,
)
from .huffman import build_codec, swap_codeword
from .pgm import pgm_header, read_pgm, read_pgm_header
from .prefix import KernelBuildError, bit_string
from .reducer import kraft_complete, validate_reduced


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 instead of argparse's 2
        raise UsageError(message)


def _decimal(text: str) -> int:
    """An integer option: ASCII decimal digits only, where int() would also
    take '1_0', '+1', ' 1 ' and the digits of other scripts."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"not a decimal number: {text!r}")
    return int(text)


def _jump_prob(text: str) -> int:
    """Jump probability as 'q' or 'q/256' with q in 0..256."""
    num, slash, den = text.partition("/")
    if slash and _decimal(den) != 256:
        raise argparse.ArgumentTypeError(f"denominator must be 256: {text!r}")
    q = _decimal(num)
    if q > 256:
        raise argparse.ArgumentTypeError(f"numerator must be in 0..256, got {q}")
    return q


def _load_seed(args) -> int:
    if args.key is not None:
        return seed_from_hex(args.key)
    # a non-ASCII byte reads as U+FFFD, which no key holds
    with open(args.key_file, "r", encoding="ascii", errors="replace") as fh:
        return seed_from_hex(fh.read())


def _params(args, jump_q: int = 0) -> CoderParams:
    return CoderParams(args.n, args.p0_num, args.fmax, jump_q)


def _add_params(sub, jump: bool) -> None:
    sub.add_argument(
        "--n", type=_decimal, required=True,
        help="precision in bits (3..16); with --p0-num and --fmax it must give "
        "at most 10**6 full states (coder.STATE_CEILING): (16, 32768, 15) has "
        "1, (12, 1000, 2) 999,909, and (13, 3000, 0) fails after a ~0.15-s build; "
        "skewed models bind on memory first: (16, 1, 3) has 32,768, but a 1-byte "
        "encode peaks at ~100 MiB, 64 MiB of it its packed input blocks",
    )
    sub.add_argument(
        "--p0-num", type=_decimal, required=True,
        help="probability numerator of symbol 0, denominator 2**n",
    )
    sub.add_argument("--fmax", type=_decimal, required=True, help="follow cap (0..15)")
    if jump:
        sub.add_argument(
            "--jump-prob", type=_jump_prob, default="128", metavar="Q[/256]",
            help="jump probability numerator over 256 (default 128)",
        )


def _add_key(sub) -> None:
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--key", help="16 lowercase hex characters")
    group.add_argument("--key-file", help="file holding the hex key")


def build_parser() -> _Parser:
    parser = _Parser(prog="hfsac", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", help="write a fresh random key file")
    p.add_argument("--out", required=True)

    p = sub.add_parser("tables", help="dump the encoder/code tables")
    _add_params(p, jump=False)
    p.add_argument("--format", choices=("text", "csv"), default="text")

    p = sub.add_parser("encode", help="compress and encrypt a file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    _add_key(p)
    _add_params(p, jump=True)
    p.add_argument("--format", choices=("bits", "pgm"), default="bits")

    p = sub.add_parser("decode", help="decrypt a container back to the original")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    _add_key(p)
    p.add_argument("--format", choices=("bits", "pgm"), default="bits")
    p.add_argument("--width", type=_decimal)
    p.add_argument("--height", type=_decimal)

    p = sub.add_parser("bench", help="compression rates on seeded random bits")
    p.add_argument("--n", type=_decimal, required=True)
    p.add_argument("--fmax", type=_decimal, required=True)
    p.add_argument("--p0", required=True, help="comma-separated P(0) values in (0, 1)")
    p.add_argument("--bits", type=_decimal, default=100_000)
    p.add_argument("--seed", type=_decimal, default=1)

    p = sub.add_parser("analyze", help="full metric report for a PGM image")
    p.add_argument(
        "--plain", required=True,
        help="input P5 image; a direction with fewer than 1000 distinct pixel "
        "pairs, the number sampled, reports its correlations as nan",
    )
    _add_key(p)
    _add_params(p, jump=True)
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.add_argument("--hist-csv", help="write plain/cipher histograms as CSV")
    p.add_argument("--visits-csv", help="write state visit counts as CSV")

    sub.add_parser("selftest", help="run the built-in invariant sweep")

    return parser


def cmd_keygen(args) -> int:
    import secrets  # loads hashlib and OpenSSL, which no other command needs

    key = secrets.token_bytes(8).hex()
    fd = os.open(args.out, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
    with open(fd, "w", encoding="ascii") as fh:
        os.fchmod(fd, 0o600)  # a file that existed keeps its mode through open
        fh.write(key + "\n")
    return 0


def _table_rows(codec):
    rm = codec.rm
    return list(zip(
        rm.row_state.tolist(),
        rm.inputs.words(),
        map(bit_string, rm.out_len.tolist(), rm.out_bits.tolist()),
        codec.outputs.words(),
        rm.next_state.tolist(),
    ))


def cmd_tables(args) -> int:
    codec = build_codec(_params(args))
    rows = _table_rows(codec)
    if args.format == "csv":
        print("state,input,output,huffman,next_state")
        for row in rows:
            print(",".join(str(c) for c in row))
    else:
        headers = ("state", "input", "output", "huffman", "next")
        table = [tuple(str(c) for c in row) for row in rows]
        widths = [
            max(len(h), *(len(r[i]) for r in table))
            for i, h in enumerate(headers)
        ]
        print("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
        for r in table:
            print("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    return 0


def _open_in(path):
    """The `--in` file, opened for binary reading.  A regular file is read
    as the walk goes; anything else, a pipe say, is read whole into memory
    here, so that both can seek."""
    fh = open(path, "rb")
    if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
        return fh
    with fh:
        return io.BytesIO(fh.read())


@contextmanager
def _replacing(path):
    """A binary file that replaces `path` once the block ends without an
    error; on an error it is removed, and `path` keeps what it held.

    It is made beside `path` (a symbolic link's target), with the mode that
    open(path, "wb") gives: an existing file's, else 0o666 less the umask.
    A `path` that exists and is not a regular file is refused, and an
    error in making the new file names `path`, not the new file.
    """
    given, path = path, os.path.realpath(path)
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        raise OSError(f"not a regular file: {path!r}")
    head, tail = os.path.split(path)
    for i in itertools.count():
        tmp = os.path.join(head, f".{tail}.{os.getpid()}-{i}.tmp")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, given) from None
    try:
        with open(fd, "wb") as fh:
            if mode is not None:
                os.fchmod(fd, stat.S_IMODE(mode))
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def cmd_encode(args) -> int:
    seed = _load_seed(args)
    params = _params(args, args.jump_prob)
    with _open_in(args.infile) as src:
        if args.format == "pgm":
            width, height = read_pgm_header(src)
            plain = BitSource(src.read, 8 * width * height)
        else:
            plain = BitSource(src.read, 8 * src.seek(0, os.SEEK_END))
            src.seek(0)
        with _replacing(args.out) as out:
            codec = build_codec(params)
            # cipher_bit_len is known once the payload is out
            out.write(pack_header(params, plain.n, 0))
            writer = BitWriter(out.write)
            encrypt_stream(plain, codec, KeySchedule(seed, args.jump_prob), writer)
            cipher_len = writer.flush()
            out.seek(0)
            out.write(pack_header(params, plain.n, cipher_len))
    return 0


def cmd_decode(args) -> int:
    seed = _load_seed(args)
    with _open_in(args.infile) as src:
        params, n_bits, cipher_len = read_header(src)
        cipher = BitSource(src.read, cipher_len)
        if args.format == "pgm":
            if not (args.width and args.height):
                raise UsageError("--format pgm needs positive --width and --height")
            if args.width * args.height * 8 != n_bits:
                raise ContainerError(
                    f"container holds {n_bits} plain bits, not "
                    f"{args.width}x{args.height} pixels"
                )
        with _replacing(args.out) as out:
            codec = build_codec(params)
            if args.format == "pgm":
                out.write(pgm_header(args.width, args.height))
            writer = BitWriter(out.write)
            ks = KeySchedule(seed, params.jump_q_num)
            decrypt_stream(cipher, codec, ks, n_bits, writer)
            writer.flush()
    return 0


def cmd_bench(args) -> int:
    try:
        p0_list = [float(tok) for tok in args.p0.split(",") if tok.strip()]
    except ValueError:
        raise UsageError(f"invalid --p0 list {args.p0!r}") from None
    if not p0_list:
        raise UsageError("empty --p0 list")
    if not all(0 < p0 < 1 for p0 in p0_list):  # also refuses nan and inf
        raise UsageError(f"--p0 values must lie in (0, 1): {args.p0!r}")
    if args.bits < 1:
        raise UsageError("--bits must be at least 1")
    print("p0,p0_num,states,ac_pct,fsac_pct,hfac_pct")
    for p0 in p0_list:
        params = CoderParams.from_probability(args.n, p0, args.fmax)
        codec = build_codec(params)
        bits = Bits.from_text(bernoulli_bits(SplitMix64(args.seed), args.bits, p0))
        rates = compression_rates(bits, codec)
        print(
            f"{p0:g},{params.p0_num},{codec.rm.state_count},"
            f"{rates['ac']:.2f},{rates['fsac']:.2f},{rates['hfac']:.2f}"
        )
    return 0


def _write_csv(path, header: str, rows) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(header + "\n")
        fh.writelines(",".join(map(str, row)) + "\n" for row in rows)


def cmd_analyze(args) -> int:
    seed = _load_seed(args)
    params = _params(args, args.jump_prob)
    img = read_pgm(args.plain)
    report = analyze_image(img, params, seed)
    sys.stdout.write(report.to_csv() if args.format == "csv" else report.to_text())
    if args.hist_csv:
        _write_csv(
            args.hist_csv, "level,plain_count,cipher_count",
            zip(range(256), report.plain_histogram, report.cipher_histogram),
        )
    if args.visits_csv:
        _write_csv(args.visits_csv, "state,visits", enumerate(report.state_visits))
    return 0


def run_selftest() -> bool:
    """Invariant sweep over small parameter sets, printing a PASS or FAIL
    line per check; returns overall pass."""
    from .coder import ac_decode_stream, ac_encode_parts, ac_encode_stream
    from .huffman import hfac_decode, hfac_encode
    from .reducer import fsac_encode, fsac_parse

    ok = True

    def check(name: str, passed: bool) -> None:
        nonlocal ok
        ok = ok and passed
        print(f"{'PASS' if passed else 'FAIL'}  {name}")

    sweep = [
        CoderParams(3, 3, 1),
        CoderParams(4, 3, 1),
        CoderParams(5, 13, 1),
        CoderParams(6, 13, 3),
        CoderParams(8, 128, 3),
    ]
    rng = SplitMix64(0xC0FFEE)
    for params in sweep:
        codec = build_codec(params)
        rm = codec.rm
        tag = f"n={params.n_bits} p0={params.p0_num} fmax={params.f_max}"
        check(f"{tag}: reduced machine valid", validate_reduced(rm).passed)
        base = rm.row_base.tolist()
        states = list(zip(base, base[1:]))
        code_len = codec.code_len.tolist()
        kraft_ok = all(kraft_complete(code_len[a:b]) for a, b in states)
        check(f"{tag}: code tables complete", kraft_ok)
        words = codec.outputs.words()
        swap_ok = True
        for a, b in states:
            for p in range(max(code_len[a:b]) + 2):
                swapped = [swap_codeword(c, p) for c in words[a:b]]
                back = [swap_codeword(c, p) for c in swapped]
                if len(set(swapped)) != len(swapped) or back != words[a:b]:
                    swap_ok = False
        check(f"{tag}: swap involutive and injective", swap_ok)
        plain = bernoulli_bits(rng, 400, 0.35)
        rt = ac_decode_stream(ac_encode_stream(plain, params), len(plain), params)
        check(f"{tag}: arithmetic roundtrip", rt == plain)
        _steps, padded = fsac_parse(plain, rm)
        pbody, _ = ac_encode_parts(padded, params)
        check(f"{tag}: block coder matches stream coder", fsac_encode(plain, rm) == pbody)
        try:
            hf_ok = (
                hfac_decode(hfac_encode(plain, codec), codec, len(plain)) == plain
            )
        except ValueError:
            hf_ok = False
        check(f"{tag}: huffman roundtrip", hf_ok)
        ks = KeySchedule(rng.next_u64(), 128)
        try:
            packed = Bits.from_text(plain)
            cipher, _ = encrypt_bits(packed, codec, ks)
            enc_ok = decrypt_bits(cipher, codec, ks, packed.n) == packed
        except ValueError:
            enc_ok = False
        check(f"{tag}: encrypt/decrypt roundtrip", enc_ok)
    return ok


def cmd_selftest(args) -> int:
    return 0 if run_selftest() else 2


_COMMANDS = {
    "keygen": cmd_keygen,
    "tables": cmd_tables,
    "encode": cmd_encode,
    "decode": cmd_decode,
    "bench": cmd_bench,
    "analyze": cmd_analyze,
    "selftest": cmd_selftest,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (KeyFormatError, WrongKeyError, TruncatedStreamError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (StateExplosionError, KernelBuildError, ValueError, OSError) as exc:
        # ContainerError and PgmError are ValueErrors, as the exit-3 errors
        # above are: this clause comes after theirs
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

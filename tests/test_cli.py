import functools
import hashlib
import os
import re
import shutil
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from hfsac import HfsacCodec, cli, parse, pgm_bytes, prefix, write_pgm
from hfsac.cli import main
from conftest import rand_bits, synthetic_image


@pytest.fixture
def keyfile(tmp_path):
    path = tmp_path / "key.hex"
    assert main(["keygen", "--out", str(path)]) == 0
    return path


def read_text(path):
    return path.read_text(encoding="ascii")


class TestKeygen:
    def test_format(self, keyfile):
        assert re.fullmatch(r"[0-9a-f]{16}\n?", read_text(keyfile))

    def test_distinct(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["keygen", "--out", str(a)]) == 0
        assert main(["keygen", "--out", str(b)]) == 0
        assert read_text(a) != read_text(b)

    def test_key_file_is_private(self, tmp_path):
        # the key is the whole secret: no access for group or others, also
        # when a world-readable file is overwritten
        fresh, old = tmp_path / "fresh", tmp_path / "old"
        old.write_text("x")
        old.chmod(0o644)
        umask = os.umask(0o022)
        try:
            for path in (fresh, old):
                assert main(["keygen", "--out", str(path)]) == 0
                assert path.stat().st_mode & 0o077 == 0, oct(path.stat().st_mode)
        finally:
            os.umask(umask)
        assert re.fullmatch(r"[0-9a-f]{16}\n", read_text(old))


class TestTables:
    def test_csv_row_count_matches_transitions(self, capsys, cache):
        assert main(
            ["tables", "--n", "4", "--p0-num", "3", "--fmax", "1", "--format", "csv"]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        rm = cache.reduced(4, 3, 1)
        assert lines[0] == "state,input,output,huffman,next_state"
        assert len(lines) - 1 == sum(len(row) for row in rm.transitions)
        state0_inputs = [ln.split(",")[1] for ln in lines[1:] if ln.startswith("0,")]
        assert state0_inputs == ["0", "10", "110", "1110", "1111"]

    def test_single_state_two_rows(self, capsys):
        assert main(
            ["tables", "--n", "8", "--p0-num", "128", "--fmax", "3", "--format", "csv"]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) - 1 == 2

    def test_text_format_has_header(self, capsys):
        assert main(["tables", "--n", "3", "--p0-num", "3", "--fmax", "1"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].split() == ["state", "input", "output", "huffman", "next"]

    # sha256 of the whole output in text and CSV, taken from the build that
    # dumped the per-row object views; (12, 1, 3) has one state whose input
    # blocks run to 2048 bits
    DIGESTS = {
        (4, 3, 1): (
            "ab6ea4907f931c0a69c79995f5fb734f1998dc29b0ff1763f8fa419f3ece2441",
            "59e4c5746feb89e7f39f71c72d01cba37698f9ba57897f0d8c550547d0f31b35",
        ),
        (7, 44, 10): (
            "63ea6b23f696df2be7b1e56d2761627ff05ab0a73ab87df706389f9c4bd0cc40",
            "81218a9e4e3f1e2a0441a1ccc88d3372098fa59c8c28300bfbd05e04ac82bc53",
        ),
        (12, 1, 3): (
            "6ea64eee10640ae6e2ee6de06efb45a3b7d2e85cfa03e0c7af3fb2267ca495d4",
            "3f6604c0788ceba1318e554f120084c503f8d98da09332e32c91e7370c541f78",
        ),
    }

    @pytest.mark.parametrize("params", sorted(DIGESTS), ids=str)
    def test_output_digests(self, capsys, params):
        n, p0, fm = map(str, params)
        got = []
        for fmt in ("text", "csv"):
            argv = ["tables", "--n", n, "--p0-num", p0, "--fmax", fm, "--format", fmt]
            assert main(argv) == 0
            got.append(hashlib.sha256(capsys.readouterr().out.encode("ascii")).hexdigest())
        assert tuple(got) == self.DIGESTS[params]


class TestEncodeDecode:
    def encode(self, tmp_path, keyfile, data, fmt="bits", jump="230"):
        src = tmp_path / "plain.bin"
        src.write_bytes(data)
        out = tmp_path / "cipher.hfsa"
        rc = main(
            [
                "encode", "--in", str(src), "--out", str(out),
                "--key-file", str(keyfile),
                "--n", "6", "--p0-num", "28", "--fmax", "3",
                "--jump-prob", jump, "--format", fmt,
            ]
        )
        assert rc == 0
        return out

    def test_bits_roundtrip(self, tmp_path, keyfile):
        data = bytes(range(256)) * 3
        container = self.encode(tmp_path, keyfile, data)
        back = tmp_path / "back.bin"
        assert main(
            ["decode", "--in", str(container), "--out", str(back),
             "--key-file", str(keyfile)]
        ) == 0
        assert back.read_bytes() == data

    def test_empty_file_roundtrip(self, tmp_path, keyfile):
        container = self.encode(tmp_path, keyfile, b"")
        parsed = parse(container.read_bytes())
        assert parsed.plain_bit_len == 0
        back = tmp_path / "back.bin"
        assert main(
            ["decode", "--in", str(container), "--out", str(back),
             "--key-file", str(keyfile)]
        ) == 0
        assert back.read_bytes() == b""

    def test_encode_deterministic(self, tmp_path, keyfile):
        data = rand_bits(1, 4096).encode("ascii")
        a = self.encode(tmp_path, keyfile, data).read_bytes()
        b = self.encode(tmp_path, keyfile, data).read_bytes()
        assert a == b

    def test_pgm_roundtrip(self, tmp_path, keyfile):
        img = synthetic_image(32, 16)
        src = tmp_path / "img.pgm"
        write_pgm(img, src)
        container = tmp_path / "img.hfsa"
        assert main(
            ["encode", "--in", str(src), "--out", str(container),
             "--key-file", str(keyfile),
             "--n", "7", "--p0-num", "44", "--fmax", "10",
             "--jump-prob", "230/256", "--format", "pgm"]
        ) == 0
        assert parse(container.read_bytes()).plain_bit_len == 32 * 16 * 8
        back = tmp_path / "back.pgm"
        assert main(
            ["decode", "--in", str(container), "--out", str(back),
             "--key-file", str(keyfile),
             "--format", "pgm", "--width", "32", "--height", "16"]
        ) == 0
        assert back.read_bytes() == src.read_bytes()

    def test_pgm_decode_dimension_mismatch(self, tmp_path, keyfile):
        container = self.encode(tmp_path, keyfile, bytes(64))
        rc = main(
            ["decode", "--in", str(container), "--out", str(tmp_path / "x"),
             "--key-file", str(keyfile),
             "--format", "pgm", "--width", "5", "--height", "5"]
        )
        assert rc == 2

    def test_pgm_decode_checks_dimensions_before_decrypting(
        self, tmp_path, keyfile, monkeypatch
    ):
        container = self.encode(tmp_path, keyfile, bytes(64))

        def no_codec(params):
            raise AssertionError("built a codec")

        monkeypatch.setattr(cli, "build_codec", no_codec)
        argv = ["decode", "--in", str(container), "--out", str(tmp_path / "x"),
                "--key-file", str(keyfile), "--format", "pgm"]
        assert main(argv) == 1
        assert main(argv + ["--width", "8"]) == 1
        assert main(argv + ["--width", "0", "--height", "64"]) == 1
        assert main(argv + ["--width", "5", "--height", "5"]) == 2
        assert not (tmp_path / "x").exists()

    def test_wrong_key_never_silent_identity(self, tmp_path, keyfile):
        data = bytes(range(256)) * 4
        container = self.encode(tmp_path, keyfile, data)
        key = read_text(keyfile).strip()
        flipped = ("0" if key[0] != "0" else "1") + key[1:]
        back = tmp_path / "back.bin"
        rc = main(
            ["decode", "--in", str(container), "--out", str(back),
             "--key", flipped]
        )
        if rc == 0:
            assert back.read_bytes() != data
        else:
            assert rc == 3

    def test_truncated_container(self, tmp_path, keyfile):
        container = self.encode(tmp_path, keyfile, bytes(range(200)))
        blob = container.read_bytes()
        container.write_bytes(blob[: len(blob) - 4])
        rc = main(
            ["decode", "--in", str(container), "--out", str(tmp_path / "x"),
             "--key-file", str(keyfile)]
        )
        assert rc == 2

    def test_bad_key_format(self, tmp_path):
        src = tmp_path / "p"
        src.write_bytes(b"hi")
        rc = main(
            ["encode", "--in", str(src), "--out", str(tmp_path / "c"),
             "--key", "NOT-A-KEY",
             "--n", "6", "--p0-num", "28", "--fmax", "3"]
        )
        assert rc == 3

    def test_non_ascii_key_file(self, tmp_path):
        # a key file that is not ASCII is a bad key, not a data error
        src, key = tmp_path / "p", tmp_path / "key.hex"
        src.write_bytes(b"hi")
        key.write_bytes(b"\xff\xfe")
        rc = main(
            ["encode", "--in", str(src), "--out", str(tmp_path / "c"),
             "--key-file", str(key),
             "--n", "6", "--p0-num", "28", "--fmax", "3"]
        )
        assert rc == 3

    def test_malformed_pgm(self, tmp_path, keyfile):
        src = tmp_path / "bad.pgm"
        src.write_bytes(b"P5\n10 10\n255\nshort")
        rc = main(
            ["encode", "--in", str(src), "--out", str(tmp_path / "c"),
             "--key-file", str(keyfile),
             "--n", "6", "--p0-num", "28", "--fmax", "3", "--format", "pgm"]
        )
        assert rc == 2


class TestAtomicOutput:
    """`--out` is written as a new file beside it, which replaces it only
    once the whole output is out: a failed call leaves it as it was."""

    KEY = "00112233445566ff"

    def encode(self, tmp_path, data=bytes(range(256)) * 4):
        plain, box = tmp_path / "plain.bin", tmp_path / "box.hfsa"
        plain.write_bytes(data)
        assert main(
            ["encode", "--in", str(plain), "--out", str(box), "--key", self.KEY,
             "--n", "6", "--p0-num", "28", "--fmax", "3", "--jump-prob", "230"]
        ) == 0
        return box

    def decode(self, box, out, key=KEY):
        return main(["decode", "--in", str(box), "--out", str(out), "--key", key])

    def failures(self, tmp_path):
        """(name, container) pairs that fail to decode only while the payload
        is walked."""
        blob = self.encode(tmp_path).read_bytes()
        header = bytearray(blob[:29])
        header[21:29] = (8 * (len(blob) - 30)).to_bytes(8, "big")  # the last byte cut off
        flipped = bytearray(blob)
        flipped[40] ^= 0x10
        cases = {"flipped": bytes(flipped), "truncated": bytes(header) + blob[29:-1]}
        for name, data in cases.items():
            path = tmp_path / f"{name}.hfsa"
            path.write_bytes(data)
            yield name, path

    def test_failures_leave_no_output(self, tmp_path):
        box = self.encode(tmp_path)
        before = set(os.listdir(tmp_path))
        wrong = "f" + self.KEY[1:]
        assert self.decode(box, tmp_path / "back", wrong) == 3
        for name, path in self.failures(tmp_path):
            before.add(path.name)
            assert self.decode(path, tmp_path / "back") == 3, name
        # a payload cut short of its header's length fails before any output
        short = tmp_path / "short.hfsa"
        short.write_bytes(box.read_bytes()[:-1])
        before.add(short.name)
        assert self.decode(short, tmp_path / "back") == 2
        assert set(os.listdir(tmp_path)) == before

    def test_failures_keep_an_existing_output(self, tmp_path):
        back = tmp_path / "back"
        back.write_bytes(b"kept")
        back.chmod(0o640)
        for name, path in self.failures(tmp_path):
            assert self.decode(path, back) == 3, name
            assert back.read_bytes() == b"kept"
            assert back.stat().st_mode & 0o777 == 0o640
        # a call that succeeds replaces the bytes, and keeps the mode
        assert self.decode(self.encode(tmp_path), back) == 0
        assert back.read_bytes() == bytes(range(256)) * 4
        assert back.stat().st_mode & 0o777 == 0o640

    def test_new_output_mode(self, tmp_path):
        umask = os.umask(0o027)
        try:
            with open(tmp_path / "opened", "wb"):
                pass
            box = self.encode(tmp_path)
            assert self.decode(box, tmp_path / "back") == 0
        finally:
            os.umask(umask)
        mode = (tmp_path / "opened").stat().st_mode
        assert mode & 0o777 == 0o640
        assert box.stat().st_mode == (tmp_path / "back").stat().st_mode == mode

    def test_missing_directory_names_the_output(self, tmp_path, capsys):
        # the error names --out as given, not the new file made beside it
        box = self.encode(tmp_path)
        out = tmp_path / "nodir" / "x.hfsa"
        encode = ["encode", "--in", str(box), "--out", str(out), "--key", self.KEY,
                  "--n", "6", "--p0-num", "28", "--fmax", "3"]
        decode = ["decode", "--in", str(box), "--out", str(out), "--key", self.KEY]
        capsys.readouterr()
        for argv in (encode, decode):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err == f"error: [Errno 2] No such file or directory: {str(out)!r}\n"
        assert sorted(os.listdir(tmp_path)) == ["box.hfsa", "plain.bin"]

    def test_skips_a_temporary_name_in_use(self, tmp_path):
        # the first name for the new file is taken: the output is made under
        # the next one, and the file that held the name keeps its bytes
        taken = tmp_path / f".box.hfsa.{os.getpid()}-0.tmp"
        taken.write_bytes(b"not ours")
        box = self.encode(tmp_path)
        assert self.decode(box, tmp_path / "back") == 0
        assert (tmp_path / "back").read_bytes() == bytes(range(256)) * 4
        assert taken.read_bytes() == b"not ours"
        assert [p.name for p in tmp_path.glob("*.tmp")] == [taken.name]

    def test_refuses_an_output_that_is_not_a_regular_file(self, tmp_path, monkeypatch):
        box = self.encode(tmp_path)
        folder = tmp_path / "folder"
        folder.mkdir()

        def no_codec(params):
            raise AssertionError("built a codec")

        monkeypatch.setattr(cli, "build_codec", no_codec)
        assert self.decode(box, folder) == 2
        assert main(
            ["encode", "--in", str(box), "--out", str(folder), "--key", self.KEY,
             "--n", "6", "--p0-num", "28", "--fmax", "3"]
        ) == 2
        assert folder.is_dir() and not os.listdir(folder)
        assert sorted(os.listdir(tmp_path)) == ["box.hfsa", "folder", "plain.bin"]


class TestBench:
    def test_csv_output(self, capsys):
        assert main(
            ["bench", "--n", "6", "--fmax", "3", "--p0", "0.2,0.5",
             "--bits", "20000", "--seed", "9"]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "p0,p0_num,states,ac_pct,fsac_pct,hfac_pct"
        assert len(lines) == 3
        for line in lines[1:]:
            p0, p0n, states, ac, fsac, hfac = line.split(",")
            assert float(hfac) >= float(fsac) - 10.0

    def test_symmetric_row_near_zero(self, capsys):
        assert main(
            ["bench", "--n", "8", "--fmax", "3", "--p0", "0.5", "--bits", "20000"]
        ) == 0
        row = capsys.readouterr().out.strip().splitlines()[-1].split(",")
        assert row[2] == "1"
        assert all(abs(float(v)) <= 0.5 for v in row[3:])

    def test_bad_p0_list(self, capsys):
        assert main(["bench", "--n", "6", "--fmax", "3", "--p0", "a,b"]) == 1

    @pytest.mark.parametrize(
        "option",
        [
            ("--p0", "inf"), ("--p0", "1e400"), ("--p0", "nan"), ("--p0", "-1"),
            ("--p0", "0"), ("--p0", "1"), ("--p0", "2"), ("--p0", "0.2,1"),
            ("--p0", ","), ("--bits", "0"),
        ],
        ids=" ".join,
    )
    def test_out_of_range_is_a_usage_error(self, capsys, option):
        # P(0) must lie strictly inside (0, 1): 0 and 1 would be clamped to
        # another model and draw constant bits, and a list of no values is
        # refused; every check runs before the CSV header is printed
        argv = {"--p0": "0.3", "--bits": "100", **dict([option])}
        args = [x for kv in argv.items() for x in kv]
        assert main(["bench", "--n", "4", "--fmax", "1", *args]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert "usage error" in out.err


class TestAnalyze:
    def test_report_and_csv(self, tmp_path, keyfile, capsys):
        img = synthetic_image(48, 48)
        src = tmp_path / "img.pgm"
        write_pgm(img, src)
        hist = tmp_path / "hist.csv"
        visits = tmp_path / "visits.csv"
        rc = main(
            ["analyze", "--plain", str(src), "--key-file", str(keyfile),
             "--n", "5", "--p0-num", "14", "--fmax", "3",
             "--jump-prob", "200", "--format", "csv",
             "--hist-csv", str(hist), "--visits-csv", str(visits)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("metric,value\n")
        assert "cipher_entropy," in out
        assert len(read_text(hist).splitlines()) == 257
        assert read_text(visits).splitlines()[0] == "state,visits"


    def test_constant_image(self, tmp_path, keyfile, capsys):
        # zero-variance plain correlations are reported as nan, not refused
        src = tmp_path / "flat.pgm"
        src.write_bytes(b"P5\n64 64\n255\n" + bytes(64 * 64))
        rc = main(
            ["analyze", "--plain", str(src), "--key-file", str(keyfile),
             "--n", "5", "--p0-num", "14", "--fmax", "3"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert re.search(r"^plain_corr_horizontal +nan$", out, re.M)
        assert re.search(r"^cipher_corr_horizontal +-?0\.", out, re.M)

    @pytest.mark.parametrize("width,height", [(32, 32), (33, 33), (40, 26)])
    def test_smallest_image(self, tmp_path, keyfile, capsys, width, height):
        # each direction samples 1000 distinct pairs; one with fewer reports
        # nan and the rest of the report is computed: the diagonal has 961 at
        # 32 x 32, 1024 at 33 x 33 and 975 at 40 x 26, whose horizontal and
        # vertical have 1014 and 1000
        src = tmp_path / "img.pgm"
        write_pgm(synthetic_image(width, height), src)
        assert main(
            ["analyze", "--plain", str(src), "--key-file", str(keyfile),
             "--n", "5", "--p0-num", "14", "--fmax", "3"]
        ) == 0
        out = capsys.readouterr().out
        pairs = {
            "horizontal": (width - 1) * height,
            "vertical": width * (height - 1),
            "diagonal": (width - 1) * (height - 1),
        }
        for direction, count in pairs.items():
            for image in ("plain", "cipher"):
                value = re.search(rf"^{image}_corr_{direction} +(\S+)$", out, re.M)[1]
                assert (value == "nan") == (count < 1000), (image, direction, value)
        assert re.search(r"^npcr_pct +[0-9.]+$", out, re.M)

    @pytest.mark.parametrize(
        "pixels,params",
        [(b"\x5a", ("7", "44", "10")), (b"\x10\x80\xff\x03", ("5", "14", "3"))],
        ids=["1x1", "2x2"],
    )
    def test_tiny_image(self, tmp_path, capsys, pixels, params):
        # a cipher under 100 bits reports the randomness p-values as nan,
        # as it does the pixel correlations, and the rest of the report
        side = int(len(pixels) ** 0.5)
        src = tmp_path / "tiny.pgm"
        src.write_bytes(b"P5\n%d %d\n255\n" % (side, side) + pixels)
        n, p0, fmax = params
        assert main(
            ["analyze", "--plain", str(src), "--key", "00112233445566ff",
             "--n", n, "--p0-num", p0, "--fmax", fmax]
        ) == 0
        rows = dict(line.split() for line in capsys.readouterr().out.splitlines())
        nan = {name for name, value in rows.items() if value == "nan"}
        assert nan == {
            f"{image}_corr_{d}"
            for image in ("plain", "cipher")
            for d in ("horizontal", "vertical", "diagonal")
        } | {f"randomness_{t}_p" for t in ("monobit", "block_frequency", "runs")}


class TestPipedInput:
    """An `--in` that is not a regular file, a pipe here, is read whole and
    goes through the same readers as a file: the same output and the same
    errors."""

    KEY = ["--key", "00112233445566ff"]
    PARAMS = ["--n", "6", "--p0-num", "28", "--fmax", "3", "--jump-prob", "230"]
    PGM = ["--format", "pgm", "--width", "24", "--height", "16"]

    @staticmethod
    def hfsac(*argv, stdin=None):
        """(exit code, stderr) of one CLI call, with `stdin` piped in."""
        proc = subprocess.run(
            [sys.executable, "-m", "hfsac.cli", *map(str, argv)],
            input=stdin, capture_output=True,
        )
        return proc.returncode, proc.stderr.decode()

    def both(self, tmp_path, data, *argv):
        """The outcomes of one command on a file holding `data` and on a
        pipe of it, writing `file.out` and `pipe.out`."""
        src = tmp_path / "in"
        src.write_bytes(data)
        return [
            self.hfsac(argv[0], "--in", path, "--out", tmp_path / f"{name}.out",
                       *argv[1:], *self.KEY, stdin=stdin)
            for name, path, stdin in (("file", src, None), ("pipe", "/dev/stdin", data))
        ]

    @pytest.mark.parametrize("fmt", ["bits", "pgm"])
    def test_encode_and_decode(self, tmp_path, fmt):
        if fmt == "pgm":
            data, decode = pgm_bytes(synthetic_image(24, 16)), self.PGM
        else:
            data, decode = bytes(range(256)) * 3, []
        assert self.both(tmp_path, data, "encode", *self.PARAMS, "--format", fmt) == [(0, "")] * 2
        box = (tmp_path / "file.out").read_bytes()
        assert (tmp_path / "pipe.out").read_bytes() == box
        assert self.both(tmp_path, box, "decode", *decode) == [(0, "")] * 2
        assert (tmp_path / "file.out").read_bytes() == data
        assert (tmp_path / "pipe.out").read_bytes() == data

    def test_truncated_pgm(self, tmp_path):
        data = pgm_bytes(synthetic_image(24, 16))[:-3]
        outcomes = self.both(tmp_path, data, "encode", *self.PARAMS, "--format", "pgm")
        assert outcomes == [(2, "error: raster holds 381 bytes, expected 384\n")] * 2

    def test_truncated_container(self, tmp_path):
        plain = tmp_path / "plain"
        plain.write_bytes(bytes(range(200)))
        box = tmp_path / "box"
        assert main(["encode", "--in", str(plain), "--out", str(box), *self.KEY, *self.PARAMS]) == 0
        outcomes = self.both(tmp_path, box.read_bytes()[:-4], "decode")
        assert outcomes == [(2, "error: truncated container payload\n")] * 2
        assert not {"file.out", "pipe.out"} & set(os.listdir(tmp_path))

    def test_analyze(self, tmp_path):
        # analyze reads its P5 image whole, so a pipe gives the file's report
        src = tmp_path / "in.pgm"
        src.write_bytes(pgm_bytes(synthetic_image(24, 16)))
        outcomes = [
            subprocess.run(
                [sys.executable, "-m", "hfsac.cli", "analyze", "--plain", str(path),
                 *self.PARAMS, *self.KEY],
                input=stdin, capture_output=True,
            )
            for path, stdin in ((src, None), ("/dev/stdin", src.read_bytes()))
        ]
        assert [(p.returncode, p.stderr) for p in outcomes] == [(0, b"")] * 2
        assert outcomes[1].stdout == outcomes[0].stdout
        assert b"npcr" in outcomes[0].stdout


class TestSelftest:
    def test_passes_quickly(self, capsys):
        import time

        started = time.monotonic()
        assert main(["selftest"]) == 0
        assert time.monotonic() - started < 60
        out = capsys.readouterr().out
        assert "FAIL" not in out

    def test_corrupted_table_fails(self, capsys, monkeypatch):
        # the checks can fail: on n = 4, state 0's first codeword is
        # replaced by a copy of its last, which breaks prefix-freeness and Kraft
        build_codec = cli.build_codec

        def corrupted(params):
            codec = build_codec(params)
            if params.n_bits != 4:
                return codec
            words = codec.outputs.words()
            words[0] = words[codec.rm.row_base[1] - 1]
            return HfsacCodec(
                codec.rm, [len(w) for w in words], [int(b) for w in words for b in w]
            )

        monkeypatch.setattr(cli, "build_codec", corrupted)
        assert main(["selftest"]) != 0
        out = capsys.readouterr().out
        assert "FAIL  n=4 p0=3 fmax=1: code tables complete" in out
        assert "FAIL  n=4 p0=3 fmax=1: swap involutive and injective" in out


class TestUsage:
    def test_missing_required_flag(self):
        assert main(["tables", "--n", "4"]) == 1

    def test_unknown_command_usage_error(self):
        assert main(["frobnicate"]) == 1

    def test_bad_jump_prob(self, tmp_path, keyfile):
        src = tmp_path / "p"
        src.write_bytes(b"x")
        rc = main(
            ["encode", "--in", str(src), "--out", str(tmp_path / "c"),
             "--key-file", str(keyfile),
             "--n", "6", "--p0-num", "28", "--fmax", "3",
             "--jump-prob", "230/100"]
        )
        assert rc == 1
        # int() would read each of these as 12
        for bad in ("1_2", "+12", " 12 ", "\uff11\uff12", "12/ 256 ", "12/2_56"):
            rc = main(
                ["encode", "--in", str(src), "--out", str(tmp_path / "c"),
                 "--key-file", str(keyfile),
                 "--n", "6", "--p0-num", "28", "--fmax", "3", "--jump-prob", bad]
            )
            assert rc == 1, bad
        # a numerator over 256
        assert main(
            ["encode", "--in", str(src), "--out", str(tmp_path / "c"),
             "--key-file", str(keyfile),
             "--n", "6", "--p0-num", "28", "--fmax", "3", "--jump-prob", "257"]
        ) == 1
        assert not (tmp_path / "c").exists()
        # the other integer options take the same digits: not n = 10
        assert main(["tables", "--n", "1_0", "--p0-num", "512", "--fmax", "1"]) == 1

    def test_import_leaves_scipy_unloaded(self):
        # importing scipy would cost every CLI call ~0.3 s
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, hfsac.cli; print('scipy' in sys.modules)"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_commands_leave_openssl_and_numpy_ma_unloaded(self, tmp_path):
        # secrets pulls in hashlib and OpenSSL (~3.6 MiB), numpy.ma ~1.3 MiB;
        # encode, decode and analyze use neither, keygen imports secrets itself.
        # fractions, which loads decimal, serves only the structural checks,
        # heapq no command
        watched = (
            "{'secrets', 'hashlib', '_hashlib', 'numpy.ma', 'fractions', 'decimal', 'heapq'}"
        )
        report = f"print('loaded', *{watched} & set(sys.modules))"
        calls = tmp_path / "calls.py"
        calls.write_text(textwrap.dedent(f"""\
            import sys
            from hfsac.cli import main
            d = sys.argv[1]
            pixels = bytes(i * 7 % 256 for i in range(48 * 48))
            open(d + "/p.pgm", "wb").write(b"P5\\n48 48\\n255\\n" + pixels)
            key = ["--key", "00112233445566ff"]
            params = ["--n", "5", "--p0-num", "14", "--fmax", "3"]
            for argv in (
                ["encode", "--in", d + "/p.pgm", "--out", d + "/c", *key, *params],
                ["decode", "--in", d + "/c", "--out", d + "/b", *key],
                ["analyze", "--plain", d + "/p.pgm", *key, *params],
            ):
                assert main(argv) == 0, argv
            {report}
        """))
        loaded = []
        for argv in (["-c", "import sys, numpy; " + report], [calls, tmp_path]):
            proc = subprocess.run(
                [sys.executable, *argv], capture_output=True, text=True
            )
            assert proc.returncode == 0, proc.stderr
            loaded.append(set(proc.stdout.splitlines()[-1].split()[1:]))
        assert loaded[1] <= loaded[0], loaded

    def test_console_entry_point(self, tmp_path):
        out = tmp_path / "key"
        proc = subprocess.run(
            [sys.executable, "-m", "hfsac.cli", "keygen", "--out", str(out)],
            capture_output=True,
        )
        assert proc.returncode == 0
        assert re.fullmatch(r"[0-9a-f]{16}\n?", out.read_text())


class TestStepLoopBuild:
    """The kernels (_walk.c) are compiled on first use into the package's
    __pycache__ and loaded through ctypes."""

    # the README's library key and parameters; the container's sha256 for
    # 4 KiB of bytes 0..255 repeated
    ENCODE = ["--key", "0123456789abcdef", "--n", "7", "--p0-num", "44", "--fmax", "10",
              "--jump-prob", "230"]
    PINNED = "625f1a97384c8fd96d475dca135bcea0cec050e5a08d3a6991bbe3491142656f"

    def test_clean_checkout(self, tmp_path):
        # two encodes at once in a copy of the package whose cache holds only
        # a stale library: each compiles into it, neither trips on the
        # other, both give the pinned container, and the stale one is gone
        package = tmp_path / "hfsac"
        shutil.copytree(
            os.path.dirname(prefix._SOURCE), package,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        (package / "__pycache__").mkdir()
        (package / "__pycache__" / "_walk-00000000.so").write_bytes(b"stale")
        plain = tmp_path / "plain"
        plain.write_bytes(bytes(range(256)) * 16)
        env = dict(os.environ, PYTHONPATH=str(tmp_path), PYTHONDONTWRITEBYTECODE="1")
        procs = [
            subprocess.Popen(
                [sys.executable, "-m", "hfsac.cli", "encode", "--in", str(plain),
                 "--out", str(tmp_path / f"box{i}"), *self.ENCODE],
                env=env, stderr=subprocess.PIPE,
            )
            for i in range(2)
        ]
        errors = [proc.communicate(timeout=120)[1] for proc in procs]
        assert [proc.returncode for proc in procs] == [0, 0], errors
        for i in range(2):
            box = (tmp_path / f"box{i}").read_bytes()
            assert hashlib.sha256(box).hexdigest() == self.PINNED
        built = os.listdir(package / "__pycache__")
        assert len(built) == 1 and re.fullmatch(r"_walk-[0-9a-f]{8}\.so", built[0]), built
        assert built != ["_walk-00000000.so"]

    @staticmethod
    def _no_compiler(tmp_path, monkeypatch):
        # an empty cache and no `cc`
        source = tmp_path / "_walk.c"
        shutil.copy(prefix._SOURCE, source)
        monkeypatch.setattr(prefix, "_SOURCE", str(source))
        monkeypatch.setattr(prefix, "_compiler", lambda: None)
        monkeypatch.setattr(prefix, "kernel", functools.cache(prefix.kernel.__wrapped__))

    def test_missing_compiler_is_named(self, tmp_path, monkeypatch, capsys):
        # the call fails before it writes anything
        self._no_compiler(tmp_path, monkeypatch)
        plain, box = tmp_path / "plain", tmp_path / "box"
        plain.write_bytes(b"x")
        assert main(["encode", "--in", str(plain), "--out", str(box), *self.ENCODE]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: no C compiler: `cc` is not on PATH"), err
        assert not box.exists()
        assert os.listdir(tmp_path / "__pycache__") == []

    def test_missing_compiler_is_named_by_tables(self, tmp_path, monkeypatch, capsys):
        # `tables` walks no stream, but its codec build explores in C
        self._no_compiler(tmp_path, monkeypatch)
        assert main(["tables", "--n", "7", "--p0-num", "44", "--fmax", "10"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: no C compiler: `cc` is not on PATH"), captured.err
        assert captured.out == ""


def _cli_peak_mib(*argv) -> float:
    """Peak RSS of one `hfsac` CLI call, in MiB.

    A child's `ru_maxrss` starts from its parent's at the fork, so the call
    runs under a bare interpreter that reports its one child's peak
    (`ru_maxrss` is in KiB on Linux).
    """
    code = (
        "import resource, subprocess, sys\n"
        "subprocess.run([sys.executable, '-m', 'hfsac.cli', *sys.argv[1:]], check=True)\n"
        "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, *map(str, argv)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout) / 1024


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB")
def test_encode_decode_memory_per_input_byte(tmp_path):
    # A packed path that held the 8-bit window at every bit (8 B), the
    # input, the cipher and the decoded bytes took ~12 B per input byte.
    # 24 MiB over a 1-byte call for 1 MiB of input leaves 2x headroom, and
    # fails the '0'/'1' text path, which grew by ~187 MiB (encode) and
    # ~36 MiB (decode).
    key = ["--key", "00112233445566ff"]
    params = ["--n", "7", "--p0-num", "44", "--fmax", "10", "--jump-prob", "230"]
    peaks = {}
    for name, size in (("small", 1), ("large", 1 << 20)):
        plain = tmp_path / f"{name}.bin"
        plain.write_bytes(np.random.default_rng(size).bytes(size))
        box, back = tmp_path / f"{name}.hfsa", tmp_path / f"{name}.back"
        peaks[name, "encode"] = _cli_peak_mib(
            "encode", "--in", plain, "--out", box, *key, *params
        )
        peaks[name, "decode"] = _cli_peak_mib("decode", "--in", box, "--out", back, *key)
        assert back.read_bytes() == plain.read_bytes()
    for op in ("encode", "decode"):
        assert peaks["large", op] - peaks["small", op] < 24, peaks


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB")
def test_decode_memory_long_blocks(tmp_path):
    # (10, 1, 3), q = 0: 256 KiB of ones decode as one keystream block of
    # 4,096 steps of 512-bit input blocks.  The kernel emits that block's
    # 2 Mbit packed into the writer's buffer, which holds at most the plain
    # bits left (256 KiB), and stays under 12 MiB over a 1-byte call;
    # gathering the whole block as 0/1 bytes in one pass took ~35 MiB.
    key = ["--key", "00112233445566ff"]
    params = ["--n", "10", "--p0-num", "1", "--fmax", "3", "--jump-prob", "0"]
    peaks = {}
    for size in (1, 1 << 18):
        plain = tmp_path / f"{size}.bin"
        plain.write_bytes(b"\xff" * size)
        box, back = tmp_path / f"{size}.hfsa", tmp_path / f"{size}.back"
        _cli_peak_mib("encode", "--in", plain, "--out", box, *key, *params)
        peaks[size] = _cli_peak_mib("decode", "--in", box, "--out", back, *key)
        assert back.read_bytes() == plain.read_bytes()
    assert peaks[1 << 18] - peaks[1] < 12, peaks


@pytest.mark.slow
@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB")
def test_encode_decode_memory_bounded(tmp_path):
    # Encode and decode stream their input and output through one byte
    # buffer of a keystream block's longest words (~22 KB on
    # (7, 44, 10)), so 4 MiB of input peaks within 4 MiB of a 1-byte call.  Holding the
    # whole stream's windows, input and output took ~45 MiB more.
    key = ["--key", "00112233445566ff"]
    params = ["--n", "7", "--p0-num", "44", "--fmax", "10", "--jump-prob", "230"]
    peaks = {}
    for name, size in (("small", 1), ("large", 4 << 20)):
        plain = tmp_path / f"{name}.bin"
        plain.write_bytes(np.random.default_rng(size).bytes(size))
        box, back = tmp_path / f"{name}.hfsa", tmp_path / f"{name}.back"
        peaks[name, "encode"] = _cli_peak_mib(
            "encode", "--in", plain, "--out", box, *key, *params
        )
        peaks[name, "decode"] = _cli_peak_mib("decode", "--in", box, "--out", back, *key)
        assert back.read_bytes() == plain.read_bytes()
    for op in ("encode", "decode"):
        assert peaks["large", op] - peaks["small", op] < 4, peaks

"""Every package name and codec attribute the benchmark's scripts use
resolves.

`perfbench/` reads the package as `hf.<name>` after `import hfsac as hf`
and through `from hfsac... import name`, and reads attributes off the
machines it builds, bound to `fm`, `rm` and `codec`.  Its traced run is not
part of this suite, so a name or view deleted from the package would
otherwise first fail there.  The scripts are parsed, not run, except
`traced._cipher_stats`, which still hands the analysis statistics text, and
the trace replays and counts that check the traced run's encrypt.
"""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

import hfsac
from hfsac import (
    Bits, CoderParams, KeySchedule, analyze_image, build_full_fsm, encrypt, encrypt_bits,
    fsac_parse, reduce_machine,
)
from hfsac import cli
from hfsac.huffman import attach_tables

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
SCRIPTS = sorted(BENCH.glob("*.py"))


def package_references(source: str) -> list[tuple[str, str | None]]:
    """(module, name) of every `from hfsac... import name` and of every
    attribute read off a module bound by `import hfsac... as alias`;
    (module, None) for a bare `import hfsac...`."""
    tree = ast.parse(source)
    aliases: dict[str, str] = {}
    refs: list[tuple[str, str | None]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.partition(".")[0] == "hfsac":
                    refs.append((a.name, None))
                    if a.asname:
                        aliases[a.asname] = a.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if (node.module or "").partition(".")[0] == "hfsac":
                refs += [(node.module, a.name) for a in node.names]
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
        ):
            refs.append((aliases[node.value.id], node.attr))
    return refs


def resolves(module: str, name: str | None) -> bool:
    mod = importlib.import_module(module)
    if name is None or hasattr(mod, name):
        return True
    try:  # `from hfsac import cli` names a submodule
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


# the names the scripts bind a full machine, a reduced machine and a codec to
MACHINES = ("fm", "rm", "codec")


def attribute_reads(source: str) -> set[tuple[str, ...]]:
    """Every chain of attribute reads off a name in MACHINES, from that
    name on: `codec.tables[i].max_len` gives ("codec", "tables", "[]",
    "max_len"), and its prefix ("codec", "tables") too."""
    chains = set()
    for node in ast.walk(ast.parse(source)):
        path = []
        while isinstance(node, (ast.Attribute, ast.Subscript)):
            path.append(node.attr if isinstance(node, ast.Attribute) else "[]")
            node = node.value
        if path and path[-1] != "[]" and isinstance(node, ast.Name) and node.id in MACHINES:
            chains.add((node.id, *reversed(path)))
    return chains


def unresolved(chain: tuple[str, ...], machines: dict) -> str | None:
    """The first step of `chain` that the built machines lack, if any; a
    subscript reads element 0."""
    obj = machines[chain[0]]
    for step in chain[1:]:
        if step == "[]":
            obj = obj[0]
        elif hasattr(obj, step):
            obj = getattr(obj, step)
        else:
            return step
    return None


@pytest.fixture(scope="module")
def machines():
    fm = build_full_fsm(CoderParams(7, 44, 10))
    rm = reduce_machine(fm)
    return {"fm": fm, "rm": rm, "codec": attach_tables(rm)}


@pytest.fixture
def traced(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("traced")


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("workloads")


def test_scripts_found():
    names = {p.name for p in SCRIPTS}
    assert {"pin.py", "run.py", "traced.py"} <= names
    refs = [r for p in SCRIPTS for r in package_references(p.read_text())]
    assert len({name for _, name in refs}) > 30


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_benchmark_names_resolve(script):
    refs = sorted(set(package_references(script.read_text())), key=str)
    missing = [(m, n) for m, n in refs if not resolves(m, n)]
    assert not missing, f"{script.name} uses names the package lacks: {missing}"


def test_a_missing_name_is_caught():
    source = (
        "import hfsac as hf\nfrom hfsac.crypto import TAG_JUMP, no_such_name\nhf.nowhere\n"
    )
    refs = package_references(source)
    assert ("hfsac", "nowhere") in refs
    assert [r for r in refs if not resolves(*r)] == [
        ("hfsac.crypto", "no_such_name"), ("hfsac", "nowhere"),
    ]


def test_benchmark_attributes_resolve(machines):
    chains = set().union(*(attribute_reads(p.read_text()) for p in SCRIPTS))
    read = {chain[-1] for chain in chains if "[]" not in chain}
    assert {"states", "mute_count", "state_count", "transitions", "tables", "rm"} <= read
    missing = [c for c in sorted(chains) if unresolved(c, machines)]
    assert not missing, f"perfbench reads attributes the codec lacks: {missing}"


def test_a_missing_attribute_is_caught(machines):
    source = "len(fm.states)\ncodec.rm.no_such_column\ncodec.tables[0].nowhere\n"
    missing = {c: unresolved(c, machines) for c in attribute_reads(source)}
    assert {c: step for c, step in missing.items() if step} == {
        ("codec", "rm", "no_such_column"): "no_such_column",
        ("codec", "tables", "[]", "nowhere"): "nowhere",
    }
    assert ("fm", "states") in missing


def test_cipher_stats_take_text(machines, traced):
    # the traced run passes the analysis statistics '0'/'1' text: they keep
    # giving what they give on packed bits until it stops
    codec = machines["codec"]
    ks = KeySchedule(0x0123456789ABCDEF, 230)
    plain = np.random.default_rng(14).bytes(4096)
    cipher, _ = encrypt_bits(Bits(plain), codec, ks)
    flipped, _ = encrypt_bits(Bits(bytes([plain[0] ^ 0x80]) + plain[1:]), codec, ks)
    as_text = traced._cipher_stats(hfsac, cipher.to_text(), flipped.to_text(), 64, 64)
    assert as_text == traced._cipher_stats(hfsac, cipher, flipped, 64, 64)


def test_trace_replays_and_counts(machines, traced):
    # the traced run checks its encrypt by redrawing every keystream draw
    # and by swapping every traced codeword again: both must reproduce it
    codec = machines["codec"]
    ks = KeySchedule(0x0123456789ABCDEF, 230)
    bits = Bits(np.random.default_rng(21).bytes(4096)).to_text()
    cipher, trace = encrypt(bits, codec, ks)
    draws, same = traced._replay_keystream(hfsac, trace, codec, ks)
    assert same
    assert traced._swap_trace(hfsac, trace, codec) == cipher
    parse_steps, padded = fsac_parse(bits, machines["rm"])
    counts = traced.exact_counts(
        machines["fm"], machines["rm"], codec, parse_steps, padded, trace, cipher, bits
    )
    assert draws == counts["crypto.keystream_draws"] == 2 * len(trace) + sum(trace.jumped)
    assert counts["crypto.steps"] == len(trace) > 0
    assert counts["cipher_ratio"] == len(cipher) / len(bits)


def test_cli_outputs_match_pins(workloads, tmp_path, monkeypatch, capsys):
    # the timed run checks every CLI output against pins.json: on variant 0
    # of each workload, run as it runs them, the setup and encode
    # containers, the decoded bytes and the analyze report match here too
    pins = workloads.load_pins()
    sha256, key = workloads.sha256, ["--key", workloads.KEY_HEX]
    mismatches = []
    for w in workloads.WORKLOADS.values():
        inp, expect = workloads.make_inputs(w, 0), workloads.pinned(pins, w, 0)
        work = tmp_path / w.name
        work.mkdir()
        monkeypatch.chdir(work)
        (work / "one").write_bytes(workloads.SETUP_INPUT)
        (work / "plain").write_bytes(inp.plain)
        (work / "analyze.pgm").write_bytes(inp.analyze_pgm)
        pgm = ["--format", "pgm"] if inp.is_pgm else []
        shape = ["--width", str(inp.width), "--height", str(inp.height)] if pgm else []
        params = w.cli_params()
        calls = {
            "setup": ["encode", "--in", "one", "--out", "one.hfsa", *key, *params],
            "encode": ["encode", "--in", "plain", "--out", "plain.hfsa", *key, *params, *pgm],
            "decode": ["decode", "--in", "plain.hfsa", "--out", "back", *key, *pgm, *shape],
            "analyze": ["analyze", "--plain", "analyze.pgm", *key, *params],
        }
        stdout = {}
        for op, argv in calls.items():
            assert cli.main(argv) == 0, (w.name, op)
            stdout[op] = capsys.readouterr().out
        checks = {
            "setup": sha256((work / "one.hfsa").read_bytes())
            == pins["workloads"][w.name]["setup_sha256"],
            "encode": sha256((work / "plain.hfsa").read_bytes()) == expect["encode_sha256"],
            "decode": (work / "back").read_bytes() == inp.plain,
            "analyze": sha256(stdout["analyze"].encode()) == expect["analyze_sha256"],
        }
        mismatches += [(w.name, op) for op, same in checks.items() if not same]
    assert not mismatches, f"outputs differ from perfbench/pins.json: {mismatches}"


def test_every_pinned_analyze_digest(workloads):
    # the timed run checks the analyze report of whichever variant its seed
    # picks: every pinned variant of every workload reproduces here
    pins, key = workloads.load_pins(), int(workloads.KEY_HEX, 16)
    mismatches = []
    for w in workloads.WORKLOADS.values():
        params = CoderParams(w.n_bits, w.p0_num, w.f_max, w.jump_q)
        for variant in w.variants():
            img = hfsac.parse_pgm(workloads.make_inputs(w, variant).analyze_pgm)
            digest = workloads.sha256(analyze_image(img, params, key).to_text().encode())
            if digest != workloads.pinned(pins, w, variant)["analyze_sha256"]:
                mismatches.append((w.name, variant))
    assert sum(len(w.variants()) for w in workloads.WORKLOADS.values()) == 33
    assert not mismatches, f"analyze reports differ from perfbench/pins.json: {mismatches}"

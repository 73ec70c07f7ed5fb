"""Every package name the benchmark's scripts use resolves.

`perfbench/` reads the package as `hf.<name>` after `import hfsac as hf`
and through `from hfsac... import name`.  Its traced run is not part of
this suite, so a name deleted from the package would otherwise first fail
there.  The scripts are parsed, not run.
"""

import ast
import importlib
from pathlib import Path

import pytest

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

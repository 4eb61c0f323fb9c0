"""What a fresh interpreter loads to run the command line."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# stdlib modules the library has no use for at import time; json is
# imported by to_json and from_json on first call
UNUSED = (
    "dataclasses", "inspect", "ast", "dis", "tokenize",
    "fractions", "decimal", "json", "typing",
)

# prints its result with repr, because importing json up front would
# hide a json import made by the library
PROBE = """
import sys
before = set(sys.modules)
import planemaps.cli
new = sorted(set(sys.modules) - before)
from planemaps.enumerator import _tables, enumerate_maps
from planemaps.maps import PlaneMap
tables = sorted(_tables)
maps = enumerate_maps((4, 2)) + enumerate_maps((3, 1))
trips = sum(PlaneMap.from_json(m.to_json()) == m for m in maps)
print(repr((new, tables, sorted(_tables), trips, len(maps), "json" in sys.modules)))
"""

# the verification engines and the type lists are library code: a
# caller that only checks or lists types parses no arguments
LIBRARY_PROBE = """
import sys
import planemaps.verify, planemaps.counting
print(repr(sorted(name for name in ("argparse", "planemaps.cli") if name in sys.modules)))
"""


def _probe(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    ).stdout


def test_cli_import_loads_no_unused_module():
    out = _probe(PROBE)
    new, tables, used, trips, n_maps, json_loaded = ast.literal_eval(out.strip().splitlines()[-1])
    assert "planemaps.cli" in new
    # the matching tables fill on first use, so start-up builds none
    assert tables == [] and used == [4, 6]
    assert [name for name in UNUSED if name in new] == []
    assert n_maps == 11 and trips == n_maps
    assert json_loaded


def test_verify_import_loads_no_argparse():
    assert ast.literal_eval(_probe(LIBRARY_PROBE).strip().splitlines()[-1]) == []


def test_oracles_are_assert_rewritten():
    # rewritten asserts are plain raises, so the oracles still check under python -O
    from _pytest.assertion.rewrite import AssertionRewritingHook

    import contour_reference
    import geodesic_reference
    import slit_reference

    for oracle in (slit_reference, contour_reference, geodesic_reference):
        assert isinstance(oracle.__loader__, AssertionRewritingHook), oracle.__name__


# what an oracle may take from the library: the error classes it raises
# like the library does, and the workspace the slit oracle cuts in
ORACLE_IMPORTS = {("planemaps.surgery", "Slit"), ("planemaps.surgery", "Workspace")}


def test_oracles_import_no_checked_code():
    # an oracle that calls the library's own check checks nothing
    found = []
    for path in sorted(Path(__file__).parent.glob("*_reference.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [(alias.name, None) for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [(node.module or "", alias.name) for alias in node.names]
            else:
                continue
            for module, name in names:
                if module.split(".")[0] != "planemaps" or (module, name) in ORACLE_IMPORTS:
                    continue
                if module != "planemaps.errors" or name in (None, "*"):
                    found.append(f"{path.name}:{node.lineno} {module} {name}")
    assert found == []


def _unused_imports(path: Path) -> list[str]:
    """Names path imports and never reads, as 'file:line name'.

    An import on a line marked ``# noqa: F401``, a name listed in
    ``__all__`` and ``from __future__`` imports are exempt.
    """
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in read and "# noqa: F401" not in lines[alias.lineno - 1]:
                unused.append(f"{path.name}:{alias.lineno} {name}")
    return unused


def test_library_has_no_unused_import():
    # a stdlib stand-in for a linter's unused-import rule (F401)
    unused = [u for path in sorted((SRC / "planemaps").glob("*.py")) for u in _unused_imports(path)]
    assert unused == []

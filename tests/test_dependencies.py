"""Every third-party module the package imports is a declared dependency, at a
floor that has every feature the package uses, and the package leaves
scipy.stats unloaded."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

try:
    import tomllib  # in the standard library from Python 3.11
except ModuleNotFoundError:
    tomllib = pytest.importorskip("tomli")  # the same API, for Python 3.10

ROOT = Path(__file__).resolve().parents[1]


def _imported_names(path: Path) -> set[str]:
    """Dotted names of a file's absolute imports: ``import a.b`` gives a.b,
    ``from a import b`` gives a.b."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


def _package_imports() -> set[str]:
    names = set()
    for path in sorted((ROOT / "src" / "tgne").glob("*.py")):
        names |= _imported_names(path)
    return names


def test_third_party_imports_are_declared():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    # a requirement's distribution name, normalized; each of ours imports as that name
    declared = {
        re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_")
        for req in project["dependencies"]
    }
    imported = {name.split(".")[0] for name in _package_imports()}
    third_party = imported - set(sys.stdlib_module_names) - {"__future__", "tgne"}
    assert third_party, "found no third-party import: the scan is broken"
    assert third_party <= declared, f"undeclared: {sorted(third_party - declared)}"


def test_package_does_not_import_scipy_stats():
    # importing scipy.stats costs ~21 MB of resident memory in every process
    imported = _package_imports()
    assert "scipy.optimize.minimize" in imported, "the scan is broken"
    stats = sorted(n for n in imported if n == "scipy.stats" or n.startswith("scipy.stats."))
    assert not stats, f"src/tgne imports {stats}"


def _module_imports(tree: ast.AST, with_type_checking: bool) -> set[str]:
    """Dotted names a module imports, relative imports resolved under tgne;
    the bodies of ``if TYPE_CHECKING:`` are left out unless asked for."""
    names = set()
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.If) and ast.unparse(node.test).endswith("TYPE_CHECKING"):
            body = node.body + node.orelse if with_type_checking else node.orelse
            names |= _module_imports(ast.Module(body=body, type_ignores=[]), with_type_checking)
            continue
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["tgne" if node.level else "", node.module]))
            names.update(f"{base}.{alias.name}" for alias in node.names)
        names |= _module_imports(node, with_type_checking)
    return names


def test_expectations_is_a_leaf_at_run_time():
    # model and inference import the moments, so the moments may not import them back
    tree = ast.parse((ROOT / "src" / "tgne" / "expectations.py").read_text(encoding="utf-8"))
    assert "tgne.inference.VariationalState" in _module_imports(tree, True), "the scan is broken"
    run_time = _module_imports(tree, False)
    assert "numpy" in run_time, "the scan is broken"
    layers = sorted(n for n in run_time if n.startswith("tgne.") and n.split(".")[1] != "events")
    assert not layers, f"expectations.py imports {layers} at run time; only tgne.events may be"
    scipy = sorted(n for n in run_time if n.split(".")[0] == "scipy")
    assert not scipy, f"expectations.py imports {scipy}"


FRESH_IMPORT = """
import sys
import scipy.optimize, scipy.sparse, scipy.special
if "scipy.stats" in sys.modules:
    print("preloaded")
else:
    import tgne, tgne.cli
    print("loaded" if "scipy.stats" in sys.modules else "clean")
"""


def test_fresh_import_leaves_scipy_stats_out():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", FRESH_IMPORT], capture_output=True, text=True, env=env, check=True
    ).stdout.strip()
    if out == "preloaded":
        pytest.skip("this SciPy loads scipy.stats itself from special, sparse or optimize")
    assert out == "clean", "importing tgne.cli loaded scipy.stats"


# the lowest release of each dependency that has what the package uses
FLOORS = {
    "numpy": ((2, 0), "np.vecdot, in evaluation"),
    # fit_lsdm's callback(intermediate_result) needs scipy 1.11, and scipy's
    # first wheels built against numpy 2 are 1.13
    "scipy": ((1, 13), "minimize's callback(intermediate_result) against numpy 2"),
}


def _declared_floors() -> dict[str, tuple[int, ...]]:
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    floors = {}
    for req in project["dependencies"]:
        found = re.fullmatch(r"([A-Za-z0-9_.-]+)\s*>=\s*([0-9.]+)", req.strip())
        if found:
            floors[found.group(1).lower()] = tuple(int(x) for x in found.group(2).split("."))
    return floors


@pytest.mark.parametrize("name", sorted(FLOORS))
def test_declared_floor_has_what_the_package_uses(name):
    floor, needs = FLOORS[name]
    declared = _declared_floors().get(name)
    assert declared is not None, f"{name} has no '>=' floor in pyproject.toml"
    assert declared >= floor, f"{name}>={declared} is below {floor}, which {needs} needs"

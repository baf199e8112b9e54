"""The package imports from its declared dependencies alone.

Every third-party module that ``src/repro`` imports must be named in
``pyproject.toml``'s ``[project] dependencies``, or a clean install fails
at import time.
"""

import ast
import importlib.util
import os
import re
import subprocess
import sys
import sysconfig
from pathlib import Path

try:
    import tomllib
except ModuleNotFoundError:  # Python < 3.11; pytest itself requires tomli
    import tomli as tomllib

import repro

PACKAGE = Path(repro.__file__).resolve().parent
PYPROJECT = PACKAGE.parent.parent / "pyproject.toml"


def _is_stdlib(name: str) -> bool:
    names = getattr(sys, "stdlib_module_names", None)  # Python >= 3.10
    if names is not None:
        return name in names
    if name in sys.builtin_module_names:
        return True
    spec = importlib.util.find_spec(name)
    if spec is None or spec.origin is None:
        return False
    if spec.origin in ("built-in", "frozen"):
        return True
    origin = os.path.realpath(spec.origin)
    roots = {os.path.realpath(sysconfig.get_paths()[key])
             for key in ("stdlib", "platstdlib")}
    return (not re.search(r"[/\\](site|dist)-packages[/\\]", origin)
            and any(origin.startswith(root + os.sep) for root in roots))


def _imported_top_levels():
    """Top-level module name -> first file importing it, over the package."""
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                found.setdefault(name.split(".")[0],
                                 path.relative_to(PACKAGE.parent))
    return found


def _declared():
    project = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]
    return {re.match(r"[A-Za-z0-9_.\-]+", req).group(0).lower()
            .replace("-", "_") for req in project["dependencies"]}


def test_every_third_party_import_is_declared():
    imported = _imported_top_levels()
    assert "numpy" in imported  # the walk sees the package's imports
    third_party = {name: where for name, where in imported.items()
                   if name != "repro" and not _is_stdlib(name)}
    undeclared = {name: str(where) for name, where in third_party.items()
                  if name.lower() not in _declared()}
    assert not undeclared, f"imported but not in pyproject.toml: {undeclared}"


def test_import_does_not_load_networkx():
    """A plain import loads no networkx, no test-support oracle and no
    calendar queue: production modules never import them."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE.parent)] + [p for p in [env.get("PYTHONPATH")] if p])
    code = ("import sys, repro, repro.experiments, repro.service; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == "
            "'networkx' or m == 'repro.oracles' or m.startswith('repro.') "
            "and ('calendar' in m or 'calqueue' in m)))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"

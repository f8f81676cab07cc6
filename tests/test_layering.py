"""Layering guards.

The CLI uses only public package names.  It may not reach a
`_`-prefixed name of any knitrect module, neither as an attribute
(`pl._run_bundle`) nor through an import (`from .series import
_open_text`).

Which networks train together in lockstep is decided in knitrect.mlp
alone: no other package module names `lockstep_groups`.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "knitrect"
CHECKED = [PACKAGE / "cli.py"]
GUARDED = tuple(sorted(p.stem for p in PACKAGE.glob("*.py") if not p.stem.startswith("__")))


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _imports_from_guarded(module: str | None, level: int) -> bool:
    """Whether a from-import names a guarded module (`.cli`, `knitrect.cli`)."""
    name = module or ""
    if level == 0 and name.startswith("knitrect."):
        name = name[len("knitrect.") :]
    elif level != 1:
        return False
    return name in GUARDED


def reach_ins(source: str) -> list[str]:
    """Every private name of a guarded module that the source touches."""
    tree = ast.parse(source)
    modules = {}  # local name -> guarded module it is bound to
    packages = set()  # local names bound to the knitrect package
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] != "knitrect":
                    continue
                if alias.asname is None or len(parts) == 1:
                    packages.add(alias.asname or "knitrect")
                elif len(parts) == 2 and parts[1] in GUARDED:
                    modules[alias.asname] = parts[1]
        elif isinstance(node, ast.ImportFrom):
            if (node.level, node.module) in ((1, None), (0, "knitrect")):
                for alias in node.names:
                    if alias.name in GUARDED:
                        modules[alias.asname or alias.name] = alias.name
            elif _imports_from_guarded(node.module, node.level):
                found += [f"line {node.lineno}: from {node.module} import {a.name}" for a in node.names if _private(a.name)]
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and _private(node.attr)):
            continue
        base = node.value
        if isinstance(base, ast.Name) and base.id in modules:
            found.append(f"line {node.lineno}: {base.id}.{node.attr}")
        elif (
            isinstance(base, ast.Attribute)
            and base.attr in GUARDED
            and isinstance(base.value, ast.Name)
            and base.value.id in packages
        ):
            found.append(f"line {node.lineno}: {base.value.id}.{base.attr}.{node.attr}")
    return found


@pytest.mark.parametrize("path", CHECKED, ids=lambda p: p.name)
def test_no_private_reach_ins(path):
    assert reach_ins(path.read_text()) == []


@pytest.mark.parametrize(
    "source",
    [
        "from . import pipeline as pl\npl._run_bundle(b, r)",
        "from knitrect import pipeline\npipeline._score(p, q)",
        "import knitrect.pipeline as pl\npl._target_column",
        "import knitrect as kr\nkr.pipeline._run_bundle",
        "from knitrect.cli import _parse_indices",
        "from .cli import _parse_indices",
        "def f():\n    from .pipeline import _score\n",
        "from .series import _open_text",
        "from knitrect.simulate import _role",
        "from . import errors\nerrors._finite(x)",
    ],
)
def test_guard_flags_each_kind_of_reach_in(source):
    assert len(reach_ins(source)) == 1


def test_guard_allows_public_and_dunder_names():
    src = "import knitrect as kr\nfrom . import pipeline as pl\nkr.evaluate\npl.evaluate\nkr.__version__\n"
    assert reach_ins(src) == []


def lockstep_group_references(source: str) -> list[int]:
    """Lines that name lockstep_groups: in an import, as a name or as an attribute."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        if "lockstep_groups" in names:
            found.append(node.lineno)
    return found


@pytest.mark.parametrize("path", [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "mlp.py"], ids=lambda p: p.name)
def test_only_mlp_forms_lockstep_groups(path):
    assert lockstep_group_references(path.read_text()) == []


@pytest.mark.parametrize(
    "source",
    [
        "from .mlp import lockstep_groups",
        "from . import mlp\nmlp.lockstep_groups(sizes)",
        "import knitrect as kr\nkr.mlp.lockstep_groups",
        "from .mlp import lockstep_groups as split\nsplit(sizes)",
    ],
)
def test_lockstep_guard_flags_each_kind_of_reference(source):
    assert len(lockstep_group_references(source)) == 1


def test_lockstep_guard_sees_mlp_itself():
    assert lockstep_group_references((PACKAGE / "mlp.py").read_text())

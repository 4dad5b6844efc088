"""Every top-level import in src/ridgelab is used by its module.

The one exception is a name imported only so that the benchmark tracer can
wrap it where the module looks it up: the import carries a comment saying
"ridgebench/tracer.py wraps" and the name has an entry for its module in
ridgebench/tracer.py's PATCHES, which this test reads without importing.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ridgelab"
TRACER = ROOT / "ridgebench" / "tracer.py"
TRACER_NOTE = "ridgebench/tracer.py wraps"


def tracer_patches() -> set:
    """(module, name) for each PATCHES entry of ridgebench/tracer.py."""
    if not TRACER.exists():
        return set()
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "PATCHES" for t in node.targets
        ):
            return {
                (entry.elts[0].value, entry.elts[1].value.split(".")[0])
                for entry in node.value.elts
            }
    raise AssertionError("ridgebench/tracer.py defines no PATCHES")


def used_names(tree: ast.Module) -> set:
    """Names the module reads, plus the strings of its __all__."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts}
    return used


def unused_imports(path: Path, patches: set) -> list:
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    used = used_names(tree)
    module = f"ridgelab.{path.stem}"
    found = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        noted = any(
            TRACER_NOTE in line
            for line in lines[max(node.lineno - 2, 0):node.end_lineno]
        )
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name in used or (noted and (module, name) in patches):
                continue
            found.append(f"{path.name}:{node.lineno} {name}")
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_top_level_import(path):
    assert unused_imports(path, tracer_patches()) == []


def test_tracer_note_needs_a_patches_entry(tmp_path):
    module = tmp_path / "simlab.py"
    module.write_text(
        "# unused here; ridgebench/tracer.py wraps this name at this module\n"
        "from .riskengine import theoretical_risk, lq_risk  # noqa: F401\n"
        "import numpy as np\n"
    )
    patches = {("ridgelab.simlab", "theoretical_risk")}
    assert unused_imports(module, patches) == ["simlab.py:2 lq_risk", "simlab.py:3 np"]
    assert unused_imports(module, set()) == [
        "simlab.py:2 theoretical_risk", "simlab.py:2 lq_risk", "simlab.py:3 np"
    ]

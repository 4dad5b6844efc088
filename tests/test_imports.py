"""Every top-level import in src/ridgelab is used by its module, no
module imports a scipy submodule at import time, no module refers to
scipy.special at all, and the modules import each other along the stated
layers of LAYERS, with no cycle.

The one exception to the first rule is a name imported only so that the
benchmark tracer can wrap it where the module looks it up: the import
carries a comment saying "ridgebench/tracer.py wraps" and the name has an
entry for its module in ridgebench/tracer.py's PATCHES, which this test
reads without importing.

The second rule keeps `import ridgelab` at the cost of the top-level scipy
package: a module imports `scipy` and looks `scipy.linalg` or
`scipy.special` up when a function runs, which loads that submodule then
(tests/test_cli.py checks which submodules each command loads).

The third rule keeps every command off scipy.special, which costs about
24 MB of resident memory and 0.3 s to load: the package computes its
normal quantiles and t(10) draws without it (stats.py). A lookup such as
`scipy.special.ndtri` inside a function would load it with no import
statement to see, so the rule reads attribute chains too.
"""

import ast
import textwrap
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


def scipy_submodule_imports(source: str, name: str = "<module>") -> list:
    """The imports of a scipy submodule that run when the module is imported:
    `import scipy.x`, `from scipy import x` and `from scipy.x import y`
    anywhere outside a function body."""
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(child, ast.Import):
                found.extend(
                    f"{name}:{child.lineno} {alias.name}"
                    for alias in child.names if alias.name.startswith("scipy.")
                )
            elif isinstance(child, ast.ImportFrom) and child.level == 0 and (
                child.module == "scipy" or (child.module or "").startswith("scipy.")
            ):
                found.append(f"{name}:{child.lineno} from {child.module} import "
                             + ", ".join(alias.name for alias in child.names))
            visit(child)

    visit(ast.parse(source))
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_level_scipy_submodule_import(path):
    assert scipy_submodule_imports(path.read_text(), path.name) == []


def test_scipy_submodule_rule_sees_every_form():
    source = textwrap.dedent(
        """
        import scipy
        import scipy.linalg
        from scipy import special
        from scipy.special import ndtri
        try:
            import scipy.stats as st
        except ImportError:
            pass

        class C:
            from scipy import optimize

        def f():
            import scipy.linalg
            from scipy import special
            return scipy.linalg, special
        """
    )
    assert scipy_submodule_imports(source) == [
        "<module>:3 scipy.linalg",
        "<module>:4 from scipy import special",
        "<module>:5 from scipy.special import ndtri",
        "<module>:7 scipy.stats",
        "<module>:12 from scipy import optimize",
    ]


def scipy_special_references(source: str, name: str = "<module>") -> list:
    """Every reference to scipy.special, at any depth: `import scipy.special`,
    `from scipy import special`, `from scipy.special import x` and the
    attribute `scipy.special` (under any name `import scipy` bound)."""
    tree = ast.parse(source)
    scipy_names = {"scipy"} | {
        alias.asname
        for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names if alias.name == "scipy" and alias.asname
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.extend(
                (node.lineno, f"import {alias.name}") for alias in node.names
                if alias.name == "scipy.special" or alias.name.startswith("scipy.special.")
            )
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and (
            (node.module == "scipy" and any(a.name == "special" for a in node.names))
            or (node.module or "").split(".")[:2] == ["scipy", "special"]
        ):
            found.append((node.lineno, f"from {node.module} import "
                          + ", ".join(alias.name for alias in node.names)))
        elif (isinstance(node, ast.Attribute) and node.attr == "special"
              and isinstance(node.value, ast.Name) and node.value.id in scipy_names):
            found.append((node.lineno, f"{node.value.id}.special"))
    return [f"{name}:{line} {text}" for line, text in sorted(found)]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_scipy_special_reference(path):
    assert scipy_special_references(path.read_text(), path.name) == []


def test_scipy_special_rule_sees_every_form():
    source = textwrap.dedent(
        """
        import scipy
        import scipy as sp
        import scipy.special
        import scipy.special.cython_special as cs
        from scipy import linalg, special
        from scipy.special import ndtri

        def f(p):
            import scipy.linalg
            from scipy.special._ufuncs import ndtr
            return scipy.special.ndtri(p) + sp.special.ndtr(p) + scipy.linalg.norm(p)

        g = lambda p: scipy.special.erf(p)
        """
    )
    assert scipy_special_references(source) == [
        "<module>:4 import scipy.special",
        "<module>:5 import scipy.special.cython_special",
        "<module>:6 from scipy import linalg, special",
        "<module>:7 from scipy.special import ndtri",
        "<module>:11 from scipy.special._ufuncs import ndtr",
        "<module>:12 scipy.special",
        "<module>:12 sp.special",
        "<module>:14 scipy.special",
    ]


# module -> the ridgelab modules its module-level `from .x import` lines
# name. The data side (regress) reads no theory engine (fixedpoint,
# riskengine) and no front end (simlab, cli).
LAYERS = {
    "_version": set(),
    "errors": set(),
    "rng": {"errors"},
    "stats": {"errors"},
    "spectrum": {"errors"},
    "fixedpoint": {"errors", "spectrum"},
    "riskengine": {"errors", "fixedpoint", "spectrum"},
    "regress": {"errors", "rng", "spectrum", "stats"},
    "dataio": {"_version", "errors", "regress", "spectrum"},
    "simlab": {"dataio", "errors", "fixedpoint", "regress", "riskengine", "rng", "spectrum",
               "stats"},
    "cli": {"_version", "dataio", "errors", "fixedpoint", "regress", "riskengine", "simlab",
            "spectrum"},
    "__main__": {"cli"},
    "__init__": {"_version", "errors", "fixedpoint", "regress", "riskengine", "rng", "simlab",
                 "spectrum"},
}
# (module, module it imports) for each import inside a function: spectrum's
# real_array reads dataio's array payloads, and dataio imports spectrum
FUNCTION_LEVEL = {("spectrum", "dataio")}


def package_imports(source: str) -> tuple[set, set]:
    """The ridgelab modules a module names in `from .x import` and
    `from . import x`: those outside any function body, and those inside one."""
    outside, inside = set(), set()

    def visit(node, found):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ImportFrom) and child.level == 1:
                found |= ({child.module.split(".")[0]} if child.module
                          else {alias.name for alias in child.names})
            in_function = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            visit(child, inside if in_function else found)

    visit(ast.parse(source), outside)
    return outside, inside


def import_cycle(graph: dict) -> list:
    """A cycle [a, b, ..., a] of graph {node: nodes it points to}, or []."""
    done, path = set(), []

    def walk(node) -> list:
        if node in path:
            return path[path.index(node):] + [node]
        if node in done:
            return []
        path.append(node)
        for target in sorted(graph.get(node, ())):
            found = walk(target)
            if found:
                return found
        path.pop()
        done.add(node)
        return []

    for node in sorted(graph):
        found = walk(node)
        if found:
            return found
    return []


def package_graph() -> tuple[dict, set]:
    graph, function_level = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        outside, inside = package_imports(path.read_text())
        graph[path.stem] = outside
        function_level |= {(path.stem, target) for target in inside}
    return graph, function_level


def test_modules_import_along_the_stated_layers():
    graph, function_level = package_graph()
    assert graph == LAYERS
    assert function_level == FUNCTION_LEVEL


def test_data_side_imports_no_theory_engine_and_no_front_end():
    graph, _ = package_graph()
    assert graph["regress"].isdisjoint({"riskengine", "fixedpoint", "simlab", "cli"})


def test_no_module_level_import_cycle():
    graph, _ = package_graph()
    assert import_cycle(graph) == []


def test_layer_rules_see_cycles_and_function_level_imports():
    assert import_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}, "d": set()}) == ["a", "b", "c", "a"]
    assert import_cycle({"a": {"b"}, "b": set(), "c": {"a", "b"}}) == []
    source = textwrap.dedent(
        """
        from . import dataio
        from .errors import InputError
        from .spectrum.sub import x

        def f():
            from .regress import Dataset
            return Dataset
        """
    )
    assert package_imports(source) == ({"dataio", "errors", "spectrum"}, {"regress"})

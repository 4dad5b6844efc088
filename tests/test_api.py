"""The package exports what the README's API table lists, and nothing else.

The table is the one under "## Package layout" in README.md: one row per
exported name, its first cell the name in backticks. The distribution that
pyproject.toml builds is named ridgelab and takes its version from the package.
"""

import re
from pathlib import Path

import pytest

import ridgelab

ROOT = Path(__file__).resolve().parents[1]


def api_table(text: str) -> list:
    """The names in the first cells of the table under "## Package layout"."""
    section = text.split("\n## Package layout\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\| `([^`]+)` \|", section, re.M)


def test_all_is_the_readme_api_table():
    names = api_table((ROOT / "README.md").read_text())
    assert len(names) == len(set(names)), "a name has two rows"
    assert set(ridgelab.__all__) == set(names)
    assert len(ridgelab.__all__) == len(set(ridgelab.__all__))


def test_every_exported_name_resolves():
    for name in ridgelab.__all__:
        assert getattr(ridgelab, name) is not None, name


def test_api_table_reads_rows_of_its_section_only():
    text = (
        "## Quick start\n\n| `early` | x |\n\n## Package layout\n\n"
        "| Name | Module | What it is |\n| --- | --- | --- |\n"
        "| `a` | `m` | one |\n| `b_c` | `m` | two |\n\nprose `d`\n\n## Next\n\n| `late` | y |\n"
    )
    assert api_table(text) == ["a", "b_c"]


def test_pyproject_names_the_package_and_reads_its_version():
    tomllib = pytest.importorskip("tomllib")
    meta = tomllib.loads((ROOT / "pyproject.toml").read_text())
    project = meta["project"]
    assert project["name"] == "ridgelab"
    assert "version" not in project and project["dynamic"] == ["version"]
    version = meta["tool"]["setuptools"]["dynamic"]["version"]
    assert version == {"attr": "ridgelab._version.__version__"}

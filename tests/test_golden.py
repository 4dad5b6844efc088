"""Every command's output bytes, held to the committed goldens in tests/golden/.

One child process runs tests/golden/regen.py --out, which runs every case
at one BLAS thread, and each case's files are compared byte for byte with
tests/golden/expected/<case>/. A mismatch names, per file and per column,
how many cells differ and the largest relative difference among the
numeric ones, next to the builds that wrote the goldens and the ones
running now. The test does not skip on another numpy or BLAS build: the
goldens hold the bytes, and a build that moves them fails here with the
size of the move. A change that moves outputs on purpose reruns
`python tests/golden/regen.py` and commits the new expected/ with it.
"""

import json
import math
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
EXPECTED = GOLDEN / "expected"
CASES = sorted(path.name for path in EXPECTED.iterdir())


@pytest.fixture(scope="module")
def actual(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("golden") / "actual"
    done = subprocess.run(
        [sys.executable, str(GOLDEN / "regen.py"), "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return out


def columns(name: str, text: str) -> dict:
    """A file's cells by column: a CSV's header names its columns (its
    `# seed=` line is one more), each `key=value` line of stdout is the
    column `key`, and any other file is one column of lines."""
    lines = text.splitlines()
    if name.endswith(".csv"):
        table = {"#": [line for line in lines if line.startswith("#")]}
        rows = [line.split(",") for line in lines if not line.startswith("#")]
        header, body = (rows[0], rows[1:]) if rows else ([], [])
        for i, column in enumerate(header):
            table[column] = [row[i] if i < len(row) else "" for row in body]
        table["(row length)"] = [str(len(row)) for row in body]
        return table
    if name == "stdout.txt":
        return {key: [value] for key, _, value in (line.partition("=") for line in lines)}
    return {"(line)": lines}


def relative_difference(a: str, b: str) -> float:
    try:
        x, y = float(a), float(b)
    except ValueError:
        return math.nan
    if x == y:
        return 0.0
    return abs(x - y) / max(abs(x), abs(y))


def describe_mismatch(name: str, expected: str, actual: str) -> list:
    """One line per column that differs: its differing-cell count and the
    largest relative difference of its numeric cells."""
    want, got = columns(name, expected), columns(name, actual)
    found = []
    for column in sorted(set(want) | set(got), key=lambda c: (c not in want, c)):
        a, b = want.get(column, []), got.get(column, [])
        cells = max(len(a), len(b))
        a, b = a + [""] * (cells - len(a)), b + [""] * (cells - len(b))
        differ = [(x, y) for x, y in zip(a, b) if x != y]
        if differ:
            worst = max((relative_difference(x, y) for x, y in differ), default=math.nan)
            worst = "none numeric" if math.isnan(worst) else f"{worst:.3g}"
            found.append(f"{name} column {column!r}: {len(differ)} of {cells} cells differ, "
                         f"largest relative difference {worst}")
    return found


def builds() -> str:
    manifest = json.loads((GOLDEN / "manifest.json").read_text())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"goldens: python {manifest['python']}, numpy {manifest['numpy']}, "
            f"{manifest['blas']['name']} {manifest['blas']['version']}; "
            f"here: python {platform.python_version()}, numpy {np.__version__}, "
            f"{blas.get('name')} {blas.get('version')}")


@pytest.mark.parametrize("case", CASES)
def test_command_output_matches_golden(actual, case):
    want_dir, got_dir = EXPECTED / case, actual / case
    want_files = sorted(path.name for path in want_dir.iterdir())
    assert sorted(path.name for path in got_dir.iterdir()) == want_files
    problems = []
    for name in want_files:
        expected, got = (want_dir / name).read_text(), (got_dir / name).read_text()
        if got != expected:
            problems += describe_mismatch(name, expected, got)
    assert not problems, "\n".join([builds(), *problems])


def test_cases_are_the_manifest_cases():
    manifest = json.loads((GOLDEN / "manifest.json").read_text())
    assert sorted(manifest["cases"]) == CASES


def test_mismatch_report_counts_cells_per_column():
    expected = "# seed=1\neta,kind,risk\n0.0,est,1.0\n0.5,est,2.0\n"
    actual = "# seed=1\neta,kind,risk\n0.0,est,1.0000000000000002\n0.5,pred,2.0\n"
    assert describe_mismatch("a.csv", expected, actual) == [
        "a.csv column 'kind': 1 of 2 cells differ, largest relative difference none numeric",
        "a.csv column 'risk': 1 of 2 cells differ, largest relative difference 2.22e-16",
    ]
    assert describe_mismatch("stdout.txt", "tau=1.0\nm=3\n", "tau=1.5\nm=3\n") == [
        "stdout.txt column 'tau': 1 of 1 cells differ, largest relative difference 0.333"
    ]
    assert describe_mismatch("stdout.txt", "m=3\n", "m=3\nn=4\n") == [
        "stdout.txt column 'n': 1 of 1 cells differ, largest relative difference none numeric"
    ]

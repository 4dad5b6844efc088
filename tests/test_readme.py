"""The README's Python quick starts run and print what their comments say.

Each ```python block runs in a fresh interpreter. Every top-level print
call carries its expected output in a comment, on the call's last line
or on the comment line right after it: the comment's leading numbers, as
"a", "a, b" or "(a, b, c)". A number is rounded to the digits it shows,
or cut short there when it ends in "...".
"""

import ast
import io
import os
import re
import subprocess
import sys
import tokenize
from decimal import Decimal
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.S | re.M)
NUMBER = r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?"
CLAIMED = rf"{NUMBER}(?:\.\.\.)?"
LEADING = re.compile(rf"\(?({CLAIMED}(?:, {CLAIMED})*)")


def printed_claims(block: str) -> list:
    """The claimed numbers, as text, of each top-level print call in order."""
    tokens = tokenize.generate_tokens(io.StringIO(block).readline)
    comments = {tok.start[0]: tok for tok in tokens if tok.type == tokenize.COMMENT}
    claims = []
    for stmt in ast.parse(block).body:
        call = stmt.value if isinstance(stmt, ast.Expr) else None
        if not (isinstance(call, ast.Call) and getattr(call.func, "id", None) == "print"):
            continue
        end = stmt.end_lineno
        comment = comments.get(end)
        below = comments.get(end + 1)
        if comment is None and below is not None and below.line.lstrip().startswith("#"):
            comment = below
        assert comment is not None, f"print on README block line {end} has no comment"
        match = LEADING.match(comment.string.lstrip("#").strip())
        assert match, f"comment {comment.string!r} states no number"
        claims.append(match.group(1).split(", "))
    return claims


def agrees(value: str, claim: str) -> bool:
    """value rounds to claim at claim's precision, or starts with its digits
    when claim ends in "..."."""
    cut = claim.endswith("...")
    digits = claim.removesuffix("...")
    unit = Decimal(1).scaleb(Decimal(digits).as_tuple().exponent)
    gap = Decimal(value) - Decimal(digits)
    if cut:
        gap = gap.copy_negate() if digits.startswith("-") else gap
        return 0 <= gap < unit
    return abs(gap) <= unit / 2


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_prints_its_comments(block):
    src = str(ROOT / "src")
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", block],
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    claims = printed_claims(block)
    assert len(lines) == len(claims), proc.stdout
    for line, claim in zip(lines, claims):
        values = re.findall(NUMBER, line)
        assert len(values) == len(claim), (line, claim)
        for value, expected in zip(values, claim):
            assert agrees(value, expected), (line, claim)


def test_agrees_reads_each_claim_form():
    assert agrees("0.9525", "0.953") and agrees("0.9525", "0.952")
    assert not agrees("0.9526", "0.952")
    assert agrees("1.0000000000000002", "1.0") and agrees("5.0", "5.0")
    assert agrees("0.7807764064044156", "0.7807764...")
    assert not agrees("0.7807763999", "0.7807764...")
    assert not agrees("0.7807765", "0.7807764...")
    assert agrees("-0.21922359", "-0.2192235...") and not agrees("-0.2192236", "-0.2192235...")
    assert agrees("1e-05", "1e-05") and not agrees("0.9", "0.8")


def test_printed_claims_reads_each_comment_form():
    block = (
        "x = 1.0  # 2.0, not checked: no print\n"
        "print(x, 5.0)  # 1.0, 5.0\n"
        "print(x)\n"
        "# (0.78..., 0.21...) = the risks\n"
        "print(x)  # 1.5 = phi gamma^2 - sigma^2\n"
        "print(\n"
        "    x)  # 1.003125, grid point nearest eta*\n"
    )
    assert printed_claims(block) == [
        ["1.0", "5.0"], ["0.78...", "0.21..."], ["1.5"], ["1.003125"]
    ]
    with pytest.raises(AssertionError, match="has no comment"):
        printed_claims("print(1)\ny = 2  # 2\n")

"""The eta = 0 rule on a sample lives in one place, GramSweep.shift.

Every fit, residual and estimator in src/ridgelab/regress.py divides by
the Gram spectrum shifted by eta, and shift refuses eta = 0 on a Gram
matrix that is not safely invertible. A function that added eta to the
spectrum itself would skip that check, so this test reads regress.py and
finds every `s + ...` or `<x>.s + ...` outside GramSweep.shift.
"""

import ast
from pathlib import Path

REGRESS = Path(__file__).resolve().parents[1] / "src" / "ridgelab" / "regress.py"


def _is_spectrum(node: ast.expr) -> bool:
    return (isinstance(node, ast.Name) and node.id == "s") or (
        isinstance(node, ast.Attribute) and node.attr == "s"
    )


def spectrum_shifts(source: str) -> list:
    """Qualified names of the functions holding a BinOp(Add) with the
    spectrum, s or <x>.s, as an operand, once per such BinOp."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}{child.name}.")
                continue
            if isinstance(child, ast.BinOp) and isinstance(child.op, ast.Add):
                if _is_spectrum(child.left) or _is_spectrum(child.right):
                    found.append(scope.rstrip(".") or "<module>")
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


def test_only_gram_sweep_shift_adds_eta_to_the_spectrum():
    assert spectrum_shifts(REGRESS.read_text()) == ["GramSweep.shift"]


def test_spectrum_shifts_finds_each_form():
    source = (
        "class GramSweep:\n"
        "    def shift(self, eta):\n"
        "        return self.s + eta\n"
        "    def tau_hat(self, eta):\n"
        "        return 1.0 / (eta + self.s)\n"
        "def df_hat(data, eta):\n"
        "    s = data.sweep.s\n"
        "    return s / (s + eta) + (lambda: data.sweep.s + 1)()\n"
    )
    assert spectrum_shifts(source) == [
        "GramSweep.shift", "GramSweep.tau_hat", "df_hat", "df_hat"
    ]

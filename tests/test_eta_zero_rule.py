"""The eta rules on a sample live in one place, GramSweep.shift.

Every fit, residual and estimator in src/ridgelab/regress.py divides by
the Gram spectrum shifted by eta, and shift refuses an eta outside its
band, and eta = 0 unless m < n and X X^T is safely invertible. A function
that added eta to the spectrum itself would skip those checks, and one
that raised WrongRegime or called check_eta itself would be a second
owner of a rule, so these tests read regress.py and find every `s + ...`
or `<x>.s + ...`, every `raise WrongRegime` outside GramSweep.shift and
every check_eta call outside GramSweep.shift and ridge_fit, whose
Cholesky solve never reads the sweep.
"""

import ast
from pathlib import Path

REGRESS = Path(__file__).resolve().parents[1] / "src" / "ridgelab" / "regress.py"


def _is_spectrum(node: ast.expr) -> bool:
    return (isinstance(node, ast.Name) and node.id == "s") or (
        isinstance(node, ast.Attribute) and node.attr == "s"
    )


def _scopes(source: str, matches) -> list:
    """Qualified names of the functions holding a node that matches, once
    per such node; "<module>" for one outside every function and class."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}{child.name}.")
                continue
            if matches(child):
                found.append(scope.rstrip(".") or "<module>")
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


def spectrum_shifts(source: str) -> list:
    """Where a BinOp(Add) has the spectrum, s or <x>.s, as an operand."""
    return _scopes(source, lambda node: (
        isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
        and (_is_spectrum(node.left) or _is_spectrum(node.right))
    ))


def _names_wrong_regime(exc: ast.expr | None) -> bool:
    if isinstance(exc, ast.Call):
        exc = exc.func
    return (isinstance(exc, ast.Name) and exc.id == "WrongRegime") or (
        isinstance(exc, ast.Attribute) and exc.attr == "WrongRegime"
    )


def regime_raises(source: str) -> list:
    """Where a raise statement raises WrongRegime, bare or called, by name
    or as <module>.WrongRegime."""
    return _scopes(source, lambda node: (
        isinstance(node, ast.Raise) and _names_wrong_regime(node.exc)
    ))


def eta_checks(source: str) -> list:
    """Where check_eta is called, by name or as <module>.check_eta."""
    return _scopes(source, lambda node: (
        isinstance(node, ast.Call) and (
            (isinstance(node.func, ast.Name) and node.func.id == "check_eta")
            or (isinstance(node.func, ast.Attribute) and node.func.attr == "check_eta")
        )
    ))


def test_only_gram_sweep_shift_adds_eta_to_the_spectrum():
    assert spectrum_shifts(REGRESS.read_text()) == ["GramSweep.shift"]


def test_only_gram_sweep_shift_raises_wrong_regime():
    assert regime_raises(REGRESS.read_text()) == ["GramSweep.shift"]


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


def test_regime_raises_finds_each_form():
    source = (
        "class GramSweep:\n"
        "    def shift(self, eta):\n"
        "        if eta == 0:\n"
        "            raise WrongRegime(f'eta = 0 requires m < n')\n"
        "    def require_ridgeless(self):\n"
        "        raise WrongRegime\n"
        "def kfold_objective(data, grid, folds):\n"
        "    def refit():\n"
        "        raise errors.WrongRegime('m >= n') from None\n"
        "    raise InputError('not a regime error')\n"
        "if False:\n"
        "    raise WrongRegime()\n"
    )
    assert regime_raises(source) == [
        "GramSweep.shift", "GramSweep.require_ridgeless", "kfold_objective.refit", "<module>"
    ]


def test_only_gram_sweep_shift_and_ridge_fit_check_eta():
    assert eta_checks(REGRESS.read_text()) == ["ridge_fit", "GramSweep.shift"]


def test_eta_checks_finds_each_form():
    source = (
        "from .errors import check_eta, check_eta_grid\n"
        "def ridge_fit(data, eta):\n"
        "    if check_eta(eta) == 0:\n"
        "        raise InputError('eta > 0')\n"
        "class GramSweep:\n"
        "    def shift(self, eta):\n"
        "        return self.s + check_eta(eta)\n"
        "def tau_hat(data, eta):\n"
        "    errors.check_eta(eta, 'eta')\n"
        "    check_eta_grid([eta])\n"
        "    return [check_eta(e) for e in (eta,)]\n"
        "check_eta(0.0)\n"
    )
    assert eta_checks(source) == [
        "ridge_fit", "GramSweep.shift", "tau_hat", "tau_hat", "<module>"
    ]

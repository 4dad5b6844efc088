"""Reference implementations that the tests hold the library to.

Each one computes a quantity the library computes another way, directly
from its definition: a risk from a fit, a dense Sigma from a model's
operators, the full eigenvalue list from its blocks, a CSV's cells from
its text. None of them is part of the package.
"""

import numpy as np

from ridgelab import InputError, RiskKind
from ridgelab.spectrum import sigma_quad


def empirical_risk(kind, fit, data) -> float:
    """One risk of a RidgeFit on its Dataset; every kind but RES needs mu0."""
    if kind == RiskKind.RES:
        return float(fit.r_hat @ fit.r_hat)
    if data.mu0 is None:
        raise InputError(f"risk kind {kind.value!r} needs mu0")
    diff = fit.mu_hat - data.mu0.coords
    if kind == RiskKind.EST:
        return float(diff @ diff)
    if kind == RiskKind.PRED:
        return sigma_quad(data.model, diff)
    if kind == RiskKind.INS:
        xd = data.x @ diff
        return float(xd @ xd) / data.n
    raise InputError(f"unknown risk kind {kind!r}")


def materialize(model):
    """Dense (Sigma, Sigma^{1/2}, Sigma^{-1/2}) from the model's apply."""
    eye = np.eye(model.n)
    sigma = model.apply(lambda lam: lam, eye)
    root = model.apply(np.sqrt, eye)
    inv_root = model.apply(lambda lam: 1.0 / np.sqrt(lam), eye)
    return sigma, root, inv_root


def eigenvalues(model) -> np.ndarray:
    """Full descending eigenvalue list, structured kinds expanded analytically."""
    lam, counts = model.pairs()
    return np.repeat(lam, counts.astype(np.int64))


def read_csv(path) -> tuple[list[str], list[list]]:
    """Read a CSV written by dataio.write_csv; numeric cells come back as floats."""
    with open(path, "r", newline="") as fh:
        raw = [line.rstrip("\n") for line in fh if not line.startswith("#")]
    raw = [line for line in raw if line != ""]
    if not raw:
        raise InputError(f"{path} has no header row")
    header = raw[0].split(",")
    rows = []
    for line in raw[1:]:
        cells = []
        for tok in line.split(","):
            if tok == "":
                cells.append(None)
                continue
            try:
                cells.append(float(tok))
            except ValueError:
                cells.append(tok)
        rows.append(cells)
    return header, rows

"""Reference implementations that the tests hold the library to.

Each one computes a quantity the library computes another way, directly
from its definition: a risk from a fit, the risk formulas from scalars
passed beside the solved params, a dense Sigma from a model's operators,
the full eigenvalue list from its blocks, a CSV's cells from its text,
the normal CDF from math.erf. None of them is part of the package.
"""

import math

import numpy as np

from ridgelab import InputError, RiskKind, derivative_factor
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


def risks_from_scalars(kind, params, sigma_sq, mu_norm_sq, phi) -> tuple:
    """(theoretical, rmt, derivative) of one risk kind at solved params, with
    sigma_sq, ||mu0||^2 and phi passed beside them and the PRED derivative's
    phi recovered from the Stieltjes derivative as m' tau^2 / tau';
    derivative None for RES."""
    tau, gamma_sq, eta, sums = params.tau_star, params.gamma_star_sq, params.eta, params.sums
    res = eta * eta * gamma_sq / (tau * tau)
    theoretical = {
        RiskKind.PRED: tau * tau * sums.signal + gamma_sq * sums.t22,
        RiskKind.EST: tau * tau * sums.signal0 + gamma_sq * sums.t21,
        RiskKind.INS: res + sigma_sq * (phi - 2.0 * eta / tau),
        RiskKind.RES: res,
    }[kind]
    m_val = 1.0 / tau
    m_prime = phi * params.tau_prime / (tau * tau)
    s0 = mu_norm_sq
    core = phi * s0 * m_val - (eta * s0 - sigma_sq) * m_prime
    rmt = {
        RiskKind.PRED: core / (m_val * m_val) - sigma_sq,
        RiskKind.EST: s0 * (1.0 - phi) + sigma_sq * m_val
        + (eta / phi) * (eta * s0 - sigma_sq) * m_prime,
        RiskKind.INS: eta * eta * core / phi + sigma_sq * (phi - 2.0 * eta * m_val),
        RiskKind.RES: eta * eta * core / phi,
    }[kind]
    if kind == RiskKind.RES:
        return theoretical, rmt, None
    if kind == RiskKind.PRED:
        factor = m_prime * tau * tau / params.tau_prime * (-params.tau_second)
    else:
        factor = derivative_factor(kind, params)
    return theoretical, rmt, (eta * s0 - sigma_sq) * factor


def normal_cdf(x: float) -> float:
    """Standard normal CDF via erf."""
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


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

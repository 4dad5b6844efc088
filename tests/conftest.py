"""Shared builders for analytic test configurations."""

import sys
import warnings

import numpy as np
import pytest

from ridgelab import Explicit, Isotropic, ProblemConfig, SignalVector


def iso_problem(
    eta: float = 0.0,
    phi: float = 0.5,
    sigma_sq: float = 1.0,
    scale: float = 1.0,
    n: int = 4,
    radius: float = 1.0,
) -> ProblemConfig:
    """Isotropic instance; the closed forms depend only on phi, eta, radius."""
    coords = np.zeros(n)
    coords[0] = radius
    return ProblemConfig(
        phi=phi,
        eta=eta,
        sigma_sq=sigma_sq,
        model=Isotropic(scale, n),
        mu0=SignalVector(coords),
    )


def random_problem(rng: np.random.Generator, n: int = 40) -> ProblemConfig:
    """Random dense-spectrum instance; eta = 0 only in the overparametrized regime."""
    phi = float(rng.uniform(0.3, 3.0))
    eta = float(rng.uniform(0.0, 2.0)) if phi < 1.0 else float(rng.uniform(0.05, 2.0))
    lam = np.sort(rng.uniform(0.2, 5.0, n))[::-1]
    basis = np.linalg.qr(rng.standard_normal((n, n)))[0]
    mu0 = rng.standard_normal(n)
    mu0 *= rng.uniform(0.2, 1.0) / np.linalg.norm(mu0)
    return ProblemConfig(
        phi=phi,
        eta=eta,
        sigma_sq=float(rng.uniform(0.0, 2.0)),
        model=Explicit(lam, basis),
        mu0=SignalVector(mu0),
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260814)


@pytest.hookimpl(tryfirst=True)
def pytest_runtest_makereport(item, call):
    """Import libcst, with its DeprecationWarning silenced, before a failed
    test is reported. hypothesis's report hook imports it to write the
    failing example, and under a test's filterwarnings("error") mark that
    warning used to end the whole session with INTERNALERROR."""
    if call.excinfo is not None and "libcst" not in sys.modules:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            try:
                import libcst  # noqa: F401
            except ImportError:  # hypothesis then writes no patch
                pass

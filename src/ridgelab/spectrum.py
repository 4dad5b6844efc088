"""Population covariance models and the spectral functionals built on them.

Every theory-side quantity in the library reduces to sums over the spectrum
of the population covariance: trace functionals

    T_{-p,q}(tau) = n^{-1} sum_j lambda_j^q / (lambda_j + tau)^p

and weighted squares of the signal's eigen-coordinates. Structured models
(isotropic, uniform-plus-rank-one) evaluate these analytically from their
one or two distinct eigenvalues, which keeps tight Monte Carlo loops cheap;
explicit models iterate the eigenvalue list.

Every ambient-coordinate quantity is a spectral function f(Sigma), and each
model has one operator pair for it: apply(fn, b) = fn(Sigma) @ b and
diag_fn(fn) = diag(fn(Sigma)). Each calls fn once, on the model's distinct
eigenvalues as an array ([scale] isotropic, [a + b n, a] spiked_uniform,
the eigenvalues explicit), and fn returns one value per entry; apply
refuses a b that is not an ndarray with the model's n rows. Isotropic and
explicit models fix their eigenbasis, so fn may instead return one value
per eigen-position in descending eigenvalue order: fn = lambda _: w
applies the eigenbasis weight diag(w).

All models are immutable after construction and safe to share across
threads. The only interior mutations are write-once caches, filled on first
use: each model's eta-independent spectral sums (_SpectralSums), and a
signal vector's norm and eigen-coordinate masses.
"""

from __future__ import annotations

import functools
from dataclasses import MISSING, dataclass
from typing import Callable, NamedTuple, Union

import numpy as np

from .errors import SPECTRUM_RANGE, InputError, check_all, check_spectrum, choice, coerce
from .errors import check_positive, check_size, dimension, read_object, real, reals


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _dot(w: np.ndarray, v: np.ndarray) -> float:
    """sum w * v in one fused pass.

    einsum's own loop, never BLAS: a BLAS dot may split the sum across
    threads, and its last bit then moves with the BLAS thread count.
    """
    return float(np.einsum("i,i->", w, v))


def _check_rows(b: np.ndarray, n: int) -> None:
    """Refuse an apply operand that is not an ndarray with the model's n rows."""
    if not isinstance(b, np.ndarray):
        raise InputError(f"apply needs an ndarray operand, got {type(b).__name__}")
    if b.shape[:1] != (n,):
        raise InputError(f"apply needs an operand with {n} rows, got shape {b.shape}")


def _scale_rows(w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """diag(w) @ b for b of shape (n,) or (n, k); w has n entries, or one."""
    return w[:, None] * b if b.ndim == 2 else w * b


class _SpectralSums:
    """Eta-independent sums over a model's spectrum, computed once per instance.

    fixedpoint.tau_bounds reads the harmonic mean and bisects block_values,
    block_starts and tail_sums on every solve, O(log blocks) entries per
    call, and resolvent_sums and fixed_point_sums read the weighted spectra
    on every call; caching them on the model ties their lifetime to the
    model's. block_starts and tail_sums have one entry per block of pairs()
    plus one, block_values and the weighted spectra one per block.
    """

    @functools.cached_property
    def inv_harmonic_mean(self) -> float:
        """tr(Sigma^{-1}) / n."""
        return trace_functional(self, 0.0, 1, 0)

    @functools.cached_property
    def block_values(self) -> np.ndarray:
        """block_values[j] = the eigenvalue of the j-th block of pairs()."""
        return _read_only(self.pairs()[0])

    @functools.cached_property
    def block_starts(self) -> np.ndarray:
        """block_starts[j] = number of eigenvalues above the j-th block of pairs()."""
        _, counts = self.pairs()
        return _read_only(np.concatenate(([0.0], np.cumsum(counts))))

    @functools.cached_property
    def tail_sums(self) -> np.ndarray:
        """tail_sums[j] = sum of the eigenvalues in blocks j, j + 1, ... of pairs()."""
        # summed from the smallest block up, so the last entry is exactly 0
        # and no tail suffers cancellation against the total
        suffix = np.cumsum(self.weighted_spectrum[::-1])[::-1]
        return _read_only(np.concatenate((suffix, [0.0])))

    @functools.cached_property
    def weighted_spectrum(self) -> np.ndarray:
        """counts * lambda per block of pairs(): the weights of every T_{-p,1}."""
        lam, counts = self.pairs()
        return _read_only(counts * lam)

    @functools.cached_property
    def weighted_spectrum_sq(self) -> np.ndarray:
        """counts * lambda^2 per block of pairs(): the weights of every T_{-p,2}."""
        return _read_only(self.weighted_spectrum * self.pairs()[0])


@dataclass(frozen=True)
class Isotropic(_SpectralSums):
    """Sigma = scale * I_n."""

    scale: float
    n: int

    kind = "isotropic"

    def __post_init__(self):
        check_spectrum(self.scale, "'scale' of isotropic model")
        check_size(self.n, f"'n' of {self.kind} model")

    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Distinct eigenvalues and their multiplicities."""
        return np.array([self.scale]), np.array([float(self.n)])

    def signal_masses(self, coords: np.ndarray) -> np.ndarray:
        return np.array([_dot(coords, coords)])

    def apply(self, fn: Callable[[np.ndarray], np.ndarray], b: np.ndarray) -> np.ndarray:
        """fn(Sigma) @ b for b of shape (n,) or (n, k)."""
        _check_rows(b, self.n)
        return _scale_rows(fn(np.array([self.scale])), b)

    def diag_fn(self, fn) -> np.ndarray:
        """Diagonal of fn(Sigma) in ambient coordinates."""
        return np.full(self.n, fn(np.array([self.scale])), dtype=np.float64)

    def to_json(self) -> dict:
        return {"kind": "isotropic", "n": self.n, "scale": self.scale}


@dataclass(frozen=True)
class SpikedUniform(_SpectralSums):
    """Sigma = a * I_n + b * ones ones^T, b > 0 and n >= 2.

    Eigenvalues: a + b*n with eigenvector ones/sqrt(n), and a with
    multiplicity n - 1. Use spiked_uniform() if b may be zero or n one.
    """

    a: float
    b: float
    n: int

    kind = "spiked_uniform"

    def __post_init__(self):
        check_spectrum(self.a, "'a' of spiked_uniform model")
        # b = 0 is a valid JSON field, which spiked_uniform() makes Isotropic
        check_spectrum(self.b, "'b' of spiked_uniform model", zero=True)
        if self.b == 0:
            raise InputError("b must be positive (use spiked_uniform() for b == 0)")
        check_size(self.n, f"'n' of {self.kind} model")
        if self.n == 1:
            raise InputError("n must be at least 2 (use spiked_uniform() for n == 1)")

    @property
    def top(self) -> float:
        return self.a + self.b * self.n

    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        return np.array([self.top, self.a]), np.array([1.0, float(self.n - 1)])

    def signal_masses(self, coords: np.ndarray) -> np.ndarray:
        total = _dot(coords, coords)
        spike = float(coords.sum()) ** 2 / self.n
        # rounding can push the bulk mass a hair below zero
        return np.array([spike, max(total - spike, 0.0)])

    def _ends(self, fn) -> tuple[float, float]:
        """fn(top), fn(a) from one call on the distinct eigenvalues."""
        ftop, fa = fn(np.array([self.top, self.a])).tolist()
        return ftop, fa

    def apply(self, fn, b: np.ndarray) -> np.ndarray:
        """fa * b + (ftop - fa) * ones ones^T b / n, in b's memory layout.

        The ones part is added in place, so the result keeps the layout of
        fa * b at every size; a fresh sum would reuse that temporary, and
        its layout, only above numpy's 256 KiB elision threshold.
        """
        _check_rows(b, self.n)
        ftop, fa = self._ends(fn)
        out = fa * b
        out += (ftop - fa) * (b.sum(axis=0) / self.n)
        return out

    def diag_fn(self, fn) -> np.ndarray:
        ftop, fa = self._ends(fn)
        return np.full(self.n, fa + (ftop - fa) / self.n)

    def to_json(self) -> dict:
        return {"kind": "spiked_uniform", "n": self.n, "a": self.a, "b": self.b}


@dataclass(frozen=True, eq=False)
class Explicit(_SpectralSums):
    """Sigma with an explicit descending spectrum and optional eigenbasis."""

    eigenvalues: np.ndarray
    basis: np.ndarray | None = None

    kind = "explicit"

    def __post_init__(self):
        lam = np.asarray(self.eigenvalues, dtype=np.float64)
        if lam.ndim != 1 or lam.size < 1:
            raise InputError("eigenvalues must be a nonempty 1-D sequence")
        check_all(lam, "eigenvalues of explicit model", *SPECTRUM_RANGE)
        if np.any(np.diff(lam) > 0):
            raise InputError("eigenvalues must be sorted in descending order")
        lam = lam.copy()
        lam.setflags(write=False)
        object.__setattr__(self, "eigenvalues", lam)
        if self.basis is not None:
            v = np.asarray(self.basis, dtype=np.float64)
            if v.shape != (lam.size, lam.size):
                raise InputError(
                    f"basis must be {lam.size}x{lam.size}, got {v.shape}"
                )
            gram = v.T @ v
            if not np.allclose(gram, np.eye(lam.size), rtol=0.0, atol=1e-10):
                raise InputError("basis columns are not orthonormal within 1e-10")
            v = v.copy()
            v.setflags(write=False)
            object.__setattr__(self, "basis", v)

    @property
    def n(self) -> int:
        return self.eigenvalues.size

    @functools.cached_property
    def _ones(self) -> np.ndarray:
        return _read_only(np.ones(self.n))

    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        return self.eigenvalues, self._ones

    def signal_masses(self, coords: np.ndarray) -> np.ndarray:
        tilde = coords if self.basis is None else self.basis.T @ coords
        return tilde * tilde

    def apply(self, fn, b: np.ndarray) -> np.ndarray:
        _check_rows(b, self.n)
        w = fn(self.eigenvalues)
        if self.basis is None:
            return _scale_rows(w, b)
        return self.basis @ _scale_rows(w, self.basis.T @ b)

    def diag_fn(self, fn) -> np.ndarray:
        w = np.asarray(fn(self.eigenvalues), dtype=np.float64)
        return w if self.basis is None else (self.basis * self.basis) @ w

    def to_json(self) -> dict:
        out = {"kind": "explicit", "n": self.n, "eigenvalues": self.eigenvalues.tolist()}
        if self.basis is not None:
            out["basis"] = self.basis.tolist()
        return out


CovarianceModel = Union[Isotropic, SpikedUniform, Explicit]


def check_model(model, name: str) -> CovarianceModel:
    """Refuse a model that is not one of CovarianceModel's types (or a subclass)."""
    if not isinstance(model, (Isotropic, SpikedUniform, Explicit)):
        raise InputError(f"{name} must be a covariance model, got {type(model).__name__}")
    return model


def spiked_uniform(a: float, b: float, n: int) -> CovarianceModel:
    """Sigma = a I_n + b ones ones^T as SpikedUniform, or as Isotropic where
    it is a multiple of I_n: at b == 0 (scale a) and at n == 1 (scale a + b)."""
    if b == 0 or check_size(n, "'n' of spiked_uniform model") == 1:
        check_spectrum(a, "'a' of spiked_uniform model")
        check_spectrum(b, "'b' of spiked_uniform model", zero=True)
        return Isotropic(a + b, n)
    return SpikedUniform(a, b, n)


def real_array(value) -> np.ndarray:
    """The cast of an array field: a dataio.encode_array payload or a list of reals."""
    from .dataio import payload  # imported here because dataio imports this module

    return payload(value) if isinstance(value, dict) else reals(value)


# model kind -> (its keys other than "kind" -> (cast, default))
_MODEL_KEYS = {
    "isotropic": {"scale": (real, MISSING), "n": (dimension, MISSING)},
    "spiked_uniform": {"a": (real, MISSING), "b": (real, MISSING), "n": (dimension, MISSING)},
    "explicit": {
        "eigenvalues": (real_array, MISSING), "basis": (real_array, None), "n": (dimension, None)
    },
}


def model_from_json(obj: dict) -> CovarianceModel:
    """Parse a covariance model from its JSON object form.

    Its "kind" picks the table of its other keys. An explicit model's
    eigenvalues and basis are lists or dataio.encode_array payloads.
    """
    if not isinstance(obj, dict):
        raise InputError(f"malformed 'model': expected a JSON object, got {obj!r:.40}")
    spec = dict(obj)
    kind = coerce(choice(*_MODEL_KEYS), spec.pop("kind", None), "'kind' of covariance model")
    f = read_object(spec, _MODEL_KEYS[kind], f"{kind} model", nested=True)
    if kind == "isotropic":
        return Isotropic(f["scale"], f["n"])
    if kind == "spiked_uniform":
        return spiked_uniform(f["a"], f["b"], f["n"])
    if f["n"] is not None and f["n"] != f["eigenvalues"].size:
        raise InputError("explicit model 'n' disagrees with eigenvalue count")
    return Explicit(f["eigenvalues"], f["basis"])


class SignalVector:
    """Signal vector with cached norm and per-model eigen-coordinate masses.

    Instances are immutable; the norm and mass caches are filled on first use.
    """

    __slots__ = ("coords", "_norm_sq", "_masses")

    def __init__(self, coords):
        arr = np.array(coords, dtype=np.float64)
        if arr.ndim != 1:
            raise InputError(f"signal must be 1-D, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise InputError("signal entries must be finite")
        arr.setflags(write=False)
        self.coords = arr
        self._norm_sq = None
        self._masses = {}

    @property
    def n(self) -> int:
        return self.coords.size

    @property
    def norm_sq(self) -> float:
        if self._norm_sq is None:
            with np.errstate(over="ignore"):  # inf past the range, for owners to refuse
                self._norm_sq = _dot(self.coords, self.coords)
        return self._norm_sq

    @property
    def norm(self) -> float:
        return np.sqrt(self.norm_sq)

    def masses(self, model: CovarianceModel) -> np.ndarray:
        """Squared eigen-coordinate mass per distinct eigenvalue of model."""
        if model.n != self.n:
            raise InputError(
                f"signal has dimension {self.n}, model has dimension {model.n}"
            )
        hit = self._masses.get(id(model))
        if hit is not None and hit[0] is model:
            return hit[1]
        masses = model.signal_masses(self.coords)
        self._masses[id(model)] = (model, masses)
        return masses


def as_signal(mu0) -> SignalVector:
    """mu0 as is if it is a SignalVector, else SignalVector(mu0), which refuses a bad one."""
    return mu0 if isinstance(mu0, SignalVector) else SignalVector(mu0)


def _validate_pq(p: int, q: int) -> None:
    check_size(p, "p", least=0)
    check_size(q, "q", least=0)
    if p == 0 and q == 0:
        raise InputError("degenerate request p = 0, q = 0")


def _reciprocal_shift(lam: np.ndarray, tau: float) -> np.ndarray:
    """r = 1/(lam + tau), computed in one fresh buffer."""
    r = lam + tau
    np.reciprocal(r, out=r)
    return r


def _power_sum(weights, lam: np.ndarray, tau: float, p: int, q: int) -> float:
    """sum weights * lam^q * r^p with r = 1/(lam + tau), powers by multiplication."""
    r = _reciprocal_shift(lam, tau)
    terms = np.array(weights, dtype=np.float64)
    for _ in range(q):
        terms *= lam
    for _ in range(p):
        terms *= r
    return float(np.sum(terms))


def trace_functional(model: CovarianceModel, tau: float, p: int, q: int) -> float:
    """T_{-p,q}(tau) = n^{-1} tr((Sigma + tau I)^{-p} Sigma^q)."""
    check_model(model, "model")
    _validate_pq(p, q)
    check_positive(tau, "tau", zero=True)
    lam, counts = model.pairs()
    return _power_sum(counts, lam, tau, p, q) / model.n


def quad_form(model: CovarianceModel, mu0, tau: float, p: int, q: int) -> float:
    """||(Sigma + tau I)^{-p} Sigma^{q/2} mu0||^2 via eigen-coordinates."""
    check_model(model, "model")
    _validate_pq(p, q)
    check_positive(tau, "tau", zero=True)
    lam, _ = model.pairs()
    return _power_sum(as_signal(mu0).masses(model), lam, tau, 2 * p, q)


def resolvent_sums(model: CovarianceModel, tau: float, phi: float) -> tuple[float, float]:
    """(T_{-1,1}(tau) - phi, T_{-2,1}(tau)) from one pass over the spectrum.

    These are what the fixed-point solver's Newton step reads. The
    difference is summed from the smaller of T_{-1,1} and
    1 - T_{-1,1} = tau T_{-1,0}: as t11 - phi while T_{-1,1} <= 1/2, else
    as (1 - phi) - tau T_{-1,0}. Near phi = 1, where T_{-1,1} -> 1 at the
    root, the terms that cancel are then 1 - phi and tau T_{-1,0}, both
    small, and the difference keeps full relative accuracy. T_{-1,0} is
    summed only on that second branch, from r = 1/(lambda + tau) before r
    is squared for T_{-2,1}.
    """
    lam, counts = model.pairs()
    weighted = model.weighted_spectrum
    n = model.n
    r = _reciprocal_shift(lam, tau)
    t11 = _dot(weighted, r) / n
    if t11 <= 0.5:
        excess = t11 - phi
    else:
        excess = (1.0 - phi) - tau * (_dot(counts, r) / n)
    r *= r
    return excess, _dot(weighted, r) / n


class FixedPointSums(NamedTuple):
    """The spectral sums at one tau that the fixed-point and risk closed forms read.

    t11, t21, t31, t22, t32 are T_{-1,1}, T_{-2,1}, T_{-3,1}, T_{-2,2},
    T_{-3,2}; signal is ||(Sigma + tau I)^{-1} Sigma^{1/2} mu0||^2 and
    signal0 is ||(Sigma + tau I)^{-1} mu0||^2.
    """

    t11: float
    t21: float
    t31: float
    t22: float
    t32: float
    signal: float
    signal0: float


def fixed_point_sums(
    model: CovarianceModel, mu0: SignalVector, tau: float
) -> FixedPointSums:
    """Every FixedPointSums field from r = 1/(lambda + tau), r^2 and r^3."""
    lam, _ = model.pairs()
    weighted, weighted_sq = model.weighted_spectrum, model.weighted_spectrum_sq
    masses = mu0.masses(model)
    n = model.n
    r = _reciprocal_shift(lam, tau)
    t11 = _dot(weighted, r)
    power = r * r
    t21 = _dot(weighted, power)
    t22 = _dot(weighted_sq, power)
    signal0 = _dot(masses, power)
    signal = float(np.einsum("i,i,i->", power, masses, lam))
    power *= r
    return FixedPointSums(
        t11 / n,
        t21 / n,
        _dot(weighted, power) / n,
        t22 / n,
        _dot(weighted_sq, power) / n,
        signal=signal,
        signal0=signal0,
    )


def sigma_quad(model: CovarianceModel, v: np.ndarray) -> float:
    """v^T Sigma v for an ambient vector v."""
    v = np.asarray(v, dtype=np.float64)
    return float(v @ model.apply(lambda lam: lam, v))


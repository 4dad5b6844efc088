"""Exception types shared across the library.

The CLI maps these onto exit codes: usage and input problems exit 1,
numerical failures exit 2. `coerce` turns a malformed configuration value
into one of these instead of a raw ValueError or TypeError; `integer`,
`dimension` and `boolean` are the casts for integer, size and boolean
fields. Every band of a real input lives here, and the types that own a
field apply its band through `check_eta`, `check_eta_grid`,
`check_spectrum`, `check_scale` or `check_phi`, which raise InputError.
"""

import numbers

import numpy as np

# Largest dimension or sample count a config may ask for: far above any
# problem whose arrays fit in memory, and checked before anything is
# allocated, so that n = 10**12 is an input error rather than a MemoryError.
MAX_DIM = 10**8

# Band of a positive ridge penalty eta, wherever one enters. tau* grows like
# eta/phi and shrinks like eta/(phi - 1), and a data-side fit divides by
# s + eta; holding eta within [1e-60, 1e60] keeps tau*, its cube, eta^2 and
# those quotients finite normal floats.
ETA_RANGE = (1e-60, 1e60)

# Band of a covariance model's scales: eigenvalues then stay below about
# 1e68 (a + b n) and tau* within about [1e-68, 1e68], so the powers of
# 1/(lambda + tau) and of tau* that the closed forms take stay finite.
SPECTRUM_RANGE = ETA_RANGE
# Band of sigma_sq, ||mu0||^2 and the squared entries of an l_q weight:
# eta's upper limit keeps the risks finite.
SCALE_RANGE = (0.0, 1e60)
# Band of an aspect ratio phi = m/n, a ratio of two sizes in [1, MAX_DIM].
PHI_RANGE = (1.0 / MAX_DIM, float(MAX_DIM))


class RidgelabError(Exception):
    """Base class for all library errors."""


class UsageError(RidgelabError):
    """Malformed configuration files, flags, or interchange data."""


class InputError(RidgelabError):
    """Invalid argument values or mismatched dimensions."""


class MissingGroundTruth(InputError):
    """Ground-truth signal required but absent from the dataset."""


class BothZero(InputError):
    """Noise and signal are both zero, so SNR-based quantities are undefined."""


class NumericalError(RidgelabError):
    """Base class for failures of numerical procedures."""


class NoSolution(NumericalError):
    """The fixed-point system has no solution in the requested regime."""


class NonConvergence(NumericalError):
    """An iterative solver exhausted its iteration budget."""


class DegenerateDenominator(NumericalError):
    """A closed-form ratio hit a vanishing denominator."""


class WrongRegime(NumericalError):
    """Operation requested outside its m/n regime."""


class IllConditioned(NumericalError):
    """A linear system exceeded the condition-number guard."""


def coerce(cast, value, name: str, error: type[RidgelabError] = InputError):
    """Return cast(value); a malformed value raises `error` naming `name`."""
    try:
        return cast(value)
    except (ValueError, TypeError) as exc:
        raise error(f"malformed {name}: {exc}") from exc


def integer(value) -> int:
    """int(value) for an int or an integral float such as 200.0.

    Unlike int(), it never truncates: bools, fractional or non-finite
    floats and non-numbers raise ValueError.
    """
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"expected an integer, got {value!r}")


def dimension(value) -> int:
    """integer(value) for a size of at most MAX_DIM."""
    size = integer(value)
    if size > MAX_DIM:
        raise ValueError(f"expected at most {MAX_DIM:.0e}, got {size}")
    return size


def boolean(value) -> bool:
    """value itself when it is True or False.

    Unlike bool(), it never guesses: strings such as "false", numbers and
    lists raise ValueError.
    """
    if isinstance(value, bool):
        return value
    raise ValueError(f"expected true or false, got {value!r}")


def check_range(value: float, name: str, lo: float, hi: float, zero: bool = False) -> float:
    """value when lo <= value <= hi, or value == 0 with zero set."""
    if not (lo <= value <= hi or (zero and value == 0.0)):
        zero_or = "be 0 or " if zero else ""
        raise InputError(f"{name} must {zero_or}lie in [{lo:g}, {hi:g}], got {value!r}")
    return value


def check_all(values: np.ndarray, name: str, lo: float, hi: float, zero: bool = False):
    """values when check_range accepts each entry; the error names the first bad one."""
    bad = ~((values >= lo) & (values <= hi)) & ~(zero & (values == 0.0))
    if bad.any():
        check_range(float(values.flat[bad.argmax()]), name, lo, hi, zero)
    return values


def check_eta(eta: float, name: str = "eta") -> float:
    """eta when it is 0 or lies in ETA_RANGE."""
    return check_range(eta, name, *ETA_RANGE, zero=True)


def check_spectrum(value: float, name: str, zero: bool = False) -> float:
    """value when it lies in SPECTRUM_RANGE (or is 0, with zero set)."""
    return check_range(value, name, *SPECTRUM_RANGE, zero=zero)


def check_scale(value: float, name: str) -> float:
    """value when it lies in SCALE_RANGE."""
    return check_range(value, name, *SCALE_RANGE)


def check_phi(value: float, name: str) -> float:
    """value when it lies in PHI_RANGE."""
    return check_range(value, name, *PHI_RANGE)


def check_eta_grid(grid, name: str = "eta grid") -> np.ndarray:
    """grid as a nonempty, 1-D, strictly ascending float array of etas that
    check_eta accepts; the error names the first bad value."""
    etas = np.asarray(grid, dtype=float)
    if etas.ndim != 1 or etas.size == 0:
        raise InputError(f"{name} must be a nonempty 1-D list of etas")
    check_all(etas, name, *ETA_RANGE, zero=True)
    steps = np.diff(etas) <= 0
    if steps.any():
        i = int(steps.argmax()) + 1
        raise InputError(
            f"eta grid must be strictly ascending; {name} has {float(etas[i])!r} "
            f"after {float(etas[i - 1])!r}"
        )
    return etas

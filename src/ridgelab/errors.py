"""Exception types shared across the library.

The CLI maps these onto exit codes: usage and input problems exit 1,
numerical failures exit 2. `read_object` reads every JSON config object
through a table of its keys, each with a cast and a default, and `coerce`
turns a malformed value into an InputError naming its key instead of a raw
ValueError or TypeError. The casts, which never convert a value of another
JSON type, are `real` and `reals` for numbers and lists of them, `integer`,
`dimension` and `seed` for integers, sizes and seeds, `boolean`, `choice`
for a string from a fixed set, and `as_cast` of a parser. Every band of a
real input lives here. The types, functions and flags that own a value
apply its band through one `check_*` helper each, which raises InputError
and refuses NaN.
"""

import math
import numbers
from dataclasses import MISSING

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
# Open band of a level alpha: intervals are taken at level 1 - alpha.
ALPHA_RANGE = (0.0, 1.0)
# Open band of an l_q exponent q and an implicit regularization tau.
POSITIVE_RANGE = (0.0, math.inf)
# Band of a Monte Carlo rep count, whose per-rep buffer is a size like any other.
MC_REPS_RANGE = (100, MAX_DIM)
# Band of the sim worker count: each worker is an OS thread, and the shipped
# configs run 4.
THREADS_RANGE = (1, 256)


class RidgelabError(Exception):
    """Base class for all library errors."""


class UsageError(RidgelabError):
    """Malformed configuration files, flags, or interchange data."""


class InputError(RidgelabError):
    """Invalid argument values or mismatched dimensions."""


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


def coerce(cast, value, name: str):
    """Return cast(value); a malformed value raises InputError naming `name`."""
    try:
        return cast(value)
    except (ValueError, TypeError, OverflowError) as exc:
        raise InputError(f"malformed {name}: {exc}") from exc


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


def seed(value) -> int:
    """integer(value) for a non-negative seed."""
    number = integer(value)
    if number < 0:
        raise ValueError(f"expected a non-negative integer, got {number}")
    return number


def _bad_type(types) -> type | None:
    """A type in types other than an int or float type (numpy's included), or bool."""
    real_types = (int, float, np.integer, np.floating)
    return next((t for t in types if t is bool or not issubclass(t, real_types)), None)


def real(value) -> float:
    """float(value) for an int or a float; a bool, a string or any other JSON
    value raises ValueError, and an int beyond the float range OverflowError."""
    if _bad_type({type(value)}):
        raise ValueError(f"expected a real number, got {value!r:.40}")
    return float(value)


def reals(value) -> np.ndarray:
    """A float array of a list of reals, or of a list of such lists (a
    matrix), checked as real checks one; an int or float ndarray passes. The
    entries' types are collected in one C-level pass over the list."""
    if isinstance(value, np.ndarray) and value.dtype.kind in "iuf":
        return value.astype(float)
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"expected a list of real numbers, got {value!r:.40}")
    types = set(map(type, value))
    if types and types <= {list, tuple}:
        types = set().union(*(map(type, row) for row in value))
    bad = _bad_type(types)
    if bad:
        raise ValueError(f"expected a list of real numbers, got an entry of type {bad.__name__}")
    return np.array(value, dtype=float)


def choice(*options: str):
    """The cast that takes a string among options and refuses anything else."""

    def cast(value) -> str:
        if isinstance(value, str) and value in options:
            return value
        raise ValueError(f"expected one of {options}, got {value!r:.40}")

    return cast


def boolean(value) -> bool:
    """value itself when it is True or False.

    Unlike bool(), it never guesses: strings such as "false", numbers and
    lists raise ValueError.
    """
    if isinstance(value, bool):
        return value
    raise ValueError(f"expected true or false, got {value!r}")


def as_cast(build):
    """build as a cast for coerce: the RidgelabError it raises becomes a
    ValueError, so that the key holding the value is named."""

    def cast(value):
        try:
            return build(value)
        except RidgelabError as exc:
            raise ValueError(str(exc)) from exc

    return cast


def read_object(obj, table: dict, what: str, nested: bool = False) -> dict:
    """The fields of the JSON object obj, cast under coerce by table.

    table maps each key obj may hold to (cast, default), default MISSING
    for a required key. An absent key, and null where the default is None,
    takes the default. A malformed value names its key, as "'key' of <what>"
    when obj is nested in another object.
    """
    if not isinstance(obj, dict):
        raise InputError(f"malformed {what!r}: expected a JSON object, got {obj!r:.40}")
    unknown = set(obj) - set(table)
    if unknown:
        raise InputError(f"unknown {what} keys: {sorted(unknown)}")
    for key, (_, default) in table.items():
        if default is MISSING and key not in obj:
            raise InputError(f"{what} is missing {key!r}")
    of = f" of {what}" if nested else ""
    fields = {}
    for key, (cast, default) in table.items():
        value = obj.get(key)
        if key not in obj or (value is None and default is None):
            fields[key] = default
        else:
            fields[key] = coerce(cast, value, f"{key!r}{of}")
    return fields


def check_range(value: float, name: str, lo: float, hi: float, zero=False, ends="[]") -> float:
    """value when it lies between lo and hi, or value == 0 with zero set;
    ends holds the brackets, "(" or ")" leaving that end out. NaN lies in none,
    and an array of several values or a non-number is refused as not one real."""
    try:
        above = lo <= value if ends[0] == "[" else lo < value
        below = value <= hi if ends[1] == "]" else value < hi
        inside = above and below or (zero and value == 0.0)
    except (TypeError, ValueError):
        raise InputError(f"{name} must be one real number, got {value!r:.40}") from None
    if not inside:
        zero_or = "be 0 or " if zero else ""
        raise InputError(
            f"{name} must {zero_or}lie in {ends[0]}{lo:g}, {hi:g}{ends[1]}, got {value!r}"
        )
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


def check_radius(radius: float, name: str, zero: bool = False) -> float:
    """radius when it is positive (or 0, with zero set) and radius * radius,
    the squared norm of the named signal, lies in SCALE_RANGE."""
    try:
        inside = radius > 0 or zero and radius == 0
    except TypeError:
        raise InputError(f"{name} radius must be one real number, got {radius!r:.40}") from None
    if not inside:
        sign = "nonnegative" if zero else "positive"
        raise InputError(f"{name} radius must be {sign}, got {radius!r}")
    check_scale(radius * radius, f"squared norm of {name!r}")
    return radius


def check_phi(value: float, name: str) -> float:
    """value when it lies in PHI_RANGE."""
    return check_range(value, name, *PHI_RANGE)


def check_alpha(alpha: float, name: str = "alpha") -> float:
    """alpha when it lies in ALPHA_RANGE."""
    return check_range(alpha, name, *ALPHA_RANGE, ends="()")


def check_positive(value: float, name: str, zero: bool = False) -> float:
    """value when it lies in POSITIVE_RANGE (or is 0, with zero set)."""
    return check_range(value, name, *POSITIVE_RANGE, zero=zero, ends="()")


def _check_integer(value, name: str) -> None:
    """Refuse a count that is not an int or numpy integer: a bool, 2.5 and 3.0 alike."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InputError(f"{name} must be an integer, got {value!r:.40}")


def check_mc_reps(reps: int, name: str = "reps", zero: bool = False) -> int:
    """reps when it is an integer in MC_REPS_RANGE (or 0, with zero set)."""
    _check_integer(reps, name)
    return check_range(reps, name, *MC_REPS_RANGE, zero=zero)


def check_threads(threads: int, name: str = "threads") -> int:
    """threads when it lies in THREADS_RANGE."""
    return check_range(threads, name, *THREADS_RANGE)


def check_size(size: int, name: str, least: int = 1) -> int:
    """size when it is an integer of at least least: a count of dimensions,
    samples, folds or draws, or with least=0 an index or a seed."""
    _check_integer(size, name)
    return check_range(size, name, least, math.inf, ends="[)")


def _grid_array(grid, name: str = "eta grid") -> np.ndarray:
    """grid, a list of reals or a real ndarray, as a nonempty 1-D float array."""
    etas = coerce(reals, grid, name)
    if etas.ndim != 1 or etas.size == 0:
        raise InputError(f"{name} must be a nonempty 1-D list of etas")
    return etas


def check_eta_grid(grid, name: str = "eta grid") -> np.ndarray:
    """grid as a nonempty, 1-D, strictly ascending float array of etas that
    check_eta accepts; the error names the first bad value."""
    etas = _grid_array(grid, name)
    check_all(etas, name, *ETA_RANGE, zero=True)
    steps = np.diff(etas) <= 0
    if steps.any():
        i = int(steps.argmax()) + 1
        raise InputError(
            f"eta grid must be strictly ascending; {name} has {float(etas[i])!r} "
            f"after {float(etas[i - 1])!r}"
        )
    return etas

"""Exception types shared across the library.

The CLI maps these onto exit codes: usage and input problems exit 1,
numerical failures exit 2. `coerce` turns a malformed configuration value
into one of these instead of a raw ValueError or TypeError; `integer` and
`boolean` are the casts for integer and boolean fields.
"""

import numbers


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


def boolean(value) -> bool:
    """value itself when it is True or False.

    Unlike bool(), it never guesses: strings such as "false", numbers and
    lists raise ValueError.
    """
    if isinstance(value, bool):
        return value
    raise ValueError(f"expected true or false, got {value!r}")

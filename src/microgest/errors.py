"""Exception hierarchy shared by all microgest modules, and the integer,
seed and float-array rules they all check arguments with.

Every error raised on purpose by this package derives from
:class:`MicrogestError`, so callers (and the CLI) can catch one type.
"""

import numbers

import numpy as np


class MicrogestError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParams(MicrogestError):
    """A configuration or argument value is outside its legal range."""


# --- model structure ---------------------------------------------------------

class ShapeMismatch(MicrogestError):
    """An array or layer does not have the shape the architecture demands."""


class NonFiniteParameter(MicrogestError):
    """A weight or bias is NaN or infinite."""


class IllegalActivationPlacement(MicrogestError):
    """An activation was requested on a layer kind that cannot host it."""


# --- inference ---------------------------------------------------------------

class RangeExceeded(MicrogestError):
    """Input to the fast power-of-two approximation is outside +/-126."""


class RecurrentLayerPresent(MicrogestError):
    """A pure feed-forward evaluation was asked to run a recurrent model."""


# --- images and streams ------------------------------------------------------

class PixelOutOfRange(MicrogestError):
    """A pixel value lies outside the 10-bit ADC range 0..1023."""


class NonSquareImage(MicrogestError):
    """A rotation by a quarter turn needs width == height."""


class TooShort(MicrogestError):
    """A candidate has fewer than two frames and cannot be resampled."""


# --- training ----------------------------------------------------------------

class DivergenceDetected(MicrogestError):
    """Training loss became NaN or infinite."""


# --- compression -------------------------------------------------------------

class KTooLarge(MicrogestError):
    """More clusters were requested than surviving weights exist."""


class CorruptStream(MicrogestError):
    """An encoded bit- or byte-stream cannot be decoded."""


class DeltaOverflow(CorruptStream):
    """A stored index delta is outside the 8-bit field (corrupt stream)."""


# --- storage -----------------------------------------------------------------

class ChecksumMismatch(MicrogestError):
    """Stored CRC-32 does not match the file contents."""


class VersionUnsupported(MicrogestError):
    """The file was written by a newer format version."""


class Truncated(MicrogestError):
    """The file ends before the declared payload is complete."""


# --- resource estimation -----------------------------------------------------

class UnknownActivationCost(MicrogestError):
    """The cost model has no entry for an activation used by the model."""


# --- argument rules ----------------------------------------------------------

def _is_integer(value) -> bool:
    """The integer rule for counts, sizes and seeds: an ``int`` or a numpy
    integer.  A bool or a float is not one, even when it is whole."""
    # a plain int skips the ABC check, which costs far more than a type test
    return type(value) is int or (
        isinstance(value, numbers.Integral) and not isinstance(value, bool)
    )


def _check_integer(name: str, value, least: int, most: int | None = None) -> None:
    """Refuse ``value`` with :class:`InvalidParams` unless it is an integer
    (:func:`_is_integer`) of at least ``least`` and, if ``most`` is given,
    at most ``most``: a size that numpy allocates at once needs that cap."""
    if not _is_integer(value):
        raise InvalidParams(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise InvalidParams(f"{name} must be >= {least}, got {value}")
    if most is not None and value > most:
        raise InvalidParams(f"{name} must be <= {most}, got {value}")


def _check_seed(seed) -> None:
    """The seed rule: a non-negative integer, as ``numpy.random.default_rng``
    takes it."""
    _check_integer("seed", seed, 0)


def _float_array(values, message: str) -> np.ndarray:
    """The float-array rule: ``values`` as a float64 array, or ShapeMismatch
    with the caller's ``message`` for text, ragged rows and other non-numbers."""
    try:
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ShapeMismatch(f"{message}, got no float array: {exc}") from None

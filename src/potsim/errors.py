"""Exception types shared across the package, and the field type check."""

import dataclasses
import math
import numbers


class PotsimError(Exception):
    """Base class for all package specific errors."""


class ParameterError(PotsimError, ValueError):
    """A numeric argument is outside its allowed domain."""


class ConfigError(PotsimError, ValueError):
    """An object or file describing a run is inconsistent or incomplete."""


class DegenerateFilterError(PotsimError, ArithmeticError):
    """Orthogonalization hit a near-zero divisor and cannot proceed."""


class PolicyUnavailableError(PotsimError, LookupError):
    """A trained policy has no entry for the requested aggressor count."""


class MissingArtifactError(PotsimError, FileNotFoundError):
    """A required artifact file (for example a Q-table) does not exist."""


#: What a field of each annotation takes, as error messages name it. A bool
#: is no number here: ``true`` in JSON is a typo.
_KINDS = {int: "an integer", float: "a finite number", tuple: "a list",
          str: "a string", bool: "a boolean", dict: "an object"}


def is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_field_types(instance, error) -> None:
    """Raise ``error`` naming the first field of the dataclass ``instance``
    that its annotation does not take (``_KINDS``). Numbers are stored as
    Python numbers, an integer staying an ``int``, and lists as tuples."""
    for f in dataclasses.fields(instance):
        value = getattr(instance, f.name)
        if f.type in (int, float) and is_integer(value):
            value = int(value)
        elif (f.type is float and isinstance(value, numbers.Real)
              and not isinstance(value, bool) and math.isfinite(value)):
            value = float(value)
        elif f.type is tuple and isinstance(value, (list, tuple)):
            value = tuple(value)
        elif f.type in (int, float, tuple) or not isinstance(value, f.type):
            raise error(f"{f.name} must be {_KINDS[f.type]}, got {value!r}")
        object.__setattr__(instance, f.name, value)

"""Exception taxonomy shared by all projkit modules, and the few private
helpers every layer needs: the frozen-record base, read-only arrays and the
readers of numbers and tolerances passed in by callers.

Every domain failure maps to a distinct exception class so that callers
(and the CLI) can report a machine-readable error name.
"""

import functools
import math
import struct


class ProjKitError(Exception):
    """Base class for all domain errors raised by projkit."""


class NonGenericFlags(ProjKitError):
    """A pairing in the denominator of a flag invariant vanishes."""


class NonPositiveRatio(ProjKitError):
    """A multiplicative invariant is not positive, so its log is undefined."""


class NotUnimodular(ProjKitError):
    """A matrix expected to lie in SL(3,R) has determinant away from 1."""


class WrongClass(ProjKitError):
    """An operation received an isometry class it does not apply to."""


class PointOutsideDomain(ProjKitError):
    """A point expected to be interior to a convex domain is not."""


class CoincidentPoints(ProjKitError):
    """Two points expected to be distinct coincide."""


class RegionNotContained(ProjKitError):
    """An integration region is not contained in the ambient domain."""


class ComplexEigenvalues(ProjKitError):
    """Boundary eigenvalue data has a negative discriminant."""


class NonPositiveParameter(ProjKitError):
    """A parameter that must be positive is zero or negative."""


class InconsistentStratum(ProjKitError):
    """Recovered parameters violate the constraints of the target stratum."""


class NonFiniteResult(ProjKitError):
    """A computed result is NaN or infinite, so it is not printed."""


class _Record:
    """Base of the frozen records: each subclass names its fields in ``_fields`` and
    sets them in its own ``__init__`` with ``object.__setattr__``.

    It supplies ``__repr__`` ("Name(field=value, ...)"), ``__eq__`` (same class and
    equal field tuples) and ``__hash__`` (of the field tuple) from ``_fields``, and
    ``__match_args__`` unless the class sets its own; ``eq=False`` in the class
    statement keeps equality and hashing by identity.  Assigning or deleting an
    attribute raises AttributeError.  A class with ``__slots__`` gets a
    ``__getstate__``/``__setstate__`` pair over ``_fields``, which copy and pickle
    need, since they cannot assign to a frozen instance.
    """

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls, eq=True, **kwargs):
        super().__init_subclass__(**kwargs)
        if "__match_args__" not in vars(cls):
            cls.__match_args__ = cls._fields
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__
        if "__slots__" in vars(cls):
            cls.__getstate__, cls.__setstate__ = cls._values, _set_fields

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _set_fields(record, state) -> None:
    for name, value in zip(record._fields, state):
        object.__setattr__(record, name, value)


@functools.cache
def _freezer(n: int):
    """The function taking n floats to a read-only float64 array, a view of their packed
    bytes (immutable): faster than ``np.array`` and ``setflags``, and ``reshape`` keeps it."""
    pack = struct.Struct(f"{n}d").pack

    def frozen(values):
        import numpy as np

        return np.frombuffer(pack(*values))

    return frozen


def _check_tol(tol: float) -> None:
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tol}")


# Coordinate types read without numpy; anything else, numpy's float64 scalar included,
# goes through np.asarray, which gives the same floats.
_REALS = (float, int)


def _read_reals(coords):
    """A list or tuple of three ``_REALS`` as a tuple of floats, else None."""
    if type(coords) in (list, tuple) and len(coords) == 3:
        x, y, z = coords
        if type(x) in _REALS and type(y) in _REALS and type(z) in _REALS:
            return (float(x), float(y), float(z))
    return None


def _matrix_rows(m, what: str):
    """The float rows of a 3x3 matrix: three rows in a list or tuple by ``_read_reals``, else by
    ``np.asarray(m, dtype=float)`` (the same floats), with ValueError "<what>, got shape ..."."""
    rows = tuple(map(_read_reals, m)) if type(m) in (list, tuple) and len(m) == 3 else (None,)
    if None in rows:
        import numpy as np

        a = np.asarray(m, dtype=float)
        if a.shape != (3, 3):
            raise ValueError(f"{what}, got shape {a.shape}")
        rows = a.tolist()
    return rows

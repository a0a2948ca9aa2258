"""The vocabulary every module shares: the no-bound value, the method names,
the argument rules, and the base of the frozen value classes.

It imports nothing of the package but ``errors``, so a CLI process loads it
beside the one engine its subcommand runs.
"""

from __future__ import annotations

import math
from typing import Any, TypeVar

from .errors import PreconditionError

# Distinguished "no bound" value.  Compares correctly against every integer
# and never collides with a finite bound.
UNBOUNDED = math.inf

# The names of the methods that dispatch.construct chooses among.
METHODS = ("auto", "girth5", "girth6", "outerplanar")

_T = TypeVar("_T")


def _is_count(value: object, low: int) -> bool:
    """True for an int, not a bool, of at least low."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= low


def _check_type(value: object, kind: type, name: str) -> None:
    """The type rule of every argument that is not a count or an id."""
    if not isinstance(value, kind):
        article = "an" if kind.__name__[0] in "AEIOU" else "a"
        raise PreconditionError(
            f"{name} must be {article} {kind.__name__}, got {type(value).__name__}")


def _check_bound(value: Any, name: str) -> int | float:
    """A cap: a nonnegative int, or any value equal to UNBOUNDED."""
    if value == UNBOUNDED or _is_count(value, 0):
        return value
    raise PreconditionError(f"{name} must be a nonnegative int or UNBOUNDED")


class _Value:
    """Base of the frozen value classes: equality, hash, repr and immutability,
    all read from the field names in ``__match_args__``, which are the names
    a subclass annotates, in order, as for a dataclass.

    Each subclass writes out its ``__init__``, which checks its arguments and
    sets each field with ``object.__setattr__``.  Unlike a frozen dataclass,
    a subclass generates no code at import, and no process that uses one
    imports ``dataclasses`` or the ``inspect`` it loads.
    """

    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        # A subclass that annotates nothing keeps its base's fields.
        cls.__match_args__ = tuple(cls.__dict__.get("__annotations__", cls.__match_args__))

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def asdict(value: Any) -> Any:
    """A value object as a dict of its fields, with the value objects in its
    fields and tuples converted too: the source of the CLI's JSON."""
    if isinstance(value, _Value):
        return {name: asdict(getattr(value, name)) for name in value.__match_args__}
    if isinstance(value, tuple):
        return tuple(map(asdict, value))
    return value


def _unchecked(cls: type[_T], **fields: object) -> _T:
    """An instance of the value class cls built without its __init__ check.

    Only for a builder whose own lines prove every rule of that check;
    tests/test_source.py names the builders that may call it.
    """
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj

"""Record: the immutable value base of qgrav's input and result classes.

A subclass names its fields in order in _fields and has an explicit
__init__ that writes them into __dict__ (then calls self.__post_init__()
where the class validates). The fields alone give equality (only between
instances of the same class), hashing and a repr Name(field=value, ...).
Assignment and deletion raise AttributeError. Instances keep a plain
__dict__ and no __slots__, so pickle and copy.deepcopy restore them as they
are, without calling __init__.

This is the part of a frozen dataclass qgrav uses, without the start-up
cost of the dataclasses module and of generating code for each class.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    """Frozen value: equality, hash and repr over the fields in _fields."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        # The field values as a tuple (every record has two fields or more),
        # read by one C getter rather than a loop of getattr calls.
        cls._values = property(attrgetter(*cls._fields))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

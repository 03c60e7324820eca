"""The immutable-value core every pwcheck value class builds on.

Stdlib only, and nothing from the package: both ``laurent`` and
``filtration`` build on it, through one checking constructor and one
trusted ``_of``.  ``json`` is imported where it is used, so that a text
or CSV call never loads it.  It also holds the one integer rule: an
integer input is an exact ``int``, never a bool or a subclass; and the
two roots under which the package raises an input it refuses and a
check it saw fail.
"""

from __future__ import annotations

from collections.abc import Mapping


class DomainError(ValueError):
    """An input outside the domain of the formulas or of the search."""


class VerificationError(ArithmeticError):
    """Two routes to one quantity disagreed: a check failed."""


def require_int(value: object, low: int, message: str) -> None:
    """Raise DomainError(message) unless value is an exact int >= low."""
    if type(value) is not int or value < low:
        raise DomainError(message)


def is_int_pair(key: object) -> bool:
    """True when key is a tuple of two exact ints."""
    return type(key) is tuple and len(key) == 2 and type(key[0]) is type(key[1]) is int


def compact_json(obj: object) -> str:
    """obj as JSON text with no space after a separator."""
    import json
    return json.dumps(obj, separators=(",", ":"))


class Frozen:
    """A value that no attribute can be set on or deleted from.

    A subclass fills its slots with ``object.__setattr__`` in its
    constructor, and ``_args()`` returns the constructor arguments that
    rebuild it: copy and pickle go through the constructor, since they
    cannot set a slot.  ``to_json`` writes ``to_json_obj()``, for a
    subclass that has one.
    """

    __slots__ = ()

    def __setattr__(self, *args: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self) -> tuple:
        return type(self), self._args()

    def to_json(self) -> str:
        return compact_json(self.to_json_obj())


class SparseMap(Frozen):
    """An immutable dict ``_c`` of nonzero entries, hashed and printed in
    key order.  The constructor checks each entry of outside input with
    the subclass's ``_key`` and ``_value(key, value)``; ``_of`` wraps a
    dict built from checked entries.  A subclass reads its wire form in
    ``from_json_obj``.
    """

    __slots__ = ("_c",)

    def __init__(self, entries: Mapping | None = None):
        data: dict = {}
        for key, value in (entries or {}).items():
            normal = self._key(key)
            value = self._value(key, value)
            if value:
                if normal in data:  # two keys, such as 2 and "2", for one entry
                    raise ValueError(f"key {key!r} repeats the key {normal!r}")
                data[normal] = value
        object.__setattr__(self, "_c", data)

    @classmethod
    def _of(cls, data: dict) -> SparseMap:
        """The map over data, which the caller has checked: normal keys, nonzero values."""
        self = object.__new__(cls)
        object.__setattr__(self, "_c", data)
        return self

    def _args(self) -> tuple:
        return (self._c,)

    def __bool__(self) -> bool:
        return bool(self._c)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, type(self)):
            return self._c == other._c
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._c.items())))

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}: {v!r}" for k, v in sorted(self._c.items()))
        return f"{type(self).__name__}({{{inner}}})"

    @classmethod
    def from_json(cls, text: str) -> SparseMap:
        import json
        return cls.from_json_obj(json.loads(text))

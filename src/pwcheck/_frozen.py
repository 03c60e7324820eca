"""The immutable-value core every pwcheck value class builds on.

Stdlib only, and nothing from the package.  It holds every private
value base: ``Frozen``; the sparse map of ``laurent``, with one checking
constructor, one trusted ``_of`` and ``items``, the one reader in key
order; the graded map of ``filtration`` and ``epoly``; and the record.
The JSON form is written, never read: writing it takes the one C string
encoder from ``_json``, imported where it is used, so that no call loads
``json`` and a text or CSV call loads neither.  It also holds the one
integer rule: an integer input is an exact ``int``, never a bool, a str
or a subclass; and the two roots under which the package raises an
input it refuses and a check it saw fail.
"""

from collections.abc import Iterator, Mapping


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
    """obj as JSON text with no space after a separator: the text of
    json.dumps(obj, separators=(",", ":")), for the values the package
    builds (dicts with str keys, lists, str, int, bool and None); any
    other type raises TypeError.  A string is written by the C function
    json.dumps calls, so a call loads neither json nor its decoder.
    """
    from _json import encode_basestring_ascii as quote

    def encode(value: object) -> str:
        kind = type(value)
        if kind is str:
            return quote(value)
        if kind is int:
            return str(value)
        if kind is list:
            return f"[{','.join(map(encode, value))}]"
        if kind is dict:
            for key in value:
                if type(key) is not str:
                    raise TypeError(f"JSON object key {key!r} is not a str")
            items = ",".join(f"{quote(key)}:{encode(item)}" for key, item in value.items())
            return f"{{{items}}}"
        if kind is bool:
            return "true" if value else "false"
        if value is None:
            return "null"
        raise TypeError(f"a {kind.__name__} is not written as JSON")

    return encode(obj)


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
    """An immutable dict ``_c`` of nonzero entries, read by ``items``,
    hashed and printed in key order.  The constructor checks each entry
    of outside input with the subclass's ``_key`` and
    ``_value(key, value)``; ``_of`` wraps a dict built from checked
    entries.
    """

    __slots__ = ("_c",)

    def __init__(self, entries: Mapping | None = None):
        data: dict = {}
        for key, value in (entries or {}).items():
            key = self._key(key)
            value = self._value(key, value)
            if value:
                data[key] = value
        object.__setattr__(self, "_c", data)

    @classmethod
    def _of(cls, data: dict) -> "SparseMap":
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

    def items(self) -> Iterator[tuple[object, object]]:
        """(key, value) pairs in increasing key order."""
        for key in sorted(self._c):
            yield key, self._c[key]

    def __hash__(self) -> int:
        return hash(tuple(self.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}: {v!r}" for k, v in self.items())
        return f"{type(self).__name__}({{{inner}}})"


class _Graded(SparseMap):
    """Immutable map from keys to positive ints; absent keys read 0.

    The code FiltrationTable and CohomologyProfile share.  A subclass sets
    ``_key``, which checks a key and returns it, and ``_BAD_VALUE``, which
    ``_value`` raises, with ``{}`` for the key, unless a value is an int >= 0.
    """

    __slots__ = ()

    def _value(self, key: object, value: object) -> int:
        if type(value) is not int or value < 0:
            raise ValueError(self._BAD_VALUE.format(key))
        return value

    def __len__(self) -> int:
        return len(self._c)

    def total(self) -> int:
        return sum(self._c.values())


class _Record(Frozen):
    """Immutable record of named fields, equal to a record of its own class
    with equal fields, printed as ``Name(field=value, ...)``.

    A subclass lists its field names, in order, as ``__slots__``; it is
    built from them positionally or by keyword.  A dataclass would do the
    same, but importing ``dataclasses`` loads ``inspect`` and ``ast``, and
    every CLI call pays for that at start-up.
    """

    __slots__ = ()

    def __init__(self, *args: object, **kwargs: object):
        names = self.__slots__
        given = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names or name in given:
                raise TypeError(
                    f"{type(self).__name__}() got an unexpected or repeated argument {name!r}")
            given[name] = value
        if len(args) > len(names) or len(given) < len(names):
            raise TypeError(f"{type(self).__name__}() takes the arguments {', '.join(names)}")
        for name in names:
            object.__setattr__(self, name, given[name])

    def _args(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if type(other) is type(self):
            return self._args() == other._args()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._args())

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({inner})"

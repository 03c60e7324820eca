"""The immutable-value core every pwcheck value class builds on.

Stdlib only, and nothing from the package: both ``laurent`` and
``filtration`` build on it.  ``json`` is imported where it is used, so
that a text or CSV call never loads it.
"""

from __future__ import annotations


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
    key order.  A subclass builds ``_c`` and reads its wire form in
    ``from_json_obj``.
    """

    __slots__ = ("_c",)

    def _args(self) -> tuple:
        return (self._c,)

    def __bool__(self) -> bool:
        return bool(self._c)

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._c.items())))

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}: {v!r}" for k, v in sorted(self._c.items()))
        return f"{type(self).__name__}({{{inner}}})"

    @classmethod
    def from_json(cls, text: str) -> SparseMap:
        import json
        return cls.from_json_obj(json.loads(text))

"""Value semantics for the package's small immutable classes.

A frozen dataclass has them too, but defining one costs about a millisecond
at import, against about 0.01 ms for a class with __slots__.
"""


class Frozen:
    """Equality, hash and repr over the constructor fields that a subclass
    names in `__match_args__`, as a frozen dataclass has them.  No field can
    be assigned or deleted, and copies and unpickling go through the
    constructor, which checks the fields and derives the rest again.

    A subclass lists its fields, then its derived values, in `__slots__`,
    and its `__init__` ends with `self._fill(*fields, *derived)`.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...]

    def _fill(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def _replace(self, **changes):
        """A new instance with some fields changed, built by the constructor."""
        return type(self)(**dict(zip(self.__match_args__, self._values()), **changes))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

"""The base of the package's immutable value classes."""

from operator import attrgetter


class Value:
    """An immutable value whose fields are the parameters of its class's
    `__init__`, which stores them through `__dict__`.  As for a frozen
    dataclass, equality, hash and repr read the fields in order, another
    class gives NotImplemented, and no attribute can be assigned or
    deleted."""

    def __init_subclass__(cls) -> None:
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1 : code.co_argcount]
        get = attrgetter(*cls._fields)
        # The tuple of the field values, a 1-tuple for one field.
        cls._key = staticmethod(get if len(cls._fields) > 1 else lambda x: (get(x),))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

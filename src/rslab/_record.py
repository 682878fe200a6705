"""
A base for small result records.  It stands in for ``dataclasses``, whose
import loads ``inspect`` and ``ast`` into every process that imports
rslab.
"""


class Record:
    """
    A record's fields are its ``__slots__``, in order.  Two records are
    equal when they are of the same class and their fields are equal; the
    repr reads ``Name(field=value, ...)``.  Defining ``__eq__`` leaves a
    record unhashable unless its class defines ``__hash__``.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

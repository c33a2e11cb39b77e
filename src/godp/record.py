"""Record classes: godp's immutable values and its few mutable ones.

A subclass of `Record` declares its fields as a dataclass does: annotations
in order, each with an optional default, or a `field` for a default made per
instance or a field that is not part of the value. From them the class gets,
without generating code, its `__slots__`, a constructor that takes the
fields in order or by name, and `==`, `hash` and `repr` that see the type
and the fields that are part of the value. A record is frozen: a write
raises `dataclasses.FrozenInstanceError`. A class declared with
`frozen=False` is mutable and, like a mutable dataclass, unhashable.
`replace` copies a record with some fields changed.

A class may define its own `__init__`, to compute or check a field; it sets
its fields with `object.__setattr__`. A frozen one may define its own
`__hash__`, consistent with `==`, for a field that has no hash. It may also
name in `__slots__` attributes that are not fields.

`field`, like godp's other plain tuples, is a `collections.namedtuple`, so
importing godp needs neither `dataclasses` nor `typing`.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable
from operator import attrgetter

_MISSING = object()


class field(namedtuple("field", "default factory compare", defaults=(_MISSING, None, True))):
    """A field's `default`, or the `factory` that makes one for each instance;
    with `compare=False` the field is not part of the value, so `==`, `hash`
    and `repr` leave it out."""

    __slots__ = ()


def _refuse(self, attr: str, value: object = None) -> None:
    from dataclasses import FrozenInstanceError  # on this path only: it costs more than every record class

    raise FrozenInstanceError(f"cannot assign to or delete field {attr!r} of a frozen {type(self).__name__}")


def _hash(self) -> int:
    return hash(self._key(self))


def _constructor(setters: tuple) -> Callable:
    """The `__init__` that fills a record's slots, in field order, through
    their `setters`, which neither look a name up nor meet a frozen
    `__setattr__`. Up to three fields, as the records built most often have,
    it does so without a loop, which costs more than the fields: so it is no
    slower than the `__init__` that a frozen dataclass generates."""
    n = len(setters)
    if n == 1:
        (s0,) = setters

        def __init__(self, *args: object, **kwargs: object) -> None:
            if kwargs or len(args) != 1:
                args = self._bind(args, kwargs)
            s0(self, args[0])
    elif n == 2:
        s0, s1 = setters

        def __init__(self, *args: object, **kwargs: object) -> None:
            if kwargs or len(args) != 2:
                args = self._bind(args, kwargs)
            s0(self, args[0])
            s1(self, args[1])
    elif n == 3:
        s0, s1, s2 = setters

        def __init__(self, *args: object, **kwargs: object) -> None:
            if kwargs or len(args) != 3:
                args = self._bind(args, kwargs)
            s0(self, args[0])
            s1(self, args[1])
            s2(self, args[2])
    else:
        def __init__(self, *args: object, **kwargs: object) -> None:
            if kwargs or len(args) != n:
                args = self._bind(args, kwargs)
            for set_field, value in zip(setters, args):
                set_field(self, value)
    return __init__


class _RecordType(type):
    def __new__(mcls, name: str, bases: tuple, ns: dict, frozen: bool = True):
        own = tuple(ns.get("__annotations__", ()))
        specs = [(f, s if isinstance(s := ns.pop(f, _MISSING), field) else field(s)) for f in own]
        ns["__slots__"] = (*own, *ns.get("__slots__", ()))
        if frozen:
            ns.update(__setattr__=_refuse, __delattr__=_refuse, __hash__=ns.get("__hash__", _hash))
        else:
            ns["__hash__"] = None
        cls = super().__new__(mcls, name, bases, ns)
        cls._fields = fields = (*getattr(cls, "_fields", ()), *own)
        if own and "__init__" not in ns:  # else it inherits one
            cls.__init__ = _constructor(tuple(getattr(cls, f).__set__ for f in fields))
        cls._defaults = {
            **getattr(cls, "_defaults", {}),
            **{f: s for f, s in specs if s.default is not _MISSING or s.factory is not None},
        }
        cls._compared = (*getattr(cls, "_compared", ()), *(f for f, s in specs if s.compare))
        cls._key = attrgetter("__class__", *cls._compared)  # no descriptor: `self._key` is the getter
        get = attrgetter(*fields) if fields else None  # `_values`: a tuple of the fields, however many
        cls._values = staticmethod(get if len(fields) > 1 else lambda r: (get(r),) if get else ())
        return cls


class Record(metaclass=_RecordType, frozen=False):
    """Base of the record classes; see the module docstring."""

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """Every field's value from a call's arguments, bound as a signature
        listing the fields in order, with their defaults, would bind them."""
        if len(args) > len(cls._fields):
            raise TypeError(f"{cls.__name__}() takes {len(cls._fields)} arguments, got {len(args)}")
        values = list(args)
        for f in cls._fields[len(args):]:
            spec = cls._defaults.get(f)
            if f in kwargs:
                values.append(kwargs.pop(f))
            elif spec is None:
                raise TypeError(f"{cls.__name__}() missing argument {f!r}")
            else:
                values.append(spec.default if spec.factory is None else spec.factory())
        if kwargs:
            raise TypeError(f"{cls.__name__}() got an unexpected or repeated argument {next(iter(kwargs))!r}")
        return values

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._compared)
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):  # a copy or an unpickled record is built by its constructor
        return type(self), self._values(self)


def replace(record: Record, /, **changes: object) -> Record:
    """A copy of `record` with `changes` to some of its fields."""
    values = [changes.pop(f, v) for f, v in zip(record._fields, record._values(record))]
    if changes:
        raise TypeError(f"{type(record).__name__} has no field {next(iter(changes))!r}")
    return type(record)(*values)

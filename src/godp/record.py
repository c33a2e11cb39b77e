"""Record classes: godp's immutable values and its few mutable ones.

A subclass of `Record` declares its fields as a dataclass does: annotations
in order, each with an optional default, or a `field` for a field that is
not part of the value. From them the class gets its `__slots__`, an
`__init__` whose parameters are its fields, and `==`, `hash` and `repr` that
see the type and the fields that are part of the value. A record is frozen:
a write raises `dataclasses.FrozenInstanceError`. A class declared with
`frozen=False` is mutable and, like a mutable dataclass, unhashable. A class
that declares neither is as mutable as its first base, a record class; a
direct subclass of `Record` is frozen. `replace` copies a record with some
fields changed.

The `__init__` is made without compiling anything. `_templates` holds one
hand-written constructor for each field count in use (1 to 5, 7 and 10); a
class gets a copy of the one for its count (`CodeType.replace`), with its
fields as the parameters, the class's name as the function's, its fields'
defaults, and its slots' setters as the closure. So Python binds a call's
arguments itself, by position or by name, and its own messages name the
class: `RefExpr() missing 1 required positional argument: 'name'`. A default
holds only after the last field without one: a subclass that adds a required
field after its base's defaulted one makes that one required. A field count
with no template is a `TypeError` when the class is made. An `exec` per
class, as `dataclasses` does it, would bind as fast, but compiling the
constructors would cost each process more than making every record class
does.

A class may define its own `__init__`, to compute or check a field, or to
make a default per instance (declared `None`); a frozen one sets its fields
with `object.__setattr__`. A frozen class may define its own `__hash__`,
consistent with `==`, for a field that has no hash. It may also name in
`__slots__` attributes that are not fields.

`field`, like godp's other plain tuples, is a `collections.namedtuple`, so
importing godp needs neither `dataclasses` nor `typing`.
"""

from __future__ import annotations

from collections import namedtuple
from operator import attrgetter
from types import CellType, FunctionType

_MISSING = object()


class field(namedtuple("field", "default compare", defaults=(_MISSING, True))):
    """A field's `default`, if it has one; with `compare=False` the field is
    not part of the value, so `==`, `hash` and `repr` leave it out."""

    __slots__ = ()


def _refuse(self, attr: str, value: object = None) -> None:
    from dataclasses import FrozenInstanceError  # on this path only: it costs more than every record class

    raise FrozenInstanceError(f"cannot assign to or delete field {attr!r} of a frozen {type(self).__name__}")


def _hash(self) -> int:
    return hash(self._key(self))


def _templates() -> dict:
    """The code of a record constructor for each field count in use, by that
    count. A template's parameters `a`, `b`, … are renamed for a class's
    fields, in order, and each is set by the same letter in capitals: a free
    variable, whose closure cell holds the field's slot setter, which neither
    looks a name up nor meets a frozen `__setattr__`. There is no loop, which
    would cost more than the fields."""
    A = B = C = D = E = F = G = H = I = J = None

    def t1(self, a):
        A(self, a)

    def t2(self, a, b):
        A(self, a)
        B(self, b)

    def t3(self, a, b, c):
        A(self, a)
        B(self, b)
        C(self, c)

    def t4(self, a, b, c, d):
        A(self, a)
        B(self, b)
        C(self, c)
        D(self, d)

    def t5(self, a, b, c, d, e):
        A(self, a)
        B(self, b)
        C(self, c)
        D(self, d)
        E(self, e)

    def t7(self, a, b, c, d, e, f, g):
        A(self, a)
        B(self, b)
        C(self, c)
        D(self, d)
        E(self, e)
        F(self, f)
        G(self, g)

    def t10(self, a, b, c, d, e, f, g, h, i, j):
        A(self, a)
        B(self, b)
        C(self, c)
        D(self, d)
        E(self, e)
        F(self, f)
        G(self, g)
        H(self, h)
        I(self, i)
        J(self, j)

    return {t.__code__.co_argcount - 1: t.__code__ for t in (t1, t2, t3, t4, t5, t7, t10)}


_TEMPLATES = _templates()


def _native_init(cls: type) -> FunctionType:
    """`cls`'s `__init__`: the template for its field count, with the fields
    as parameters, the defaults after its last field without one, and the
    class's name, so that Python's own messages name the class."""
    fields, name = cls._fields, cls.__name__
    code = _TEMPLATES.get(len(fields))
    if code is None:
        raise TypeError(
            f"{name} has {len(fields)} fields, which no constructor template takes: define {name}.__init__"
        )
    code = code.replace(co_varnames=("self", *fields), co_name=name)
    if hasattr(code, "co_qualname"):  # from Python 3.11; before, a function's qualname is its code's name
        code = code.replace(co_qualname=name)
    n = len(fields)
    while n and fields[n - 1] in cls._defaults:
        n -= 1
    # a closure's cells follow `code.co_freevars`, which are sorted: `A`, `B`, …
    setters = tuple([CellType(getattr(cls, f).__set__) for f in fields])
    return FunctionType(code, globals(), name, tuple(map(cls._defaults.get, fields[n:])), setters)


class _RecordType(type):
    def __new__(mcls, name: str, bases: tuple, ns: dict, frozen: bool | None = None):
        if frozen is None:  # as its first base, unless that is `Record`
            frozen = bases[0] is Record or bases[0]._frozen
        own = tuple(ns.get("__annotations__", ()))
        specs = [(f, s if isinstance(s := ns.pop(f, _MISSING), field) else field(s)) for f in own]
        ns["__slots__"] = (*own, *ns.get("__slots__", ()))
        if frozen:
            ns.update(__setattr__=_refuse, __delattr__=_refuse, __hash__=ns.get("__hash__", _hash))
        else:
            ns["__hash__"] = None
        cls = super().__new__(mcls, name, bases, ns)
        cls._frozen = frozen
        cls._fields = fields = (*getattr(cls, "_fields", ()), *own)
        own_defaults = {f: s.default for f, s in specs if s.default is not _MISSING}
        cls._defaults = {**getattr(cls, "_defaults", {}), **own_defaults}
        if own and "__init__" not in ns:  # else it inherits one
            cls.__init__ = _native_init(cls)
        cls._compared = (*getattr(cls, "_compared", ()), *(f for f, s in specs if s.compare))
        cls._key = attrgetter("__class__", *cls._compared)  # no descriptor: `self._key` is the getter
        get = attrgetter(*fields) if fields else None  # `_values`: a tuple of the fields, however many
        cls._values = staticmethod(get if len(fields) > 1 else lambda r: (get(r),) if get else ())
        return cls


class Record(metaclass=_RecordType, frozen=False):
    """Base of the record classes; see the module docstring."""

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

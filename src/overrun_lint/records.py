"""Record classes: what `@dataclass` gives this package, made cheaply.

`@record` reads a class's annotations as `@dataclass` does and takes the
same options (`init`, `eq`, `frozen`, `slots`, `kw_only`, and `field()` for
defaults, factories and keyword-only fields).  It generates only
`__init__`, by one `exec` per class; `__repr__`, `__eq__`, `__hash__` and
the frozen `__setattr__` are the shared functions below, which read the
class's fields.  Each gives what `@dataclass` gives: the same repr text,
value equality between records of one class, a hash of the field values
for a frozen record with `eq`, no hash for a mutable one, and identity
with `eq=False`.

The generated `__init__` is the one `@dataclass` writes: fields in order
across the class hierarchy, positional unless keyword-only, a redeclared
field keeping its first position.  A default built by a factory is built
per instance.
"""

from __future__ import annotations

from operator import attrgetter
from reprlib import recursive_repr

_MISSING = object()
_FACTORY = object()  # the default of a field whose factory builds it per call
# Factories written as a literal in __init__, which is cheaper than a call.
_LITERALS = {list: "[]", dict: "{}"}


class FrozenInstanceError(AttributeError):
    """An assignment to a field of a frozen record."""


class Field:
    __slots__ = ("name", "default", "default_factory", "kw_only")

    def __init__(self, name, default=_MISSING, default_factory=_MISSING, kw_only=None):
        self.name = name
        self.default = default
        self.default_factory = default_factory
        self.kw_only = kw_only


def field(*, default=_MISSING, default_factory=_MISSING, kw_only=None):
    """A field's default, the factory that builds it, or that it is keyword-only."""
    return Field(None, default, default_factory, kw_only)


def fields(record) -> tuple[Field, ...]:
    """The fields of a record class or instance, in `__init__`'s order."""
    try:
        return record.__record_fields__
    except AttributeError:
        raise TypeError(f"{record!r} is not a record") from None


def record(cls=None, /, *, init=True, eq=True, frozen=False, slots=False, kw_only=False):
    """Make cls a record; usable bare (`@record`) or with options."""

    def wrap(cls):
        return _process(cls, init, eq, frozen, slots, kw_only)

    return wrap if cls is None else wrap(cls)


def _process(cls, init, eq, frozen, slots, kw_only):
    by_name = {}
    for base in reversed(cls.__mro__[1:]):
        for f in base.__dict__.get("__record_fields__", ()):
            by_name[f.name] = f
    for name in cls.__dict__.get("__annotations__", {}):
        value = cls.__dict__.get(name, _MISSING)
        if isinstance(value, Field):
            value.name = name
            f = value
        else:
            f = Field(name, value)
        if f.kw_only is None:
            f.kw_only = kw_only
        by_name[name] = f
        # As in a dataclass: a plain default stays a class attribute.
        if f.default is _MISSING or slots:
            if name in cls.__dict__:
                delattr(cls, name)
        else:
            setattr(cls, name, f.default)
    if slots:
        cls = _with_slots(cls, by_name)
    cls.__record_fields__ = tuple(by_name.values())
    cls.__record_values__ = _getter(tuple(by_name))
    methods = {"__repr__": _repr}
    if init:
        methods["__init__"] = _make_init(cls, frozen)
    if eq:
        methods["__eq__"] = _eq
    if frozen:
        methods["__setattr__"] = _frozen_setattr
        methods["__delattr__"] = _frozen_delattr
    for name, method in methods.items():
        if name not in cls.__dict__:
            setattr(cls, name, method)
    if eq and "__hash__" not in cls.__dict__:
        cls.__hash__ = _hash if frozen else None
    return cls


def _with_slots(cls, by_name):
    """cls rebuilt with a slot for each field that no base has one for."""
    inherited = {name for base in cls.__mro__[1:-1] for name in base.__dict__.get("__slots__", ())}
    body = dict(cls.__dict__)
    body["__slots__"] = tuple(name for name in by_name if name not in inherited)
    body.pop("__dict__", None)
    body.pop("__weakref__", None)
    qualname = cls.__qualname__
    cls = type(cls)(cls.__name__, cls.__bases__, body)
    cls.__qualname__ = qualname
    return cls


def _make_init(cls, frozen):
    """cls's `__init__`, as @dataclass writes it."""
    namespace = {"_FACTORY": _FACTORY, "_setattr": object.__setattr__}
    positional, keyword, body = [], [], []
    for f in cls.__record_fields__:
        name = f.name
        value = name
        if f.default_factory is not _MISSING:
            param = f"{name}=_FACTORY"
            build = _LITERALS.get(f.default_factory)
            if build is None:
                namespace[f"_factory_{name}"] = f.default_factory
                build = f"_factory_{name}()"
            value = f"{build} if {name} is _FACTORY else {name}"
        elif f.default is not _MISSING:
            namespace[f"_default_{name}"] = f.default
            param = f"{name}=_default_{name}"
        else:
            param = name
        (keyword if f.kw_only else positional).append(param)
        body.append(f"_setattr(self, {name!r}, {value})" if frozen else f"self.{name} = {value}")
    params = ", ".join(["self", *positional, *(["*", *keyword] if keyword else [])])
    source = f"def __init__({params}):\n    " + ("\n    ".join(body) or "pass") + "\n"
    exec(source, namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init


def _getter(names):
    """A function from a record to the tuple of its field values."""
    if len(names) > 1:
        return attrgetter(*names)
    return lambda record: tuple([getattr(record, name) for name in names])


@recursive_repr()
def _repr(self) -> str:
    values = ", ".join(f"{f.name}={getattr(self, f.name)!r}" for f in self.__record_fields__)
    return f"{self.__class__.__qualname__}({values})"


def _eq(self, other):
    if other.__class__ is self.__class__:
        values = self.__class__.__record_values__
        return values(self) == values(other)
    return NotImplemented


def _hash(self) -> int:
    return hash(self.__class__.__record_values__(self))


def _frozen_setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")

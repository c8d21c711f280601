"""Semantic types for SL expressions.

Types are interned (hash-consed): building a type equal to one that is
alive returns that one, so `==`, `in` and hashing are identity tests.  The
intern table holds its types weakly and never outlives them.
"""

from __future__ import annotations

from weakref import WeakValueDictionary

from ..records import fields, record
from ..frontend.ast import TypeRef

# (class, *field values) -> the live type with those fields.
_INTERNED: WeakValueDictionary[tuple, Type] = WeakValueDictionary()


@record(frozen=True, eq=False, init=False)
class Type:
    def __new__(cls, *values: object) -> Type:
        key = (cls, *values)
        t = _INTERNED.get(key)
        if t is None:
            names = [f.name for f in fields(cls)]
            if len(values) != len(names):
                raise TypeError(f"{cls.__name__} takes {len(names)} values, not {len(values)}")
            t = _INTERNED[key] = object.__new__(cls)
            for name, value in zip(names, values):
                object.__setattr__(t, name, value)
        return t


@record(frozen=True, eq=False, init=False)
class PrimType(Type):
    name: str  # int | byte | double | boolean | void

    def __str__(self) -> str:
        return self.name


@record(frozen=True, eq=False, init=False)
class StringType(Type):
    def __str__(self) -> str:
        return "String"


@record(frozen=True, eq=False, init=False)
class ClassType(Type):
    name: str

    def __str__(self) -> str:
        return self.name


@record(frozen=True, eq=False, init=False)
class ArrayType(Type):
    elem: Type

    def __str__(self) -> str:
        return f"{self.elem}[]"


@record(frozen=True, eq=False, init=False)
class NullType(Type):
    def __str__(self) -> str:
        return "null"


INT = PrimType("int")
BYTE = PrimType("byte")
DOUBLE = PrimType("double")
BOOLEAN = PrimType("boolean")
VOID_T = PrimType("void")
STRING = StringType()
NULL = NullType()

_PRIMS = {"int": INT, "byte": BYTE, "double": DOUBLE, "boolean": BOOLEAN, "void": VOID_T}

INT_MIN, INT_MAX = -(2**31), 2**31 - 1


def from_type_ref(ref: TypeRef) -> Type:
    if ref.base in _PRIMS:
        base: Type = _PRIMS[ref.base]
    elif ref.base == "String":
        base = STRING
    else:
        base = ClassType(ref.base)
    for _ in range(ref.dims):
        base = ArrayType(base)
    return base


NUMERIC = frozenset((INT, BYTE, DOUBLE))

# (dst, src) for each primitive store that converts its value.  A store of
# an int into a byte wraps at runtime (recorded as an overflow warning).
_WIDENINGS = frozenset(((INT, BYTE), (BYTE, INT), (DOUBLE, INT), (DOUBLE, BYTE)))
_NULLABLE = (StringType, ClassType, ArrayType)


def assignable(dst: Type, src: Type, subclass_ok) -> bool:
    """Whether a value of src may be stored into a slot of dst.

    subclass_ok(base_name, derived_name) answers class-hierarchy queries.
    """
    if dst is src:
        return True
    if src is NULL:
        return type(dst) in _NULLABLE
    if type(dst) is ClassType:
        return type(src) is ClassType and subclass_ok(dst.name, src.name)
    return (dst, src) in _WIDENINGS

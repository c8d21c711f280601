"""Semantic types are interned: equal types are one object, and the intern
table holds them weakly."""

import gc

import pytest

from overrun_lint.frontend.ast import TypeRef
from overrun_lint.semantics import types as ty


def test_equal_class_types_are_one_object():
    assert ty.ClassType("A") is ty.ClassType("A")
    assert ty.ClassType("A") is not ty.ClassType("B")


def test_from_type_ref_returns_the_interned_type():
    assert ty.from_type_ref(TypeRef("int", 2)) is ty.ArrayType(ty.ArrayType(ty.INT))
    assert ty.from_type_ref(TypeRef("Node", 1)) is ty.ArrayType(ty.ClassType("Node"))
    assert ty.from_type_ref(TypeRef("String")) is ty.STRING


def test_the_module_constants_are_the_interned_types():
    assert ty.StringType() is ty.STRING
    assert ty.PrimType("int") is ty.INT
    assert ty.NullType() is ty.NULL


def test_types_compare_and_hash_by_identity():
    arr = ty.ArrayType(ty.ClassType("A"))
    assert arr == ty.ArrayType(ty.ClassType("A")) and arr != ty.ArrayType(ty.ClassType("B"))
    assert hash(arr) == hash(ty.ArrayType(ty.ClassType("A")))
    assert ty.NULL in (ty.INT, ty.NULL) and ty.DOUBLE not in (ty.INT, ty.BYTE)
    assert repr(arr) == "ArrayType(elem=ClassType(name='A'))" and str(arr) == "A[]"


def test_types_are_immutable_and_take_every_field():
    with pytest.raises(AttributeError):
        ty.INT.name = "double"
    with pytest.raises(TypeError):
        ty.ClassType()


def test_the_intern_table_does_not_outlive_its_types():
    gc.collect()
    before = len(ty._INTERNED)
    made = [ty.ArrayType(ty.ClassType(f"Gone{k}")) for k in range(10_000)]
    assert len(ty._INTERNED) >= before + 20_000
    del made
    gc.collect()
    assert len(ty._INTERNED) <= before

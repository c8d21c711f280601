"""The parser builds each node with one positional call, so the field order
of every class in `frontend/ast.py` is part of its contract.  These tests
check each field of every parsed node against its record annotation: a
reordered or inserted field then fails here instead of being misassigned
silently.  The rest check what `records.record` keeps of a dataclass:
field order, keyword-only fields, fresh factory defaults, repr, frozen
records and identity records."""

import inspect
import random
from pathlib import Path
from types import NoneType, UnionType
from typing import Union, get_args, get_origin, get_type_hints

import pytest

from overrun_lint.frontend import ast
from overrun_lint.frontend.lexer import SourceSpan
from overrun_lint.frontend.parser import parse_source
from overrun_lint.detectors.clones import ClonePair
from overrun_lint.detectors.model import Classification
from overrun_lint.records import FrozenInstanceError, fields
from overrun_lint.semantics import types as ty
from overrun_lint.semantics.resolver import BUILTINS, Builtin

from progen import gen_bound_program, gen_structured_method, seeded_unit

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
LITERAL_KINDS = {"int": int, "double": float, "string": str, "boolean": bool}
# Every construct of the grammar, for the node classes that the corpus and
# the generated programs leave out.
EVERY_SHAPE = """\
package p.q;
class Shapes extends Thread {
    static final double RATE = 1.5;
    Shapes next;
    Shapes(int n) { }
    int pick(final int k, int[] xs) {
        // a comment
        ;
        switch (k) { case 1: k++; default: xs[0]--; }
        try { next.next = null; } catch (Exception e) { return -k; } finally { assert k > 0 : "k"; }
        synchronized (this) { while (!(k < 0)) { k = k - 1; } }
        for (int i = 0; i < 2; i++) if (true) { } else if (false) { } else k = xs.length;
        String s = "s" + new Shapes(k).pick(k, new int[2]);
        return k;
    }
}
"""


def _programs() -> dict[str, str]:
    rng = random.Random(7)
    out = {p.name: p.read_text() for p in sorted(CORPUS.glob("*.sl"))}
    for k in range(6):
        out[f"bound{k}.sl"] = gen_bound_program(rng).source
        out[f"structured{k}.sl"] = gen_structured_method(rng)[0]
        out[f"seeded{k}.sl"] = seeded_unit(k)
    out["shapes.sl"] = EVERY_SHAPE
    return out


def _fits(value: object, hint: object) -> bool:
    if get_origin(hint) in (Union, UnionType):
        return any(_fits(value, h) for h in get_args(hint))
    if get_origin(hint) is list:
        (item,) = get_args(hint)
        return type(value) is list and all(_fits(v, item) for v in value)
    if get_origin(hint) is tuple:
        item, ellipsis = get_args(hint)  # only tuple[item, ...] is declared
        assert ellipsis is Ellipsis, hint
        return type(value) is tuple and all(_fits(v, item) for v in value)
    if hint is NoneType:
        return value is None
    if hint is object:
        return True
    if hint in (bool, int, str):
        return type(value) is hint
    assert hint in (SourceSpan, ast.TypeRef) or issubclass(hint, ast.Node), hint
    return isinstance(value, hint)


@pytest.fixture(scope="module")
def parsed_nodes() -> list[ast.Node]:
    units = [parse_source(source, name) for name, source in _programs().items()]
    return [node for unit in units for node in ast.walk(unit)]


def test_every_parsed_field_fits_its_annotation(parsed_nodes):
    misfits = []
    for node in parsed_nodes:
        hints = get_type_hints(type(node))
        for f in fields(node):
            value = getattr(node, f.name)
            if not _fits(value, hints[f.name]):
                misfits.append(f"{type(node).__name__}.{f.name} = {value!r:.60} at {node.span}")
    assert not misfits, "\n".join(misfits[:20])


def test_literal_values_fit_their_kind(parsed_nodes):
    literals = [n for n in parsed_nodes if isinstance(n, ast.Literal)]
    assert {lit.kind for lit in literals} == set(LITERAL_KINDS)
    assert all(type(lit.value) is LITERAL_KINDS[lit.kind] for lit in literals)


def test_the_programs_build_every_node_class(parsed_nodes):
    built = {type(n) for n in parsed_nodes}
    classes = {c for c in vars(ast).values() if isinstance(c, type) and issubclass(c, ast.Node)}
    assert classes - built == {ast.Node, ast.Stmt, ast.Expr}


def test_positional_and_keyword_construction_agree():
    span = SourceSpan("<t>", 1, 1, 1, 5)
    a, b = ast.Name(span, 0, "a"), ast.Literal(span, 1, 2, "int")
    assert ast.Binary(span, 2, "+", a, b) == ast.Binary(span=span, uid=2, op="+", left=a, right=b)
    stmt = ast.Return(span, 3, a)
    assert stmt.leading_comments == ()
    assert ast.Return(span, 3, a, leading_comments=("// c",)).leading_comments == ("// c",)
    with pytest.raises(TypeError):
        ast.Return(span, 3, a, ("// c",))  # leading_comments is keyword-only


# Every node class's fields, in the order of its __init__; the parser's
# `cls(span, uid, *fields)` passes the ones that are not keyword-only.
FIELD_ORDER = {
    ast.Node: "span uid",
    ast.Stmt: "span uid leading_comments",
    ast.Expr: "span uid",
    ast.Param: "span uid name type final",
    ast.FieldDecl: "span uid name type static final initializer leading_comments",
    ast.MethodDecl: "span uid name params return_type body is_constructor is_static leading_comments",
    ast.ClassDecl: "span uid name extends fields methods leading_comments",
    ast.CompilationUnit: "span uid package_name classes source file trailing_comments",
    ast.Block: "span uid leading_comments stmts trailing_comments",
    ast.If: "span uid leading_comments cond then els",
    ast.While: "span uid leading_comments cond body",
    ast.For: "span uid leading_comments init cond update body",
    ast.SwitchCase: "span uid label body",
    ast.Switch: "span uid leading_comments subject cases",
    ast.CatchClause: "span uid exc_type name body",
    ast.Try: "span uid leading_comments body catches finally_block",
    ast.Return: "span uid leading_comments value",
    ast.ExprStmt: "span uid leading_comments expr",
    ast.LocalDecl: "span uid leading_comments name type final initializer",
    ast.Assert: "span uid leading_comments condition message",
    ast.Synchronized: "span uid leading_comments monitor body",
    ast.Empty: "span uid leading_comments",
    ast.Binary: "span uid op left right",
    ast.Unary: "span uid op operand",
    ast.Call: "span uid name args receiver",
    ast.New: "span uid class_name args",
    ast.NewArray: "span uid elem_type size_expr",
    ast.Index: "span uid array index",
    ast.FieldAccess: "span uid receiver name",
    ast.Name: "span uid identifier",
    ast.Literal: "span uid value kind",
    ast.Null: "span uid",
}
NODE_CLASSES = [c for c in vars(ast).values() if isinstance(c, type) and issubclass(c, ast.Node)]
SPAN = SourceSpan("<t>", 1, 1, 1, 5)


@pytest.mark.parametrize("cls", NODE_CLASSES, ids=lambda c: c.__name__)
def test_fields_give_the_positional_order_the_parser_relies_on(cls):
    assert " ".join(f.name for f in fields(cls)) == FIELD_ORDER[cls]
    params = inspect.signature(cls).parameters.values()
    positional = [p.name for p in params if p.kind is p.POSITIONAL_OR_KEYWORD]
    assert positional == [f.name for f in fields(cls) if not f.kw_only]


@pytest.mark.parametrize("cls", [c for c in NODE_CLASSES if issubclass(c, ast.Stmt)], ids=lambda c: c.__name__)
def test_leading_comments_stay_keyword_only(cls):
    assert inspect.signature(cls).parameters["leading_comments"].kind is inspect.Parameter.KEYWORD_ONLY


def test_a_unit_takes_only_its_span_by_position():
    params = inspect.signature(ast.CompilationUnit).parameters.values()
    assert [p.name for p in params if p.kind is p.POSITIONAL_OR_KEYWORD] == ["span"]
    assert ast.CompilationUnit(SPAN).uid == -1


def test_factory_defaults_are_fresh_per_instance():
    a, b = ast.Block(SPAN, 0), ast.Block(SPAN, 1)
    assert a.stmts == b.stmts == [] and a.stmts is not b.stmts
    assert ast.CompilationUnit(SPAN).classes is not ast.CompilationUnit(SPAN).classes
    # Comments are immutable tuples, so every node without any shares ().
    unit = ast.CompilationUnit(SPAN)
    assert a.leading_comments == a.trailing_comments == b.leading_comments == unit.trailing_comments == ()
    assert ast.ClassDecl(SPAN, 0, "A").leading_comments == ()


def test_repr_is_the_dataclass_text():
    assert repr(ast.Name(SPAN, 0, "a")) == (
        "Name(span=SourceSpan(file='<t>', line=1, column=1, end_line=1, end_column=5), uid=0, identifier='a')"
    )
    assert repr(ast.TypeRef("int", 1)) == "TypeRef(base='int', dims=1)"
    assert repr(ty.ArrayType(ty.INT)) == "ArrayType(elem=PrimType(name='int'))"
    assert repr(ty.STRING) == "StringType()"


def test_mutable_records_compare_by_value_and_have_no_hash():
    assert ast.Name(SPAN, 0, "a") == ast.Name(SPAN, 0, "a") != ast.Name(SPAN, 0, "b")
    assert ast.Name(SPAN, 0, "a") != ast.Null(SPAN, 0)
    with pytest.raises(TypeError):
        hash(ast.Name(SPAN, 0, "a"))


def test_frozen_records_reject_assignment_and_hash_by_value():
    frozen = [
        (ast.TypeRef("int", 1), ast.TypeRef("int", 1)),
        (ClonePair(SPAN, SPAN, 30), ClonePair(SPAN, SPAN, 30)),
        (Classification("c", 1, "red", 2, "scariest", "high"), Classification("c", 1, "red", 2, "scariest", "high")),
    ]
    for a, b in frozen:
        assert a == b and a is not b and hash(a) == hash(b)
        with pytest.raises(FrozenInstanceError):
            a.priority = 3
        with pytest.raises(AttributeError):
            del a.priority
    assert ast.TypeRef("int", 1) != ast.TypeRef("int", 2)


def test_builtins_and_interned_types_are_hashed_by_identity():
    println = BUILTINS[(None, "println")]
    twin = Builtin(println.owner, println.name, println.params, println.result, static=println.static)
    assert twin != println and hash(println) == object.__hash__(println)
    assert {println: 1}.get(twin) is None
    with pytest.raises(FrozenInstanceError):
        println.name = "print"
    for t in (ty.INT, ty.STRING, ty.NULL, ty.ArrayType(ty.INT), ty.ClassType("A")):
        assert hash(t) == object.__hash__(t)
        with pytest.raises(FrozenInstanceError):
            t.name = "x"
    assert ty.PrimType("int") is ty.INT and ty.ArrayType(ty.ClassType("A")) is ty.ArrayType(ty.ClassType("A"))
    assert [f.name for f in fields(ty.ArrayType)] == ["elem"]

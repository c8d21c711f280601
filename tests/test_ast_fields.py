"""The parser builds each node with one positional call, so the field order
of every class in `frontend/ast.py` is part of its contract.  These tests
check each field of every parsed node against its dataclass annotation: a
reordered or inserted field then fails here instead of being misassigned
silently."""

import random
from dataclasses import fields
from pathlib import Path
from types import NoneType, UnionType
from typing import Union, get_args, get_origin, get_type_hints

import pytest

from overrun_lint.frontend import ast
from overrun_lint.frontend.lexer import SourceSpan
from overrun_lint.frontend.parser import parse_source

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
    assert stmt.leading_comments == []
    assert ast.Return(span, 3, a, leading_comments=["// c"]).leading_comments == ["// c"]
    with pytest.raises(TypeError):
        ast.Return(span, 3, a, ["// c"])  # leading_comments is keyword-only

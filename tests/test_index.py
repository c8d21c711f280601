"""The node index answers tree queries as the tree itself does.

Over the corpus (as parsed and as rebuilt without the parser's index), 50
seeded units, the 500 bound fuzz programs, a unit with the remaining
statement kinds and a hand-built unit, every node's `subtree` holds the
nodes of its `ast.walk`, `parent` agrees with a parent map built by
scanning every field, and `is_within` agrees with a climb up that map.  A
parsed unit's index, which the parser builds, lists the nodes in source
pre-order.  Any other unit's is built by a walk that orders siblings by
span.
"""

import ast as pyast
import dataclasses
import random
from pathlib import Path

import pytest

from overrun_lint.frontend import ast, parse_source
from overrun_lint.frontend.ast import walk
from overrun_lint.frontend.lexer import SourceSpan
from overrun_lint.semantics import build_call_graph, build_symbol_table

from oracle import field_scan_children, parent_map, source_preorder
from progen import gen_bound_program, seeded_unit

SRC = Path(__file__).resolve().parent.parent / "src" / "overrun_lint"

# The statements that no corpus file, seeded unit or fuzz program holds.
STATEMENTS = """\
class S {
    void m(int x) {
        switch (x) {
        case 1:
            ;
        default:
            x = 0;
        }
        try {
            x = 1;
        } catch (Exception e) {
        } finally {
            x = 3;
        }
    }
}
"""


def _hand_built_unit(**unit):
    """println(1) in a method, with uids in no order; the unit's own uid is
    the default, -1, unless given."""
    span = SourceSpan("hand.sl", 1, 1, 1, 1)
    arg = ast.Literal(span=span, uid=900, value=1, kind="int")
    call = ast.Call(span=span, uid=40, name="println", args=[arg])
    body = ast.Block(span=span, uid=7, stmts=[ast.ExprStmt(span=span, uid=1200, expr=call)])
    method = ast.MethodDecl(span=span, uid=3, name="m", params=[], return_type=ast.VOID, body=body)
    cls = ast.ClassDecl(span=span, uid=5000, name="Hand", methods=[method])
    return ast.CompilationUnit(span=span, classes=[cls], **unit)


def _parsed_units(corpus_sources):
    yield parse_source(STATEMENTS, "statements.sl")
    for name, source in corpus_sources.items():
        yield parse_source(source, name)
    for seed in range(50):
        yield parse_source(seeded_unit(seed), f"seeded{seed}.sl")
    rng = random.Random(114)
    for k in range(500):
        yield parse_source(gen_bound_program(rng).source, f"fuzz{k}.sl")


@pytest.fixture(scope="module")
def parsed_units(corpus_sources):
    return list(_parsed_units(corpus_sources))


@pytest.fixture(scope="module")
def walked_units(corpus_sources):
    """Units without a parser's index: the hand-built ones, an empty one,
    and each corpus file's parsed tree in a new unit, which indexes it by a
    walk."""
    empty = ast.CompilationUnit(span=SourceSpan("empty.sl", 1, 1, 1, 1), classes=[])
    units = [_hand_built_unit(uid=60), _hand_built_unit(), empty]
    for name, source in corpus_sources.items():
        units.append(dataclasses.replace(parse_source(source, name)))
    return units


@pytest.fixture(scope="module")
def units(parsed_units, walked_units):
    return parsed_units + walked_units


def _walk_order(root):
    """Pre-order over nodes' children by span start (ties in field order)."""
    order, stack = [], [root]
    while stack:
        node = stack.pop()
        order.append(node)
        children = sorted(field_scan_children(node), key=lambda child: (child.span.line, child.span.column))
        stack.extend(reversed(children))
    return order


def _within(parents, node, root):
    cur = node
    while cur is not None and cur is not root:
        cur = parents.get(cur.uid)
    return cur is root


def test_subtree_is_the_walks_nodes_and_parent_is_the_field_scan(parsed_units, walked_units):
    cases = [(unit, source_preorder(unit)) for unit in parsed_units]
    cases += [(unit, _walk_order(unit)) for unit in walked_units]
    for unit, order in cases:
        res = build_symbol_table(unit)
        parents = parent_map(unit)
        assert list(map(id, res.nodes)) == list(map(id, order)), unit.file
        for node in res.nodes:
            subtree = res.subtree(node)
            assert subtree[0] is node, (unit.file, type(node).__name__)
            assert sorted(map(id, subtree)) == sorted(map(id, walk(node))), (unit.file, type(node).__name__)
            assert res.parent(node) is parents.get(node.uid), (unit.file, type(node).__name__)


def test_parsed_siblings_are_created_in_source_order(parsed_units):
    # By uid, each node's children begin in source order, but for the
    # `i + 1` of `i++`, whose 1 is created before the copy of i.
    for unit in parsed_units:
        for node in walk(unit):
            if isinstance(node, ast.Binary) and node.right.uid < node.left.uid:
                assert isinstance(node.right, ast.Literal) and node.right.value == 1, unit.file
                continue
            children = sorted(field_scan_children(node), key=lambda child: child.uid)
            starts = [(child.span.line, child.span.column) for child in children]
            assert starts == sorted(starts), (unit.file, type(node).__name__)


def test_is_within_agrees_with_a_climb(units):
    rng = random.Random(7)
    for unit in units:
        res = build_symbol_table(unit)
        parents = parent_map(unit)
        for _ in range(50):
            node, root = rng.choice(res.nodes), rng.choice(res.nodes)
            # Half the roots are ancestors of node, so both answers occur.
            if rng.random() < 0.5:
                chain = [node]
                while parents.get(chain[-1].uid) is not None:
                    chain.append(parents[chain[-1].uid])
                root = rng.choice(chain)
            assert res.is_within(node, root) == _within(parents, node, root), unit.file


# From the module, not Node.__subclasses__(): a slotted dataclass replaces
# the class it was declared as, and the replaced class may linger there.
NODE_CLASSES = {c for c in vars(ast).values() if isinstance(c, type) and issubclass(c, ast.Node)}


def test_child_table_matches_the_field_scan(units):
    seen = set()
    for unit in units:
        for node in walk(unit):
            seen.add(type(node))
            assert ast.child_nodes(node) == field_scan_children(node), type(node).__name__
    # Every class is met in some tree but the three bases, which hold no children.
    assert NODE_CLASSES - seen == {ast.Node, ast.Stmt, ast.Expr}
    assert ast.CHILD_FIELDS[ast.Node] == ast.CHILD_FIELDS[ast.Stmt] == ast.CHILD_FIELDS[ast.Expr] == ()


def test_hand_built_unit_with_uids_in_no_order():
    unit = _hand_built_unit(uid=60)
    (cls,) = unit.classes
    (method,) = cls.methods
    body = method.body
    call = body.stmts[0].expr
    (arg,) = call.args
    res = build_symbol_table(unit)
    assert res.nodes == list(walk(unit))
    assert res.subtree(body) == list(walk(body))
    assert res.parent(arg) is call and res.parent(cls) is unit and res.parent(unit) is None
    assert res.is_within(arg, method) and not res.is_within(method, arg)
    (edge,) = build_call_graph(unit, res).edges
    assert edge.callee == "builtin:println" and edge.site is call


def _walk_calls(path):
    tree = pyast.parse(path.read_text(), str(path))
    for node in pyast.walk(tree):
        if isinstance(node, pyast.ImportFrom) and any(a.name == "walk" for a in node.names):
            yield node.lineno
        elif isinstance(node, pyast.Call):
            func = node.func
            if (isinstance(func, pyast.Attribute) and func.attr == "walk"
                    and isinstance(func.value, pyast.Name) and func.value.id == "ast"):
                yield node.lineno


def test_no_module_walks_the_tree_but_the_ast_module():
    # Subtrees are slices of the resolver's index; only count_nodes walks.
    found = [
        f"{path.relative_to(SRC)}:{line}"
        for path in sorted(SRC.rglob("*.py"))
        if path != SRC / "frontend" / "ast.py"
        for line in _walk_calls(path)
    ]
    assert found == []


def _nodes_of_kinds(path):
    """The kind tuples of every nodes_of(ast.K, ...) call in a module."""
    tree = pyast.parse(path.read_text(), str(path))
    for node in pyast.walk(tree):
        if (isinstance(node, pyast.Call) and isinstance(node.func, pyast.Attribute)
                and node.func.attr == "nodes_of"):
            yield tuple(getattr(ast, arg.attr) for arg in node.args)


def test_nodes_of_is_the_scan_for_every_kind_tuple_in_src(units):
    kinds = {k for path in sorted(SRC.rglob("*.py")) for k in _nodes_of_kinds(path)}
    assert len([k for k in kinds if len(k) > 1]) >= 5
    for unit in units:
        res = build_symbol_table(unit)
        for k in kinds:
            assert res.nodes_of(*k) == [n for n in res.nodes if type(n) in k], (unit.file, k)

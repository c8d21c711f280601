"""AST node definitions for SL plus generic tree utilities.

Every node carries a SourceSpan and a unit-unique integer uid assigned in
construction order, which downstream passes use as a stable map key.
The parser builds each node with one positional call, `cls(span, uid,
*fields)`, so a class's field order is part of its contract; fields with a
default that a subclass inherits, such as `Stmt.leading_comments`, are
keyword-only.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING, Iterator, Optional, get_args, get_origin, get_type_hints

from ..records import field, fields, record
from .lexer import SourceSpan, TokenStream, tokenize

if TYPE_CHECKING:
    from .index import NodeIndex


@record(slots=True)
class Node:
    span: SourceSpan
    uid: int


@record(slots=True)
class Stmt(Node):
    leading_comments: list[str] = field(default_factory=list, kw_only=True)


@record(slots=True)
class Expr(Node):
    pass


@record(frozen=True)
class TypeRef:
    """A declared type: base name plus array dimensions."""

    base: str
    dims: int = 0

    def __str__(self) -> str:
        return self.base + "[]" * self.dims


VOID = TypeRef("void")


# --- declarations -----------------------------------------------------------


@record(slots=True)
class Param(Node):
    name: str
    type: TypeRef
    final: bool = False


@record(slots=True)
class FieldDecl(Node):
    name: str
    type: TypeRef
    static: bool = False
    final: bool = False
    initializer: Optional[Expr] = None
    leading_comments: list[str] = field(default_factory=list)


@record(slots=True)
class MethodDecl(Node):
    name: str
    params: list[Param]
    return_type: TypeRef
    body: "Block"
    is_constructor: bool = False
    is_static: bool = False
    leading_comments: list[str] = field(default_factory=list)

    @property
    def arity(self) -> int:
        return len(self.params)


@record(slots=True)
class ClassDecl(Node):
    name: str
    extends: Optional[str] = None
    fields: list[FieldDecl] = field(default_factory=list)
    methods: list[MethodDecl] = field(default_factory=list)
    leading_comments: list[str] = field(default_factory=list)


@record(kw_only=True)
class CompilationUnit(Node):
    uid: int = -1
    package_name: Optional[str] = None
    classes: list[ClassDecl] = field(default_factory=list)
    source: str = ""
    file: str = "<memory>"
    trailing_comments: list[str] = field(default_factory=list)

    @cached_property
    def tokens(self) -> TokenStream:
        """The tokens of source.  The parser sets this to the stream it
        read; a unit built without the parser lexes its source once, here."""
        return tokenize(self.source, self.file)

    @cached_property
    def index(self) -> "NodeIndex":
        """The node index of this tree.  The parser sets this to the index
        it built; a unit built by hand is indexed here, by one walk."""
        from .index import NodeIndex

        return NodeIndex.by_walk(self)


# --- statements --------------------------------------------------------------


@record(slots=True)
class Block(Stmt):
    stmts: list[Stmt] = field(default_factory=list)
    trailing_comments: list[str] = field(default_factory=list)


@record(slots=True)
class If(Stmt):
    cond: Expr
    then: Block
    els: Optional[Stmt] = None  # Block, or If for else-if chains


@record(slots=True)
class While(Stmt):
    cond: Expr
    body: Block


@record(slots=True)
class For(Stmt):
    init: Optional[Stmt]  # LocalDecl or ExprStmt
    cond: Optional[Expr]
    update: Optional[Expr]
    body: Block


@record(slots=True)
class SwitchCase(Node):
    label: Optional[Expr]  # None for default
    body: list[Stmt] = field(default_factory=list)


@record(slots=True)
class Switch(Stmt):
    subject: Expr
    cases: list[SwitchCase] = field(default_factory=list)


@record(slots=True)
class CatchClause(Node):
    exc_type: TypeRef
    name: str
    body: Block


@record(slots=True)
class Try(Stmt):
    body: Block
    catches: list[CatchClause] = field(default_factory=list)
    finally_block: Optional[Block] = None


@record(slots=True)
class Return(Stmt):
    value: Optional[Expr] = None


@record(slots=True)
class ExprStmt(Stmt):
    expr: Expr


@record(slots=True)
class LocalDecl(Stmt):
    name: str
    type: TypeRef
    final: bool = False
    initializer: Optional[Expr] = None


@record(slots=True)
class Assert(Stmt):
    condition: Expr
    message: Optional[Expr] = None


@record(slots=True)
class Synchronized(Stmt):
    monitor: Expr
    body: Block


@record(slots=True)
class Empty(Stmt):
    pass


# --- expressions --------------------------------------------------------------


@record(slots=True)
class Binary(Expr):
    op: str  # includes "=" for assignment
    left: Expr
    right: Expr


@record(slots=True)
class Unary(Expr):
    op: str
    operand: Expr


@record(slots=True)
class Call(Expr):
    name: str
    args: list[Expr] = field(default_factory=list)
    receiver: Optional[Expr] = None


@record(slots=True)
class New(Expr):
    class_name: str
    args: list[Expr] = field(default_factory=list)


@record(slots=True)
class NewArray(Expr):
    elem_type: TypeRef
    size_expr: Expr


@record(slots=True)
class Index(Expr):
    array: Expr
    index: Expr


@record(slots=True)
class FieldAccess(Expr):
    receiver: Expr
    name: str


@record(slots=True)
class Name(Expr):
    identifier: str


@record(slots=True)
class Literal(Expr):
    value: object
    kind: str  # int | double | string | boolean


@record(slots=True)
class Null(Expr):
    pass


# --- tree utilities -----------------------------------------------------------

class _ChildTable(dict):
    """Node class -> (field name, holds a list) for each field whose
    annotation is a node or a list of nodes, in field order.  A class's entry
    is read from its record annotations the first time it is looked up."""

    def __missing__(self, cls: type) -> tuple[tuple[str, bool], ...]:
        hints = get_type_hints(cls)
        entry = []
        for f in fields(cls):
            hint = hints[f.name]
            many = get_origin(hint) is list
            if many:
                (hint,) = get_args(hint)
            if any(isinstance(t, type) and issubclass(t, Node) for t in get_args(hint) or (hint,)):
                entry.append((f.name, many))
        self[cls] = entry = tuple(entry)
        return entry


CHILD_FIELDS: dict[type, tuple[tuple[str, bool], ...]] = _ChildTable()


def child_nodes(node: Node) -> list[Node]:
    """Direct child nodes, in field order."""
    children = []
    for name, many in CHILD_FIELDS[type(node)]:
        value = getattr(node, name)
        if many:
            children += value
        elif value is not None:
            children.append(value)
    return children


def walk(node: Node) -> Iterator[Node]:
    """Pre-order traversal of the subtree rooted at node.  Iterative, so
    depth is bounded by memory, not by the interpreter's recursion limit."""
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(child_nodes(node)))


def count_nodes(root: Node, kind: type | None = None) -> int:
    return sum(1 for n in walk(root) if kind is None or isinstance(n, kind))


def literal_truth(expr: Expr | None) -> Optional[bool]:
    """Truth value of a literal boolean/int condition; None when not constant.

    Int literals follow the zero/nonzero convention so shapes like if(1)
    fold; no other expressions are evaluated.
    """
    if isinstance(expr, Literal):
        if expr.kind == "boolean":
            return bool(expr.value)
        if expr.kind == "int":
            return expr.value != 0
    return None


_EQ_SKIP = {"span", "uid", "source", "file"}


def structural_eq(a: object, b: object) -> bool:
    """Span-insensitive AST equality (comments included)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, (Node, TypeRef)):
        for f in fields(a):
            if f.name in _EQ_SKIP:
                continue
            if not structural_eq(getattr(a, f.name), getattr(b, f.name)):
                return False
        return True
    if isinstance(a, list):
        return len(a) == len(b) and all(structural_eq(x, y) for x, y in zip(a, b))
    return a == b

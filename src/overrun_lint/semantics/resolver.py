"""Scope construction, declaration/usage resolution, and expression typing.

build_symbol_table walks a parsed unit, resolves every
Name/Call/FieldAccess through a scope tree that it drops when done, counts
reads and writes per symbol, numbers each method's parameters and locals
into the interpreter's frame slots, and types every expression.  Unresolved
identifiers are collected as diagnostics; operator/operand mismatches, and
case labels that are not distinct constants, raise TypeCheckError.  So do
the two rules Java keeps for static contexts (JLS 8.1.3, 15.12.3): a class
name is no value, only the receiver of a static field or method; and a
static method or a static field initializer has no this, so it names no
instance field, instance method or Thread builtin without a receiver.  So
does an override that does not keep its base method's signature (JLS
8.4.8), which lets every phase trust a call's resolved signature.

The Resolution answers tree queries from the unit's node index
(frontend/index.py), which the parser built: a subtree is a slice of the
node list (Resolution.subtree), and "is this node inside that one" an
interval test (is_within), so the analyses query the index instead of
walking the tree.
"""

from __future__ import annotations

import itertools
from operator import attrgetter
from typing import Iterator

from ..records import field, record
from ..cfg import default_ctor_id, method_identity
from ..errors import DuplicateDeclaration, ResolutionError, TypeCheckError
from ..frontend import ast
from ..frontend.index import NodeIndex
from ..frontend.lexer import SourceSpan
from . import types as ty
from .types import Type

@record(frozen=True, eq=False)
class Builtin:
    """A global function of SL (owner None) or a method of Thread or Stream:
    one record each, which the phases compare by identity."""

    owner: str | None
    name: str
    params: tuple[Type | None, ...]  # None accepts any type
    result: Type
    static: bool = False
    must_check: bool = False  # a result that must not be ignored

    @property
    def id(self) -> str:
        """The call graph's name for it: builtin:name or builtin:Owner.name."""
        return f"builtin:{self.owner}.{self.name}" if self.owner else f"builtin:{self.name}"


# (owner, name) -> the builtin: every builtin the resolver knows.
BUILTINS: dict[tuple[str | None, str], Builtin] = {
    (b.owner, b.name): b
    for b in (
        Builtin(None, "println", (None,), ty.VOID_T, static=True),
        Builtin(None, "readLine", (), ty.STRING, static=True, must_check=True),
        Builtin(None, "parseInt", (ty.STRING,), ty.INT, static=True),
        Builtin(None, "open", (ty.STRING,), ty.ClassType("Stream"), static=True),
        Builtin(None, "random", (), ty.DOUBLE, static=True),
        Builtin(None, "length", (ty.STRING,), ty.INT, static=True),
        Builtin(None, "exists", (ty.STRING,), ty.BOOLEAN, static=True),
        Builtin("Thread", "start", (), ty.VOID_T),
        Builtin("Thread", "run", (), ty.VOID_T),
        Builtin("Thread", "wait", (), ty.VOID_T),
        Builtin("Thread", "sleep", (ty.INT,), ty.VOID_T, static=True),  # static in Java
        Builtin("Thread", "getName", (), ty.STRING),
        Builtin("Stream", "read", (ty.ArrayType(ty.BYTE), ty.INT, ty.INT), ty.INT, must_check=True),
        Builtin("Stream", "close", (), ty.VOID_T),
    )
}

BUILTIN_CLASSES = {"Thread", "Stream", "Exception"}

_uid = attrgetter("uid")

_LITERAL_TYPES = {"int": ty.INT, "double": ty.DOUBLE, "string": ty.STRING, "boolean": ty.BOOLEAN}


@record
class Symbol:
    name: str
    kind: str  # class | field | method | param | local
    declared_type: Type
    span: SourceSpan
    static: bool = False
    final: bool = False
    usage_count: int = 0
    write_count: int = 0
    owner: str | None = None  # declaring class, for fields/methods
    arity: int | None = None  # methods only
    is_catch_param: bool = False
    is_builtin: bool = False
    decl_uid: int = -1
    slot: int = -1  # params and locals: the frame slot, 0 being `this`
    # A store to it is a type error: a final that its declaration gives a
    # value (an initializer, or the call for a parameter), or a builtin.
    read_only: bool = False


@record
class Scope:
    parent: "Scope | None" = None
    symbols: dict[str, Symbol] = field(default_factory=dict)

    def declare(self, sym: Symbol) -> None:
        if sym.name in self.symbols:
            raise DuplicateDeclaration(sym.span, sym.name)
        self.symbols[sym.name] = sym

    def lookup(self, name: str) -> Symbol | None:
        scope: Scope | None = self
        while scope is not None:
            if name in scope.symbols:
                return scope.symbols[name]
            scope = scope.parent
        return None


@record
class MethodInfo:
    decl: ast.MethodDecl
    symbol: Symbol
    owner: str

    @property
    def method_id(self) -> str:
        return method_identity(self.owner, self.decl)


@record
class ClassInfo:
    decl: ast.ClassDecl
    name: str
    base: str | None
    fields: dict[str, Symbol] = field(default_factory=dict)
    methods: dict[tuple[str, int], MethodInfo] = field(default_factory=dict)
    ctors: dict[int, MethodInfo] = field(default_factory=dict)


@record
class CallTarget:
    id: str  # "Class.m/arity" (a method or constructor), Builtin.id, or "unknown"
    method: MethodInfo | None = None
    builtin: Builtin | None = None

    @property
    def must_check(self) -> bool:
        return self.builtin is not None and self.builtin.must_check


@record
class Resolution:
    classes: dict[str, ClassInfo]
    symbols: list[Symbol]
    name_targets: dict[int, Symbol]
    field_targets: dict[int, Symbol]
    call_targets: dict[int, CallTarget]
    types: dict[int, Type]
    diagnostics: list[Exception]
    index: NodeIndex  # the unit's, shared by every Resolution of it
    decl_symbols: dict[int, Symbol] = field(default_factory=dict)  # decl uid -> first symbol it declares
    frame_sizes: dict[int, int] = field(default_factory=dict)  # method uid -> slots

    @property
    def nodes(self) -> list[ast.Node]:
        """Every node of the unit, in pre-order."""
        return self.index.nodes

    def nodes_of(self, *kinds: type) -> list[ast.Node]:
        """Nodes whose exact class is one of kinds, in pre-order."""
        index = self.index
        if len(kinds) == 1:
            return index.by_type.get(kinds[0], [])
        found = itertools.chain.from_iterable(index.by_type.get(kind, ()) for kind in kinds)
        order = sorted(map(index.positions.__getitem__, map(_uid, found)))
        return list(map(index.nodes.__getitem__, order))

    def parent(self, node: ast.Node) -> ast.Node | None:
        """The node's parent; None for the unit."""
        return self.index.parents[node.uid]

    def method_of(self, node: ast.Node) -> ast.MethodDecl | None:
        """The method node lies in (node itself if it is one); None outside
        every method."""
        while node is not None and not isinstance(node, ast.MethodDecl):
            node = self.index.parents[node.uid]
        return node

    def subtree(self, node: ast.Node) -> list[ast.Node]:
        """The subtree rooted at node, in pre-order."""
        index = self.index
        return index.nodes[index.positions[node.uid] : index.ends[node.uid]]

    def is_within(self, node: ast.Node, root: ast.Node) -> bool:
        """Whether node lies in the subtree rooted at root."""
        positions = self.index.positions
        return positions[root.uid] <= positions[node.uid] < self.index.ends[root.uid]

    def enclosing_conditions(self, node: ast.Node) -> Iterator[tuple[ast.Expr, bool]]:
        """(condition, holds) for every if/while around node, innermost
        first.  holds is True when node lies in the then-branch or the loop
        body, where the condition is known to be true."""
        parents = self.index.parents
        cur = node
        parent = parents[cur.uid]
        while parent is not None:
            if isinstance(parent, ast.If):
                yield parent.cond, cur is parent.then
            elif isinstance(parent, ast.While):
                yield parent.cond, cur is parent.body
            cur, parent = parent, parents[parent.uid]

    def builtin_of(self, node: ast.Node) -> Builtin | None:
        """The builtin a call resolved to; None for any other node."""
        target = self.call_targets.get(node.uid)
        return target.builtin if target is not None else None

    def names_class(self, expr: ast.Expr) -> bool:
        """Whether expr is a class name: a receiver that only a static
        field or method may have, and that does not run."""
        sym = self.name_targets.get(expr.uid) if isinstance(expr, ast.Name) else None
        return sym is not None and sym.kind == "class"

    def ancestors(self, name: str | None) -> list[ClassInfo]:
        """The class and its bases, nearest first: the one base-class walk.
        It stops at the first base that is not a class of this unit (such
        as Thread), and at a class it has already passed."""
        chain: list[ClassInfo] = []
        seen: set[str] = set()
        info = self.classes.get(name) if name else None
        while info is not None and info.name not in seen:
            seen.add(info.name)
            chain.append(info)
            info = self.classes.get(info.base) if info.base else None
        return chain

    def subclass_ok(self, base: str, derived: str) -> bool:
        if derived == base:
            return True
        chain = self.ancestors(derived)
        return any(info.name == base for info in chain) or bool(chain and chain[-1].base == base)


def _case_fits(subject_t: Type, label_t: Type) -> bool:
    """Whether a case label of label_t can equal a subject of subject_t."""
    if ty.UNKNOWN in (subject_t, label_t):
        return True
    if ty.is_string(subject_t):
        return ty.is_string(label_t)
    return label_t in (ty.INT, ty.BYTE)


def param_types(decl: ast.MethodDecl) -> list[Type]:
    """The declared types of decl's parameters, in order."""
    return [ty.from_type_ref(p.type) for p in decl.params]


def type_of(expr: ast.Expr, resolution: Resolution) -> Type:
    """Deterministic type of a resolved expression."""
    return resolution.types[expr.uid]


def build_symbol_table(unit: ast.CompilationUnit) -> Resolution:
    return _Resolver(unit).run()


class _Resolver:
    def __init__(self, unit: ast.CompilationUnit):
        self.unit = unit
        self.res = Resolution(
            classes={},
            symbols=[],
            name_targets={},
            field_targets={},
            call_targets={},
            types={},
            diagnostics=[],
            index=unit.index,
        )
        self.global_scope = Scope()
        self.current_class: ClassInfo | None = None
        self.current_method: ast.MethodDecl | None = None
        self.static_context = False  # resolving a static method or field initializer
        # Checked once every name is resolved, since a label may name a
        # constant whose initializer lies in a class resolved later.
        self.switches: list[ast.Switch] = []

    # -- driver ------------------------------------------------------------

    def run(self) -> Resolution:
        self._declare_classes()
        self._check_acyclic()
        self._check_overrides()
        for cls in self.unit.classes:
            self._resolve_class(cls)
        for switch in self.switches:
            self._check_case_labels(switch)
        return self.res

    def _sym(self, **kw) -> Symbol:
        sym = Symbol(**kw)
        self.res.symbols.append(sym)
        if sym.decl_uid >= 0:
            self.res.decl_symbols.setdefault(sym.decl_uid, sym)
        return sym

    def _declare_classes(self) -> None:
        assertions_flag = self._sym(
            name="ASSERTIONS_ENABLED",
            kind="field",
            declared_type=ty.BOOLEAN,
            span=self.unit.span,
            static=True,
            final=True,
            is_builtin=True,
            read_only=True,
        )
        self.global_scope.symbols["ASSERTIONS_ENABLED"] = assertions_flag
        for cls in self.unit.classes:
            if cls.name in self.res.classes or cls.name in BUILTIN_CLASSES:
                self.res.diagnostics.append(DuplicateDeclaration(cls.span, cls.name))
                continue
            info = ClassInfo(decl=cls, name=cls.name, base=cls.extends)
            self.res.classes[cls.name] = info
            class_sym = self._sym(
                name=cls.name,
                kind="class",
                declared_type=ty.ClassType(cls.name),
                span=cls.span,
                decl_uid=cls.uid,
            )
            self.global_scope.declare(class_sym)
        for info in self.res.classes.values():
            cls = info.decl
            if cls.extends and cls.extends not in self.res.classes and cls.extends != "Thread":
                self.res.diagnostics.append(ResolutionError(cls.span, cls.extends))
            for fld in cls.fields:
                if fld.name in info.fields:
                    self.res.diagnostics.append(DuplicateDeclaration(fld.span, fld.name))
                    continue
                info.fields[fld.name] = self._sym(
                    name=fld.name,
                    kind="field",
                    declared_type=ty.from_type_ref(fld.type),
                    span=fld.span,
                    static=fld.static,
                    final=fld.final,
                    owner=cls.name,
                    decl_uid=fld.uid,
                    read_only=fld.final and fld.initializer is not None,
                )
            for method in cls.methods:
                key = ("<init>" if method.is_constructor else method.name, method.arity)
                if key in info.methods:
                    self.res.diagnostics.append(DuplicateDeclaration(method.span, method.name))
                    continue
                sym = self._sym(
                    name=method.name,
                    kind="method",
                    declared_type=ty.from_type_ref(method.return_type),
                    span=method.span,
                    static=method.is_static,
                    owner=cls.name,
                    arity=method.arity,
                    decl_uid=method.uid,
                )
                minfo = MethodInfo(decl=method, symbol=sym, owner=cls.name)
                info.methods[key] = minfo
                if method.is_constructor:
                    info.ctors[method.arity] = minfo

    def _check_acyclic(self) -> None:
        for info in self.res.classes.values():
            last = self.res.ancestors(info.name)[-1]
            if last.base in self.res.classes:  # the walk stopped at a class it had passed
                cycle = self.res.classes[last.base].decl
                raise TypeCheckError(cycle.span, f"cyclic inheritance involving '{cycle.name}'")

    def _check_overrides(self) -> None:
        """A method with the name and arity of a base class's method keeps
        its signature (JLS 8.4.8): its parameter types, its staticness and
        its return type, which only a class type may narrow to a subclass.
        So every method a call may dispatch to has the call's signature."""
        for info in self.res.classes.values():
            for (name, arity), minfo in info.methods.items():
                base = self._lookup_method(info.base, name, arity)
                if base is None or minfo.decl.is_constructor:
                    continue
                params, base_params = (", ".join(map(str, param_types(m.decl))) for m in (minfo, base))
                returns, base_returns = minfo.symbol.declared_type, base.symbol.declared_type
                if params != base_params:
                    reason = "the parameter types differ"
                elif minfo.decl.is_static != base.decl.is_static:
                    reason = f"{'overriding' if minfo.decl.is_static else 'overridden'} method is static"
                elif returns != base_returns and not (
                    isinstance(returns, ty.ClassType)
                    and isinstance(base_returns, ty.ClassType)
                    and self.res.subclass_ok(base_returns.name, returns.name)
                ):
                    reason = f"return type {returns} is not compatible with {base_returns}"
                else:
                    continue
                raise TypeCheckError(
                    minfo.decl.span,
                    f"{name}({params}) in {info.name} cannot override"
                    f" {name}({base_params}) in {base.owner}; {reason}",
                )

    # -- class / method bodies ----------------------------------------------

    def _resolve_class(self, cls: ast.ClassDecl) -> None:
        info = self.res.classes.get(cls.name)
        if info is None:
            return
        self.current_class = info
        class_scope = Scope(parent=self.global_scope)
        for name, sym in info.fields.items():
            class_scope.symbols[name] = sym
        self._install_inherited(class_scope, info)
        for fld in cls.fields:
            if fld.initializer is not None:
                self.static_context = fld.static
                value_t = self._expr(fld.initializer, class_scope)
                self._require_assignable(
                    ty.from_type_ref(fld.type), value_t, fld.span, "field initializer"
                )
        for method in cls.methods:
            self._resolve_method(method, class_scope)
        self.current_class = None

    def _install_inherited(self, scope: Scope, info: ClassInfo) -> None:
        for base_info in self.res.ancestors(info.name)[1:]:
            for name, sym in base_info.fields.items():
                scope.symbols.setdefault(name, sym)

    def _resolve_method(self, method: ast.MethodDecl, class_scope: Scope) -> None:
        self.current_method = method
        self.static_context = method.is_static
        scope = Scope(parent=class_scope)
        if not method.is_static:
            this_sym = self._sym(
                name="this",
                kind="param",
                declared_type=ty.ClassType(self.current_class.name),
                span=method.span,
                final=True,
                is_builtin=True,
                slot=0,
                read_only=True,
            )
            scope.symbols["this"] = this_sym
        first = len(self.res.symbols)
        for param in method.params:
            try:
                scope.declare(
                    self._sym(
                        name=param.name,
                        kind="param",
                        declared_type=ty.from_type_ref(param.type),
                        span=param.span,
                        final=param.final,
                        decl_uid=param.uid,
                        read_only=param.final,
                    )
                )
            except DuplicateDeclaration as err:
                self.res.diagnostics.append(err)
        self._block(method.body, scope)
        # Every symbol declared since `first` is a parameter or a local of
        # this method: they take the frame slots after the receiver's, in
        # declaration order.
        frame = self.res.symbols[first:]
        for slot, sym in enumerate(frame, 1):
            sym.slot = slot
        self.res.frame_sizes[method.uid] = len(frame) + 1
        self.current_method = None

    # -- statements ----------------------------------------------------------

    def _block(self, block: ast.Block, parent: Scope) -> None:
        scope = Scope(parent=parent)
        for stmt in block.stmts:
            self._stmt(stmt, scope)

    def _declare_local(self, decl: ast.LocalDecl, scope: Scope) -> None:
        if decl.initializer is not None:
            value_t = self._expr(decl.initializer, scope)
            self._require_assignable(
                ty.from_type_ref(decl.type), value_t, decl.span, "initializer"
            )
        try:
            scope.declare(
                self._sym(
                    name=decl.name,
                    kind="local",
                    declared_type=ty.from_type_ref(decl.type),
                    span=decl.span,
                    final=decl.final,
                    decl_uid=decl.uid,
                    read_only=decl.final and decl.initializer is not None,
                )
            )
        except DuplicateDeclaration as err:
            self.res.diagnostics.append(err)

    def _condition(self, cond: ast.Expr, scope: Scope, what: str) -> None:
        cond_t = self._expr(cond, scope)
        if cond_t in (ty.BOOLEAN, ty.UNKNOWN):
            return
        if ast.literal_truth(cond) is not None:
            return  # constant int conditions are legal and fold in the CFG
        raise TypeCheckError(cond.span, f"{what} condition must be boolean, got {cond_t}")

    def _stmt(self, stmt: ast.Stmt, scope: Scope) -> None:
        if isinstance(stmt, ast.Block):
            self._block(stmt, scope)
        elif isinstance(stmt, ast.LocalDecl):
            self._declare_local(stmt, scope)
        elif isinstance(stmt, ast.ExprStmt):
            self._expr(stmt.expr, scope)
        elif isinstance(stmt, ast.If):
            self._condition(stmt.cond, scope, "if")
            self._block(stmt.then, scope)
            if stmt.els is not None:
                self._stmt(stmt.els, scope)
        elif isinstance(stmt, ast.While):
            self._condition(stmt.cond, scope, "while")
            self._block(stmt.body, scope)
        elif isinstance(stmt, ast.For):
            for_scope = Scope(parent=scope)
            if isinstance(stmt.init, ast.LocalDecl):
                self._declare_local(stmt.init, for_scope)
            elif isinstance(stmt.init, ast.ExprStmt):
                self._expr(stmt.init.expr, for_scope)
            if stmt.cond is not None:
                self._condition(stmt.cond, for_scope, "for")
            if stmt.update is not None:
                self._expr(stmt.update, for_scope)
            self._block(stmt.body, for_scope)
        elif isinstance(stmt, ast.Switch):
            subject_t = self._expr(stmt.subject, scope)
            if subject_t not in (ty.INT, ty.BYTE, ty.UNKNOWN) and not ty.is_string(subject_t):
                raise TypeCheckError(stmt.subject.span, f"switch subject must be int or String, got {subject_t}")
            for case in stmt.cases:
                if case.label is not None:
                    label_t = self._expr(case.label, scope)
                    if not _case_fits(subject_t, label_t):
                        raise TypeCheckError(
                            case.label.span, f"case label of type {label_t} cannot match a {subject_t} subject"
                        )
                case_scope = Scope(parent=scope)
                for inner in case.body:
                    self._stmt(inner, case_scope)
            self.switches.append(stmt)
        elif isinstance(stmt, ast.Try):
            self._block(stmt.body, scope)
            for catch in stmt.catches:
                catch_scope = Scope(parent=scope)
                try:
                    catch_scope.declare(
                        self._sym(
                            name=catch.name,
                            kind="param",
                            declared_type=ty.from_type_ref(catch.exc_type),
                            span=catch.span,
                            is_catch_param=True,
                            decl_uid=catch.uid,
                        )
                    )
                except DuplicateDeclaration as err:
                    self.res.diagnostics.append(err)
                self._block(catch.body, catch_scope)
            if stmt.finally_block is not None:
                self._block(stmt.finally_block, scope)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                value_t = self._expr(stmt.value, scope)
                if self.current_method is not None:
                    ret = ty.from_type_ref(self.current_method.return_type)
                    if ret == ty.VOID_T:
                        raise TypeCheckError(stmt.span, "void method returns a value")
                    self._require_assignable(ret, value_t, stmt.span, "return value")
            elif self.current_method is not None and not self.current_method.is_constructor:
                ret = ty.from_type_ref(self.current_method.return_type)
                if ret != ty.VOID_T:
                    raise TypeCheckError(stmt.span, f"return needs a {ret} value")
        elif isinstance(stmt, ast.Assert):
            cond_t = self._expr(stmt.condition, scope)
            if cond_t != ty.BOOLEAN:
                raise TypeCheckError(stmt.condition.span, f"assert condition must be boolean, got {cond_t}")
            # JLS 14.10: the message may be of any type but void.
            if stmt.message is not None and self._expr(stmt.message, scope) == ty.VOID_T:
                raise TypeCheckError(stmt.message.span, "assert message must not be void")
        elif isinstance(stmt, ast.Synchronized):
            monitor_t = self._expr(stmt.monitor, scope)
            if not isinstance(monitor_t, (ty.ClassType, ty.ArrayType, ty.UnknownType)):
                raise TypeCheckError(stmt.monitor.span, f"synchronized needs an object monitor, got {monitor_t}")
            self._block(stmt.body, scope)
        elif isinstance(stmt, ast.Empty):
            pass
        else:  # pragma: no cover
            raise AssertionError(f"unhandled statement {type(stmt).__name__}")

    def _check_case_labels(self, switch: ast.Switch) -> None:
        """Each case label is a constant, and no two are equal (JLS 14.11)."""
        seen = set()
        for case in switch.cases:
            if case.label is None:
                continue
            value = self._constant(case.label, ())
            if value is None:
                raise TypeCheckError(case.label.span, "constant expression required")
            if value in seen:
                raise TypeCheckError(case.label.span, "duplicate case label")
            seen.add(value)

    def _constant(self, expr: ast.Expr, passed: tuple[int, ...]) -> object:
        """The value of a constant expression (JLS 15.29, as far as SL has
        them): a literal, - on an int literal, or the name (K, or C.K for a
        field) of a final local or field whose initializer is a constant.
        None otherwise, also for a name whose initializer leads back to it
        (through the decl uids passed)."""
        if isinstance(expr, ast.Literal):
            return expr.value
        if isinstance(expr, ast.Unary):
            operand = expr.operand
            if expr.op == "-" and isinstance(operand, ast.Literal) and operand.kind == "int":
                return -operand.value
            return None
        if isinstance(expr, ast.Name):
            sym = self.res.name_targets.get(expr.uid)
        elif isinstance(expr, ast.FieldAccess) and self.res.names_class(expr.receiver):
            sym = self.res.field_targets.get(expr.uid)
        else:
            return None
        if sym is None or not sym.read_only or sym.kind not in ("local", "field") or sym.is_builtin:
            return None
        if sym.decl_uid in passed:
            return None
        index = self.res.index
        decl = index.nodes[index.positions[sym.decl_uid]]
        return self._constant(decl.initializer, passed + (sym.decl_uid,))

    # -- expressions -----------------------------------------------------------

    def _require_assignable(self, dst: Type, src: Type, span: SourceSpan, what: str) -> None:
        if not ty.assignable(dst, src, self.res.subclass_ok):
            raise TypeCheckError(span, f"cannot use {src} as {dst} in {what}")

    def _set(self, expr: ast.Expr, t: Type) -> Type:
        self.res.types[expr.uid] = t
        return t

    def _require_static(self, static: bool, span: SourceSpan, kind: str, name: str) -> None:
        """Raise unless the member reached from a static context, or through
        a class name, is static."""
        if not static:
            raise TypeCheckError(
                span, f"non-static {kind} '{name}' cannot be referenced from a static context"
            )

    def _negated_int_min(self, literal: ast.Literal) -> bool:
        """Whether literal is 2147483648 as the direct operand of unary -,
        the one place an int literal may exceed the int range (JLS 3.10.1).
        The unary's span ends where the literal's does unless parentheses
        close between them, as in -(2147483648)."""
        up = self.res.parent(literal)
        return (
            literal.value == ty.INT_MAX + 1
            and isinstance(up, ast.Unary)
            and up.op == "-"
            and (up.span.end_line, up.span.end_column) == (literal.span.end_line, literal.span.end_column)
        )

    def _expr(
        self, expr: ast.Expr, scope: Scope, store: bool = False, receiver: bool = False
    ) -> Type:
        """The type of expr.  A receiver, of a field or a method, may also
        be a class name."""
        if isinstance(expr, ast.Literal):
            if expr.kind == "int" and expr.value > ty.INT_MAX and not self._negated_int_min(expr):
                raise TypeCheckError(expr.span, "integer number too large")
            return self._set(expr, _LITERAL_TYPES[expr.kind])
        if isinstance(expr, ast.Null):
            return self._set(expr, ty.NULL)
        if isinstance(expr, ast.Name):
            sym = scope.lookup(expr.identifier)
            if sym is None:
                self.res.diagnostics.append(ResolutionError(expr.span, expr.identifier))
                return self._set(expr, ty.UNKNOWN)
            if sym.kind == "class" and not receiver:
                raise TypeCheckError(expr.span, f"class name {sym.name} is not a value")
            if sym.kind == "field" and self.static_context:
                self._require_static(sym.static, expr.span, "field", sym.name)
            self.res.name_targets[expr.uid] = sym
            if store:
                sym.write_count += 1
            else:
                sym.usage_count += 1
            return self._set(expr, sym.declared_type)
        if isinstance(expr, ast.Unary):
            operand_t = self._expr(expr.operand, scope)
            if operand_t == ty.UNKNOWN:
                return self._set(expr, ty.UNKNOWN if expr.op != "!" else ty.BOOLEAN)
            if expr.op == "!":
                if operand_t != ty.BOOLEAN:
                    raise TypeCheckError(expr.span, f"'!' needs boolean, got {operand_t}")
                return self._set(expr, ty.BOOLEAN)
            if not ty.is_numeric(operand_t):
                raise TypeCheckError(expr.span, f"unary '-' needs a number, got {operand_t}")
            return self._set(expr, operand_t if operand_t == ty.DOUBLE else ty.INT)
        if isinstance(expr, ast.Binary):
            return self._binary(expr, scope)
        if isinstance(expr, ast.Index):
            array_t = self._expr(expr.array, scope)
            index_t = self._expr(expr.index, scope)
            if array_t == ty.UNKNOWN:
                return self._set(expr, ty.UNKNOWN)
            if not isinstance(array_t, ty.ArrayType):
                raise TypeCheckError(expr.span, f"indexing a non-array {array_t}")
            if index_t not in (ty.INT, ty.BYTE, ty.UNKNOWN):
                raise TypeCheckError(expr.index.span, f"array index must be int, got {index_t}")
            return self._set(expr, array_t.elem)
        if isinstance(expr, ast.FieldAccess):
            return self._field_access(expr, scope, store)
        if isinstance(expr, ast.NewArray):
            size_t = self._expr(expr.size_expr, scope)
            if size_t not in (ty.INT, ty.BYTE):
                raise TypeCheckError(expr.size_expr.span, f"array size must be int, got {size_t}")
            return self._set(expr, ty.ArrayType(ty.from_type_ref(expr.elem_type)))
        if isinstance(expr, ast.New):
            return self._new(expr, scope)
        if isinstance(expr, ast.Call):
            return self._call(expr, scope)
        raise AssertionError(f"unhandled expression {type(expr).__name__}")  # pragma: no cover

    def _binary(self, expr: ast.Binary, scope: Scope) -> Type:
        op = expr.op
        if op == "=":
            target_t = self._expr(expr.left, scope, store=True)
            target = self.res.name_targets.get(expr.left.uid) or self.res.field_targets.get(expr.left.uid)
            if target is not None and target.read_only:
                raise TypeCheckError(expr.span, f"cannot assign a value to final variable {target.name}")
            value_t = self._expr(expr.right, scope)
            self._require_assignable(target_t, value_t, expr.span, "assignment")
            return self._set(expr, target_t)
        left_t = self._expr(expr.left, scope)
        right_t = self._expr(expr.right, scope)
        if ty.UNKNOWN in (left_t, right_t):
            boolean_result = op in ("<", "<=", ">", ">=", "==", "!=", "&&", "||")
            return self._set(expr, ty.BOOLEAN if boolean_result else ty.UNKNOWN)
        if op == "+" and (ty.is_string(left_t) or ty.is_string(right_t)):
            return self._set(expr, ty.STRING)
        if op in ("+", "-", "*", "/", "%"):
            if not (ty.is_numeric(left_t) and ty.is_numeric(right_t)):
                raise TypeCheckError(expr.span, f"'{op}' needs numbers, got {left_t} and {right_t}")
            return self._set(expr, ty.promote(left_t, right_t))
        if op in ("<", "<=", ">", ">="):
            if not (ty.is_numeric(left_t) and ty.is_numeric(right_t)):
                raise TypeCheckError(expr.span, f"'{op}' needs numbers, got {left_t} and {right_t}")
            return self._set(expr, ty.BOOLEAN)
        if op in ("==", "!="):
            if not self._comparable(left_t, right_t):
                raise TypeCheckError(expr.span, f"'{op}' cannot compare {left_t} with {right_t}")
            return self._set(expr, ty.BOOLEAN)
        if op in ("&&", "||"):
            for side, side_t in ((expr.left, left_t), (expr.right, right_t)):
                if side_t != ty.BOOLEAN:
                    raise TypeCheckError(side.span, f"'{op}' needs booleans, got {side_t}")
            return self._set(expr, ty.BOOLEAN)
        raise AssertionError(f"unhandled operator {op}")  # pragma: no cover

    def _comparable(self, a: Type, b: Type) -> bool:
        if ty.UNKNOWN in (a, b):
            return True
        if ty.is_numeric(a) and ty.is_numeric(b):
            return True
        if a == ty.BOOLEAN and b == ty.BOOLEAN:
            return True
        if ty.is_string(a) and (ty.is_string(b) or isinstance(b, ty.NullType)):
            return True
        if ty.is_string(b) and isinstance(a, ty.NullType):
            return True
        ref = (ty.ClassType, ty.ArrayType, ty.NullType)
        return isinstance(a, ref) and isinstance(b, ref)

    def _field_access(self, expr: ast.FieldAccess, scope: Scope, store: bool) -> Type:
        receiver_t = self._expr(expr.receiver, scope, receiver=True)
        if receiver_t == ty.UNKNOWN:
            return self._set(expr, ty.UNKNOWN)
        if isinstance(receiver_t, ty.ArrayType) or not isinstance(receiver_t, ty.ClassType):
            raise TypeCheckError(expr.span, f"{receiver_t} has no field '{expr.name}'")
        chain = self.res.ancestors(receiver_t.name)
        sym = next((info.fields[expr.name] for info in chain if expr.name in info.fields), None)
        if sym is None:
            self.res.diagnostics.append(ResolutionError(expr.span, expr.name))
            return self._set(expr, ty.UNKNOWN)
        if self.res.names_class(expr.receiver):
            self._require_static(sym.static, expr.span, "field", expr.name)
        self.res.field_targets[expr.uid] = sym
        if store:
            sym.write_count += 1
        else:
            sym.usage_count += 1
        return self._set(expr, sym.declared_type)

    def _new(self, expr: ast.New, scope: Scope) -> Type:
        info = self.res.classes.get(expr.class_name)
        arg_ts = [self._expr(a, scope) for a in expr.args]
        result = ty.ClassType(expr.class_name)
        if info is None:
            self.res.diagnostics.append(ResolutionError(expr.span, expr.class_name))
            return self._unknown_call(expr, result)
        ctor = info.ctors.get(len(expr.args))
        if ctor is None:
            if expr.args or info.ctors:
                self.res.diagnostics.append(
                    ResolutionError(expr.span, f"{expr.class_name}/{len(expr.args)} constructor")
                )
                return self._unknown_call(expr, result)
            # implicit default constructor
            self.res.call_targets[expr.uid] = CallTarget(default_ctor_id(expr.class_name))
            return self._set(expr, result)
        self._check_args(ctor, expr, arg_ts)
        self.res.call_targets[expr.uid] = CallTarget(ctor.method_id, method=ctor)
        return self._set(expr, result)

    def _lookup_method(self, class_name: str | None, name: str, arity: int) -> MethodInfo | None:
        for info in self.res.ancestors(class_name):
            minfo = info.methods.get((name, arity))
            if minfo is not None:
                return minfo
        return None

    def _builtin_of(self, owner: str | None, expr: ast.Call) -> Builtin | None:
        """The builtin a call names where no method of the class does: a
        method of Stream on a Stream; one of Thread where Thread's methods
        are visible, for an unqualified call only at its arity; and else,
        for an unqualified call, a global function."""
        if owner == "Stream":
            return BUILTINS.get(("Stream", expr.name))
        thread = BUILTINS.get(("Thread", expr.name)) if owner and self.res.subclass_ok("Thread", owner) else None
        if expr.receiver is not None:
            return thread
        if thread is not None and len(thread.params) == len(expr.args):
            return thread
        return BUILTINS.get((None, expr.name))

    def _builtin_call(self, expr: ast.Call, builtin: Builtin, arg_ts: list[Type]) -> Type:
        params = builtin.params
        if len(params) != len(arg_ts):
            raise TypeCheckError(expr.span, f"{expr.name}() takes {len(params)} argument(s)")
        for param_t, arg_t, arg in zip(params, arg_ts, expr.args):
            if param_t is None:
                continue
            if isinstance(param_t, ty.StringType):
                if ty.is_string(arg_t) or isinstance(arg_t, ty.NullType):
                    continue
                raise TypeCheckError(arg.span, f"{expr.name}() needs a String, got {arg_t}")
            self._require_assignable(param_t, arg_t, arg.span, f"{expr.name}() argument")
        self.res.call_targets[expr.uid] = CallTarget(builtin.id, builtin=builtin)
        return self._set(expr, builtin.result)

    def _check_args(self, minfo: MethodInfo, expr: ast.Call | ast.New, arg_ts: list[Type]) -> None:
        for param_t, arg_t, arg in zip(param_types(minfo.decl), arg_ts, expr.args):
            self._require_assignable(param_t, arg_t, arg.span, "argument")

    def _method_call(self, expr: ast.Call, minfo: MethodInfo, arg_ts: list[Type]) -> Type:
        self.res.call_targets[expr.uid] = CallTarget(minfo.method_id, method=minfo)
        self._check_args(minfo, expr, arg_ts)
        return self._set(expr, minfo.symbol.declared_type)

    def _unknown_call(self, expr: ast.Call | ast.New, returns: Type) -> Type:
        self.res.call_targets[expr.uid] = CallTarget("unknown")
        return self._set(expr, returns)

    def _call(self, expr: ast.Call, scope: Scope) -> Type:
        """A call resolves to the method of its name and arity of the
        receiver's class (the current class's, unqualified), or else to a
        builtin (_builtin_of): a declared method shadows a builtin."""
        arg_ts = [self._expr(a, scope) for a in expr.args]
        if expr.receiver is None:
            owner = self.current_class.name if self.current_class is not None else None
            of_class = self.static_context
        else:
            receiver_t = self._expr(expr.receiver, scope, receiver=True)
            if receiver_t == ty.UNKNOWN:
                return self._unknown_call(expr, ty.UNKNOWN)
            owner = receiver_t.name if isinstance(receiver_t, ty.ClassType) else None
            of_class = self.res.names_class(expr.receiver)
        minfo = self._lookup_method(owner, expr.name, len(expr.args))
        if minfo is not None:
            if of_class:
                self._require_static(minfo.decl.is_static, expr.span, "method", expr.name)
            return self._method_call(expr, minfo, arg_ts)
        builtin = self._builtin_of(owner, expr)
        if builtin is None:
            self.res.diagnostics.append(ResolutionError(expr.span, expr.name))
            return self._unknown_call(expr, ty.UNKNOWN)
        if of_class:
            self._require_static(builtin.static, expr.span, "method", expr.name)
        return self._builtin_call(expr, builtin, arg_ts)

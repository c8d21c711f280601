"""Scope construction, declaration/usage resolution, and expression typing.

build_symbol_table walks a parsed unit, resolves every
Name/Call/FieldAccess through a scope tree that it drops when done, counts
reads and writes per symbol, numbers each method's parameters and locals
into the interpreter's frame slots, and types every expression.  The unit
resolves fully or raises the first error met, as the lexer and parser do:
an undeclared name raises ResolutionError, a second declaration of a name
in one scope DuplicateDeclaration, and operator/operand mismatches and case
labels that are not distinct constants TypeCheckError.  So do
the two rules Java keeps for static contexts (JLS 8.1.3, 15.12.3): a class
name is no value, only the receiver of a static field or method; and a
static method or a static field initializer has no this, so it names no
instance field, instance method or Thread builtin without a receiver.  So
does an override that does not keep its base method's signature (JLS
8.4.8), which lets every phase trust a call's resolved signature.

One walk of each base-class chain builds each class's dispatch table,
which holds no constructor (JLS 8.8: they are not inherited), and visible
fields, where the nearest declaration wins; calls, field accesses, class
scopes, the interpreter's vtables and Resolution.targets read them.

Statements and expressions are resolved through one table each, keyed by
the node's class (_STMTS, _EXPRS).  Scopes are made where names are
declared: the global scope holds the classes, a class's its fields and
inherited fields, a method's `this` and parameters, and a catch clause's
its parameter.  A block or a switch case gets a scope at its first local
declaration, and a for statement when its initializer declares; until
then, and in a block that declares nothing, names resolve in the
enclosing scope.  So a nested block's local may shadow an outer local or
a parameter.

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

# Class names a unit may not declare: a type of one of them means the builtin.
BUILTIN_CLASSES = {"String", "Thread", "Stream", "Exception"}

_uid = attrgetter("uid")

_LITERAL_TYPES = {"int": ty.INT, "double": ty.DOUBLE, "string": ty.STRING, "boolean": ty.BOOLEAN}
_INTEGRAL = frozenset((ty.INT, ty.BYTE))
_REFERENCE = (ty.ClassType, ty.ArrayType, ty.NullType)
_STRING_OR_NULL = frozenset((ty.STRING, ty.NULL))


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
    dispatch: dict[tuple[str, int], MethodInfo] = field(default_factory=dict)  # own and inherited methods, no ctors
    visible: dict[str, Symbol] = field(default_factory=dict)  # own and inherited fields
    below: list["ClassInfo"] = field(default_factory=list)  # the class and its subclasses, in unit order
    made: bool = False  # whether some `new` makes one


@record
class CallTarget:
    id: str  # "Class.m/arity" (a method or constructor), or Builtin.id
    method: MethodInfo | None = None
    builtin: Builtin | None = None
    receiver: str | None = None  # a method call's: the class whose table it was looked up in

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
    diagnostics: list[Exception]  # always empty: the resolver raises its first error
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
        while node is not None and type(node) is not ast.MethodDecl:
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
            if type(parent) is ast.If:
                yield parent.cond, cur is parent.then
            elif type(parent) is ast.While:
                yield parent.cond, cur is parent.body
            cur, parent = parent, parents[parent.uid]

    def builtin_of(self, node: ast.Node) -> Builtin | None:
        """The builtin a call resolved to; None for any other node."""
        target = self.call_targets.get(node.uid)
        return target.builtin if target is not None else None

    def names_class(self, expr: ast.Expr) -> bool:
        """Whether expr is a class name: a receiver that only a static
        field or method may have, and that does not run."""
        sym = self.name_targets.get(expr.uid) if type(expr) is ast.Name else None
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

    def targets(self, site: ast.Call | ast.New) -> list[CallTarget]:
        """What a call site can run: its resolved target, or for an instance
        call the dispatch entries of the classes at or below the receiver's
        class that some `new` makes (rapid type analysis), or of all those
        classes where none is made (class-hierarchy analysis)."""
        target = self.call_targets[site.uid]
        if target.receiver is None or target.method.decl.is_static:
            return [target]
        below, key = self.classes[target.receiver].below, (site.name, len(site.args))
        found = {c.dispatch[key].method_id: c.dispatch[key] for c in [c for c in below if c.made] or below}
        return [CallTarget(method_id, method=m) for method_id, m in found.items()]

    def subclass_ok(self, base: str, derived: str) -> bool:
        if derived == base:
            return True
        chain = self.ancestors(derived)
        return any(info.name == base for info in chain) or bool(chain and chain[-1].base == base)


def _case_fits(subject_t: Type, label_t: Type) -> bool:
    """Whether a case label of label_t can equal a subject of subject_t."""
    if subject_t is ty.STRING:
        return label_t is ty.STRING
    return label_t in _INTEGRAL


def _comparable(a: Type, b: Type) -> bool:
    """Whether == and != may compare a value of a with one of b."""
    if a in ty.NUMERIC or b in ty.NUMERIC:
        return a in ty.NUMERIC and b in ty.NUMERIC
    if a is ty.BOOLEAN or b is ty.BOOLEAN:
        return a is b
    if a is ty.STRING or b is ty.STRING:
        return a in _STRING_OR_NULL and b in _STRING_OR_NULL
    return type(a) in _REFERENCE and type(b) in _REFERENCE


def param_types(decl: ast.MethodDecl) -> list[Type]:
    """The declared types of decl's parameters, in order."""
    return [ty.from_type_ref(p.type) for p in decl.params]


def type_of(expr: ast.Expr, resolution: Resolution) -> Type:
    """Deterministic type of a resolved expression."""
    return resolution.types[expr.uid]


def build_symbol_table(unit: ast.CompilationUnit) -> Resolution:
    return _Resolver(unit).run()


class _RefTypes(dict):
    """(base, dims) of a TypeRef -> its semantic type, converted on first
    read.  (A TypeRef's own hash is Python code.)"""

    def __missing__(self, key: tuple[str, int]) -> Type:
        t = self[key] = ty.from_type_ref(ast.TypeRef(*key))
        return t


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
        self.types = self.res.types
        self.ref_types = _RefTypes()
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
        self._link_classes()
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
                raise DuplicateDeclaration(cls.span, cls.name)
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
                raise ResolutionError(cls.span, cls.extends)
            for fld in cls.fields:
                if fld.name in info.fields:
                    raise DuplicateDeclaration(fld.span, fld.name)
                info.fields[fld.name] = self._sym(
                    name=fld.name,
                    kind="field",
                    declared_type=self.ref_types[fld.type.base, fld.type.dims],
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
                    raise DuplicateDeclaration(method.span, method.name)
                sym = self._sym(
                    name=method.name,
                    kind="method",
                    declared_type=self.ref_types[method.return_type.base, method.return_type.dims],
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

    def _link_classes(self) -> None:
        """Reject cyclic inheritance, and fill each class's tables from its
        base-class chain, farthest first so that the nearest declaration wins."""
        for info in self.res.classes.values():
            chain = self.res.ancestors(info.name)
            if chain[-1].base in self.res.classes:  # the walk stopped at a class it had passed
                cycle = self.res.classes[chain[-1].base].decl
                raise TypeCheckError(cycle.span, f"cyclic inheritance involving '{cycle.name}'")
            for above in reversed(chain):
                info.dispatch.update((key, m) for key, m in above.methods.items() if key[0] != "<init>")
                info.visible.update(above.fields)
                above.below.append(info)

    def _check_overrides(self) -> None:
        """A method with the name and arity of a base class's method keeps
        its signature (JLS 8.4.8): its parameter types, its staticness and
        its return type, which only a class type may narrow to a subclass.
        So every method a call may dispatch to has the call's signature."""
        for info in self.res.classes.values():
            inherited = self.res.classes[info.base].dispatch if info.base in self.res.classes else {}
            for (name, arity), minfo in info.methods.items():
                base = inherited.get((name, arity))
                if base is None:
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
        info = self.current_class = self.res.classes[cls.name]
        class_scope = Scope(parent=self.global_scope, symbols=info.visible)  # nothing declares into it
        for fld in cls.fields:
            if fld.initializer is not None:
                self.static_context = fld.static
                value_t = self._expr(fld.initializer, class_scope)
                self._require_assignable(
                    self.ref_types[fld.type.base, fld.type.dims], value_t, fld.span, "field initializer"
                )
        for method in cls.methods:
            self._resolve_method(method, class_scope)
        self.current_class = None

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
            scope.declare(
                self._sym(
                    name=param.name,
                    kind="param",
                    declared_type=self.ref_types[param.type.base, param.type.dims],
                    span=param.span,
                    final=param.final,
                    decl_uid=param.uid,
                    read_only=param.final,
                )
            )
        self._stmts(method.body.stmts, scope)
        # Every symbol declared since `first` is a parameter or a local of
        # this method: they take the frame slots after the receiver's, in
        # declaration order.
        frame = self.res.symbols[first:]
        for slot, sym in enumerate(frame, 1):
            sym.slot = slot
        self.res.frame_sizes[method.uid] = len(frame) + 1
        self.current_method = None

    # -- statements ----------------------------------------------------------

    def _stmts(self, stmts: list[ast.Stmt], parent: Scope) -> None:
        """Resolve the statements of a block or a switch case.  Their scope
        is made at the first declaration among them: the statements before
        it, and all of them where none declares, resolve in parent."""
        scope = parent
        handlers = self._STMTS
        for stmt in stmts:
            kind = type(stmt)
            if kind is ast.LocalDecl and scope is parent:
                scope = Scope(parent=parent)
            handlers[kind](self, stmt, scope)

    def _s_local(self, decl: ast.LocalDecl, scope: Scope) -> None:
        declared = self.ref_types[decl.type.base, decl.type.dims]
        if decl.initializer is not None:
            value_t = self._expr(decl.initializer, scope)
            self._require_assignable(declared, value_t, decl.span, "initializer")
        scope.declare(
            self._sym(
                name=decl.name,
                kind="local",
                declared_type=declared,
                span=decl.span,
                final=decl.final,
                decl_uid=decl.uid,
                read_only=decl.final and decl.initializer is not None,
            )
        )

    def _condition(self, cond: ast.Expr, scope: Scope, what: str) -> None:
        cond_t = self._expr(cond, scope)
        # Constant int conditions are legal and fold in the CFG.
        if cond_t is not ty.BOOLEAN and ast.literal_truth(cond) is None:
            raise TypeCheckError(cond.span, f"{what} condition must be boolean, got {cond_t}")

    def _s_if(self, stmt: ast.If, scope: Scope) -> None:
        self._condition(stmt.cond, scope, "if")
        self._stmts(stmt.then.stmts, scope)
        els = stmt.els
        if els is not None:
            self._STMTS[type(els)](self, els, scope)

    def _s_while(self, stmt: ast.While, scope: Scope) -> None:
        self._condition(stmt.cond, scope, "while")
        self._stmts(stmt.body.stmts, scope)

    def _s_for(self, stmt: ast.For, scope: Scope) -> None:
        init = stmt.init
        if init is not None:
            if type(init) is ast.LocalDecl:
                scope = Scope(parent=scope)
            self._STMTS[type(init)](self, init, scope)
        if stmt.cond is not None:
            self._condition(stmt.cond, scope, "for")
        if stmt.update is not None:
            self._expr(stmt.update, scope)
        self._stmts(stmt.body.stmts, scope)

    def _s_switch(self, stmt: ast.Switch, scope: Scope) -> None:
        subject_t = self._expr(stmt.subject, scope)
        if subject_t not in _INTEGRAL and subject_t is not ty.STRING:
            raise TypeCheckError(stmt.subject.span, f"switch subject must be int or String, got {subject_t}")
        for case in stmt.cases:
            if case.label is not None:
                label_t = self._expr(case.label, scope)
                if not _case_fits(subject_t, label_t):
                    raise TypeCheckError(
                        case.label.span, f"case label of type {label_t} cannot match a {subject_t} subject"
                    )
            self._stmts(case.body, scope)
        self.switches.append(stmt)

    def _s_try(self, stmt: ast.Try, scope: Scope) -> None:
        self._stmts(stmt.body.stmts, scope)
        for catch in stmt.catches:
            catch_scope = Scope(parent=scope)
            catch_scope.declare(
                self._sym(
                    name=catch.name,
                    kind="param",
                    declared_type=self.ref_types[catch.exc_type.base, catch.exc_type.dims],
                    span=catch.span,
                    is_catch_param=True,
                    decl_uid=catch.uid,
                )
            )
            self._stmts(catch.body.stmts, catch_scope)
        if stmt.finally_block is not None:
            self._stmts(stmt.finally_block.stmts, scope)

    def _s_return(self, stmt: ast.Return, scope: Scope) -> None:
        method = self.current_method
        ret = self.ref_types[method.return_type.base, method.return_type.dims]
        if stmt.value is not None:
            value_t = self._expr(stmt.value, scope)
            if ret is ty.VOID_T:
                raise TypeCheckError(stmt.span, "void method returns a value")
            self._require_assignable(ret, value_t, stmt.span, "return value")
        elif ret is not ty.VOID_T and not method.is_constructor:
            raise TypeCheckError(stmt.span, f"return needs a {ret} value")

    def _s_assert(self, stmt: ast.Assert, scope: Scope) -> None:
        cond_t = self._expr(stmt.condition, scope)
        if cond_t is not ty.BOOLEAN:
            raise TypeCheckError(stmt.condition.span, f"assert condition must be boolean, got {cond_t}")
        # JLS 14.10: the message may be of any type but void.
        if stmt.message is not None and self._expr(stmt.message, scope) is ty.VOID_T:
            raise TypeCheckError(stmt.message.span, "assert message must not be void")

    def _s_synchronized(self, stmt: ast.Synchronized, scope: Scope) -> None:
        monitor_t = self._expr(stmt.monitor, scope)
        if type(monitor_t) not in (ty.ClassType, ty.ArrayType):
            raise TypeCheckError(stmt.monitor.span, f"synchronized needs an object monitor, got {monitor_t}")
        self._stmts(stmt.body.stmts, scope)

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
        if dst is not src and not ty.assignable(dst, src, self.res.subclass_ok):
            raise TypeCheckError(span, f"cannot use {src} as {dst} in {what}")

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
            and type(up) is ast.Unary
            and up.op == "-"
            and (up.span.end_line, up.span.end_column) == (literal.span.end_line, literal.span.end_column)
        )

    def _expr(self, expr: ast.Expr, scope: Scope) -> Type:
        """The type of expr, which it records in Resolution.types."""
        t = self.types[expr.uid] = self._EXPRS[type(expr)](self, expr, scope)
        return t

    def _receiver(self, expr: ast.Expr, scope: Scope) -> Type:
        """The type of the receiver of a field or a method, which may also
        be a class name."""
        if type(expr) is not ast.Name:
            return self._expr(expr, scope)
        t = self.types[expr.uid] = self._name(expr, scope, receiver=True)
        return t

    def _literal(self, expr: ast.Literal, scope: Scope) -> Type:
        if expr.kind == "int" and expr.value > ty.INT_MAX and not self._negated_int_min(expr):
            raise TypeCheckError(expr.span, "integer number too large")
        return _LITERAL_TYPES[expr.kind]

    def _name(self, expr: ast.Name, scope: Scope, store: bool = False, receiver: bool = False) -> Type:
        """A stored name counts a write of its symbol, any other a read; only
        a receiver may name a class."""
        sym = scope.lookup(expr.identifier)
        if sym is None:
            raise ResolutionError(expr.span, expr.identifier)
        if sym.kind == "class" and not receiver:
            raise TypeCheckError(expr.span, f"class name {sym.name} is not a value")
        if sym.kind == "field" and self.static_context:
            self._require_static(sym.static, expr.span, "field", sym.name)
        self.res.name_targets[expr.uid] = sym
        if store:
            sym.write_count += 1
        else:
            sym.usage_count += 1
        return sym.declared_type

    def _unary(self, expr: ast.Unary, scope: Scope) -> Type:
        operand_t = self._expr(expr.operand, scope)
        if expr.op == "!":
            if operand_t is not ty.BOOLEAN:
                raise TypeCheckError(expr.span, f"'!' needs boolean, got {operand_t}")
            return ty.BOOLEAN
        if operand_t not in ty.NUMERIC:
            raise TypeCheckError(expr.span, f"unary '-' needs a number, got {operand_t}")
        return ty.DOUBLE if operand_t is ty.DOUBLE else ty.INT

    def _binary(self, expr: ast.Binary, scope: Scope) -> Type:
        op = expr.op
        if op == "=":
            left = expr.left
            if type(left) is ast.Name:
                target_t = self.types[left.uid] = self._name(left, scope, store=True)
            elif type(left) is ast.FieldAccess:
                target_t = self.types[left.uid] = self._field_access(left, scope, store=True)
            else:
                target_t = self._expr(left, scope)
            target = self.res.name_targets.get(left.uid) or self.res.field_targets.get(left.uid)
            if target is not None and target.read_only:
                raise TypeCheckError(expr.span, f"cannot assign a value to final variable {target.name}")
            value_t = self._expr(expr.right, scope)
            self._require_assignable(target_t, value_t, expr.span, "assignment")
            return target_t
        left_t = self._expr(expr.left, scope)
        right_t = self._expr(expr.right, scope)
        if op == "+" and (left_t is ty.STRING or right_t is ty.STRING):
            return ty.STRING
        if op in ("+", "-", "*", "/", "%"):
            if left_t not in ty.NUMERIC or right_t not in ty.NUMERIC:
                raise TypeCheckError(expr.span, f"'{op}' needs numbers, got {left_t} and {right_t}")
            return ty.DOUBLE if left_t is ty.DOUBLE or right_t is ty.DOUBLE else ty.INT
        if op in ("<", "<=", ">", ">="):
            if left_t not in ty.NUMERIC or right_t not in ty.NUMERIC:
                raise TypeCheckError(expr.span, f"'{op}' needs numbers, got {left_t} and {right_t}")
            return ty.BOOLEAN
        if op in ("==", "!="):
            if not _comparable(left_t, right_t):
                raise TypeCheckError(expr.span, f"'{op}' cannot compare {left_t} with {right_t}")
            return ty.BOOLEAN
        if op in ("&&", "||"):
            for side, side_t in ((expr.left, left_t), (expr.right, right_t)):
                if side_t is not ty.BOOLEAN:
                    raise TypeCheckError(side.span, f"'{op}' needs booleans, got {side_t}")
            return ty.BOOLEAN
        raise AssertionError(f"unhandled operator {op}")  # pragma: no cover

    def _index(self, expr: ast.Index, scope: Scope) -> Type:
        array_t = self._expr(expr.array, scope)
        index_t = self._expr(expr.index, scope)
        if type(array_t) is not ty.ArrayType:
            raise TypeCheckError(expr.span, f"indexing a non-array {array_t}")
        if index_t not in _INTEGRAL:
            raise TypeCheckError(expr.index.span, f"array index must be int, got {index_t}")
        return array_t.elem

    def _field_access(self, expr: ast.FieldAccess, scope: Scope, store: bool = False) -> Type:
        receiver_t = self._receiver(expr.receiver, scope)
        if type(receiver_t) is not ty.ClassType:
            raise TypeCheckError(expr.span, f"{receiver_t} has no field '{expr.name}'")
        info = self.res.classes.get(receiver_t.name)
        sym = info.visible.get(expr.name) if info is not None else None
        if sym is None:
            raise ResolutionError(expr.span, expr.name)
        if self.res.names_class(expr.receiver):
            self._require_static(sym.static, expr.span, "field", expr.name)
        self.res.field_targets[expr.uid] = sym
        if store:
            sym.write_count += 1
        else:
            sym.usage_count += 1
        return sym.declared_type

    def _new_array(self, expr: ast.NewArray, scope: Scope) -> Type:
        size_t = self._expr(expr.size_expr, scope)
        if size_t not in _INTEGRAL:
            raise TypeCheckError(expr.size_expr.span, f"array size must be int, got {size_t}")
        return self.ref_types[expr.elem_type.base, expr.elem_type.dims + 1]

    def _new(self, expr: ast.New, scope: Scope) -> Type:
        info = self.res.classes.get(expr.class_name)
        arg_ts = [self._expr(a, scope) for a in expr.args]
        if info is None:
            raise ResolutionError(expr.span, expr.class_name)
        info.made = True
        result = self.global_scope.symbols[expr.class_name].declared_type
        ctor = info.ctors.get(len(expr.args))
        if ctor is None:
            if expr.args or info.ctors:
                raise TypeCheckError(
                    expr.span, f"class {expr.class_name} has no constructor taking {len(expr.args)} argument(s)"
                )
            # implicit default constructor
            self.res.call_targets[expr.uid] = CallTarget(default_ctor_id(expr.class_name))
            return result
        self._check_args(ctor, expr, arg_ts)
        self.res.call_targets[expr.uid] = CallTarget(ctor.method_id, method=ctor)
        return result

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
            if param_t is ty.STRING:
                if arg_t is ty.STRING or arg_t is ty.NULL:
                    continue
                raise TypeCheckError(arg.span, f"{expr.name}() needs a String, got {arg_t}")
            self._require_assignable(param_t, arg_t, arg.span, f"{expr.name}() argument")
        self.res.call_targets[expr.uid] = CallTarget(builtin.id, builtin=builtin)
        return builtin.result

    def _check_args(self, minfo: MethodInfo, expr: ast.Call | ast.New, arg_ts: list[Type]) -> None:
        ref_types = self.ref_types
        for param, arg_t, arg in zip(minfo.decl.params, arg_ts, expr.args):
            self._require_assignable(ref_types[param.type.base, param.type.dims], arg_t, arg.span, "argument")

    def _call(self, expr: ast.Call, scope: Scope) -> Type:
        """A call resolves to the method of its name and arity of the
        receiver's class (the current class's, unqualified), or else to a
        builtin (_builtin_of): a declared method shadows a builtin."""
        arg_ts = [self._expr(a, scope) for a in expr.args]
        if expr.receiver is None:
            owner = self.current_class.name if self.current_class is not None else None
            of_class = self.static_context
        else:
            receiver_t = self._receiver(expr.receiver, scope)
            owner = receiver_t.name if type(receiver_t) is ty.ClassType else None
            of_class = self.res.names_class(expr.receiver)
        info = self.res.classes.get(owner)
        minfo = info.dispatch.get((expr.name, len(expr.args))) if info is not None else None
        if minfo is not None:
            if of_class:
                self._require_static(minfo.decl.is_static, expr.span, "method", expr.name)
            self.res.call_targets[expr.uid] = CallTarget(minfo.method_id, method=minfo, receiver=owner)
            self._check_args(minfo, expr, arg_ts)
            return minfo.symbol.declared_type
        builtin = self._builtin_of(owner, expr)
        if builtin is None:
            raise ResolutionError(expr.span, expr.name)
        if of_class:
            self._require_static(builtin.static, expr.span, "method", expr.name)
        return self._builtin_call(expr, builtin, arg_ts)

    _STMTS = {
        ast.Block: lambda self, stmt, scope: self._stmts(stmt.stmts, scope),
        ast.LocalDecl: _s_local,
        ast.ExprStmt: lambda self, stmt, scope: self._expr(stmt.expr, scope),
        ast.If: _s_if,
        ast.While: _s_while,
        ast.For: _s_for,
        ast.Switch: _s_switch,
        ast.Try: _s_try,
        ast.Return: _s_return,
        ast.Assert: _s_assert,
        ast.Synchronized: _s_synchronized,
        ast.Empty: lambda self, stmt, scope: None,
    }

    _EXPRS = {
        ast.Literal: _literal,
        ast.Null: lambda self, expr, scope: ty.NULL,
        ast.Name: _name,
        ast.Unary: _unary,
        ast.Binary: _binary,
        ast.Index: _index,
        ast.FieldAccess: _field_access,
        ast.NewArray: _new_array,
        ast.New: _new,
        ast.Call: _call,
    }

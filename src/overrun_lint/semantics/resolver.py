"""Scope construction, declaration/usage resolution, and expression typing.

build_symbol_table walks a parsed unit, builds the scope tree, resolves
every Name/Call/FieldAccess, counts reads and writes per symbol, numbers
each method's parameters and locals into the interpreter's frame slots, and
types every expression.  Unresolved identifiers are collected as diagnostics;
operator/operand mismatches raise TypeCheckError.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from ..errors import DuplicateDeclaration, ResolutionError, TypeCheckError
from ..frontend import ast
from ..frontend.lexer import SourceSpan
from . import types as ty
from .types import Type

BUILTIN_FUNCTIONS: dict[str, tuple[tuple[Type, ...], Type]] = {
    # name -> (parameter types, return type); None parameter = any type
    "println": ((None,), ty.VOID_T),  # type: ignore[dict-item]
    "readLine": ((), ty.NULLABLE_STRING),
    "parseInt": ((ty.STRING,), ty.INT),
    "open": ((ty.STRING,), ty.ClassType("Stream")),
    "random": ((), ty.DOUBLE),
    "length": ((ty.STRING,), ty.INT),
    "exists": ((ty.STRING,), ty.BOOLEAN),
    "fail": ((ty.STRING, ty.STRING, ty.STRING), ty.VOID_T),
}

# Built-in value-must-be-checked callees.
MUST_CHECK_BUILTINS = {"readLine", "Stream.read"}

THREAD_METHODS: dict[str, tuple[tuple[Type, ...], Type]] = {
    "start": ((), ty.VOID_T),
    "run": ((), ty.VOID_T),
    "wait": ((), ty.VOID_T),
    "sleep": ((ty.INT,), ty.VOID_T),
    "getName": ((), ty.STRING),
}

STREAM_METHODS: dict[str, tuple[tuple[Type, ...], Type]] = {
    "read": ((ty.ArrayType(ty.BYTE), ty.INT, ty.INT), ty.INT),
    "close": ((), ty.VOID_T),
}

BUILTIN_CLASSES = {"Thread", "Stream", "Exception"}


@dataclass
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


@dataclass
class Scope:
    owner: ast.Node
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


@dataclass
class MethodInfo:
    decl: ast.MethodDecl
    symbol: Symbol
    owner: str

    @property
    def method_id(self) -> str:
        name = "<init>" if self.decl.is_constructor else self.decl.name
        return f"{self.owner}.{name}/{self.decl.arity}"


@dataclass
class ClassInfo:
    decl: ast.ClassDecl
    name: str
    base: str | None
    fields: dict[str, Symbol] = field(default_factory=dict)
    methods: dict[tuple[str, int], MethodInfo] = field(default_factory=dict)
    ctors: dict[int, MethodInfo] = field(default_factory=dict)

    @property
    def extends_thread(self) -> bool:
        return self.decl.is_builtin_thread_subclass


@dataclass
class CallTarget:
    kind: str  # builtin | method | ctor | unknown
    id: str  # "Class.m/arity", "builtin:name", or "unknown"
    returns: Type
    must_check: bool = False
    method: MethodInfo | None = None


@dataclass
class Resolution:
    unit: ast.CompilationUnit
    classes: dict[str, ClassInfo]
    scopes: dict[int, Scope]
    symbols: list[Symbol]
    name_targets: dict[int, Symbol]
    field_targets: dict[int, Symbol]
    call_targets: dict[int, CallTarget]
    types: dict[int, Type]
    diagnostics: list[Exception]
    # The unit's node index, built in one walk before resolution: every node
    # in pre-order, the nodes grouped by class (each group in pre-order), the
    # child uid -> parent map, and decl uid -> the first symbol it declares.
    nodes: list[ast.Node] = field(default_factory=list)
    by_type: dict[type, list[ast.Node]] = field(default_factory=dict)
    parents: dict[int, ast.Node] = field(default_factory=dict)
    decl_symbols: dict[int, Symbol] = field(default_factory=dict)
    frame_sizes: dict[int, int] = field(default_factory=dict)  # method uid -> slots

    def nodes_of(self, *kinds: type) -> list[ast.Node]:
        """Nodes whose exact class is one of kinds, in pre-order."""
        if len(kinds) == 1:
            return self.by_type.get(kinds[0], [])
        return [node for node in self.nodes if type(node) in kinds]

    def is_within(self, node: ast.Node, root: ast.Node) -> bool:
        """Whether node lies in the subtree rooted at root."""
        cur: ast.Node | None = node
        while cur is not None and cur is not root:
            cur = self.parents.get(cur.uid)
        return cur is root

    def enclosing_conditions(self, node: ast.Node) -> Iterator[tuple[ast.Expr, bool]]:
        """(condition, holds) for every if/while around node, innermost
        first.  holds is True when node lies in the then-branch or the loop
        body, where the condition is known to be true."""
        cur = node
        parent = self.parents.get(cur.uid)
        while parent is not None:
            if isinstance(parent, ast.If):
                yield parent.cond, cur is parent.then
            elif isinstance(parent, ast.While):
                yield parent.cond, cur is parent.body
            cur, parent = parent, self.parents.get(parent.uid)

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
        if any(info.name == base for info in chain) or (chain and chain[-1].base == base):
            return True
        return base == "Thread" and derived in self.classes and self.classes[derived].extends_thread


def type_of(expr: ast.Expr, resolution: Resolution) -> Type:
    """Deterministic type of a resolved expression."""
    return resolution.types[expr.uid]


def build_symbol_table(unit: ast.CompilationUnit) -> Resolution:
    return _Resolver(unit).run()


class _Resolver:
    def __init__(self, unit: ast.CompilationUnit):
        self.unit = unit
        self.res = Resolution(
            unit=unit,
            classes={},
            scopes={},
            symbols=[],
            name_targets={},
            field_targets={},
            call_targets={},
            types={},
            diagnostics=[],
        )
        self._index()
        self.global_scope = Scope(owner=unit)
        self.current_class: ClassInfo | None = None
        self.current_method: ast.MethodDecl | None = None

    # -- driver ------------------------------------------------------------

    def run(self) -> Resolution:
        self._declare_classes()
        self._check_acyclic()
        for cls in self.unit.classes:
            self._resolve_class(cls)
        return self.res

    def _index(self) -> None:
        # ast.walk's traversal, inlined so each node's children are listed once.
        res = self.res
        stack: list[ast.Node] = [self.unit]
        while stack:
            node = stack.pop()
            res.nodes.append(node)
            res.by_type.setdefault(type(node), []).append(node)
            children = ast.child_nodes(node)
            for child in children:
                res.parents[child.uid] = node
            stack.extend(reversed(children))

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

    # -- class / method bodies ----------------------------------------------

    def _resolve_class(self, cls: ast.ClassDecl) -> None:
        info = self.res.classes.get(cls.name)
        if info is None:
            return
        self.current_class = info
        class_scope = Scope(owner=cls, parent=self.global_scope)
        for name, sym in info.fields.items():
            class_scope.symbols[name] = sym
        self._install_inherited(class_scope, info)
        self.res.scopes[cls.uid] = class_scope
        for fld in cls.fields:
            if fld.initializer is not None:
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
        scope = Scope(owner=method, parent=class_scope)
        if not method.is_static:
            this_sym = self._sym(
                name="this",
                kind="param",
                declared_type=ty.ClassType(self.current_class.name),
                span=method.span,
                final=True,
                is_builtin=True,
                slot=0,
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
                    )
                )
            except DuplicateDeclaration as err:
                self.res.diagnostics.append(err)
        self.res.scopes[method.uid] = scope
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

    def _block(self, block: ast.Block, parent: Scope) -> Scope:
        scope = Scope(owner=block, parent=parent)
        self.res.scopes[block.uid] = scope
        for stmt in block.stmts:
            self._stmt(stmt, scope)
        return scope

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
            for_scope = Scope(owner=stmt, parent=scope)
            self.res.scopes[stmt.uid] = for_scope
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
                    self._expr(case.label, scope)
                case_scope = Scope(owner=case, parent=scope)
                self.res.scopes[case.uid] = case_scope
                for inner in case.body:
                    self._stmt(inner, case_scope)
        elif isinstance(stmt, ast.Try):
            self._block(stmt.body, scope)
            for catch in stmt.catches:
                catch_scope = Scope(owner=catch, parent=scope)
                self.res.scopes[catch.uid] = catch_scope
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
            if stmt.message is not None:
                self._expr(stmt.message, scope)
        elif isinstance(stmt, ast.Synchronized):
            monitor_t = self._expr(stmt.monitor, scope)
            if not isinstance(monitor_t, (ty.ClassType, ty.ArrayType, ty.UnknownType)):
                raise TypeCheckError(stmt.monitor.span, f"synchronized needs an object monitor, got {monitor_t}")
            self._block(stmt.body, scope)
        elif isinstance(stmt, ast.Empty):
            pass
        else:  # pragma: no cover
            raise AssertionError(f"unhandled statement {type(stmt).__name__}")

    # -- expressions -----------------------------------------------------------

    def _require_assignable(self, dst: Type, src: Type, span: SourceSpan, what: str) -> None:
        if not ty.assignable(dst, src, self.res.subclass_ok):
            raise TypeCheckError(span, f"cannot use {src} as {dst} in {what}")

    def _set(self, expr: ast.Expr, t: Type) -> Type:
        self.res.types[expr.uid] = t
        return t

    def _expr(self, expr: ast.Expr, scope: Scope, store: bool = False) -> Type:
        if isinstance(expr, ast.Literal):
            kinds = {"int": ty.INT, "double": ty.DOUBLE, "string": ty.STRING, "boolean": ty.BOOLEAN}
            return self._set(expr, kinds[expr.kind])
        if isinstance(expr, ast.Null):
            return self._set(expr, ty.NULL)
        if isinstance(expr, ast.Name):
            sym = scope.lookup(expr.identifier)
            if sym is None:
                self.res.diagnostics.append(ResolutionError(expr.span, expr.identifier))
                return self._set(expr, ty.UNKNOWN)
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
        receiver_t = self._expr(expr.receiver, scope)
        if receiver_t == ty.UNKNOWN:
            return self._set(expr, ty.UNKNOWN)
        if isinstance(receiver_t, ty.ArrayType) or not isinstance(receiver_t, ty.ClassType):
            raise TypeCheckError(expr.span, f"{receiver_t} has no field '{expr.name}'")
        chain = self.res.ancestors(receiver_t.name)
        sym = next((info.fields[expr.name] for info in chain if expr.name in info.fields), None)
        if sym is None:
            self.res.diagnostics.append(ResolutionError(expr.span, expr.name))
            return self._set(expr, ty.UNKNOWN)
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
            self.res.call_targets[expr.uid] = CallTarget(
                "ctor", f"{expr.class_name}.<init>/0", result
            )
            return self._set(expr, result)
        self._check_args(ctor, expr, arg_ts)
        self.res.call_targets[expr.uid] = CallTarget(
            "ctor", ctor.method_id, result, method=ctor
        )
        return self._set(expr, result)

    def _lookup_method(self, class_name: str, name: str, arity: int) -> MethodInfo | None:
        for info in self.res.ancestors(class_name):
            minfo = info.methods.get((name, arity))
            if minfo is not None:
                return minfo
        return None

    def _thread_visible(self, class_name: str) -> bool:
        if class_name == "Thread":
            return True
        return any(info.extends_thread for info in self.res.ancestors(class_name))

    def _check_builtin_args(
        self, expr: ast.Call, sig: tuple[tuple[Type, ...], Type], arg_ts: list[Type]
    ) -> None:
        params, _ = sig
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

    def _check_args(self, minfo: MethodInfo, expr: ast.Call | ast.New, arg_ts: list[Type]) -> None:
        for param, arg_t, arg in zip(minfo.decl.params, arg_ts, expr.args):
            self._require_assignable(ty.from_type_ref(param.type), arg_t, arg.span, "argument")

    def _method_call(self, expr: ast.Call, minfo: MethodInfo, arg_ts: list[Type]) -> Type:
        returns = minfo.symbol.declared_type
        self.res.call_targets[expr.uid] = CallTarget(
            "method", minfo.method_id, returns, method=minfo
        )
        self._check_args(minfo, expr, arg_ts)
        return self._set(expr, returns)

    def _builtin_call(self, expr: ast.Call, prefix: str, table: dict, arg_ts: list[Type]) -> Type:
        name, sig = prefix + expr.name, table[expr.name]
        self._check_builtin_args(expr, sig, arg_ts)
        self.res.call_targets[expr.uid] = CallTarget(
            "builtin", f"builtin:{name}", sig[1], must_check=name in MUST_CHECK_BUILTINS
        )
        return self._set(expr, sig[1])

    def _unknown_call(self, expr: ast.Call | ast.New, returns: Type) -> Type:
        self.res.call_targets[expr.uid] = CallTarget("unknown", "unknown", returns)
        return self._set(expr, returns)

    def _call(self, expr: ast.Call, scope: Scope) -> Type:
        arg_ts = [self._expr(a, scope) for a in expr.args]
        if expr.receiver is None:
            if self.current_class is not None:
                minfo = self._lookup_method(self.current_class.name, expr.name, len(expr.args))
                if minfo is not None:
                    return self._method_call(expr, minfo, arg_ts)
            if (
                self.current_class is not None
                and self._thread_visible(self.current_class.name)
                and expr.name in THREAD_METHODS
                and len(expr.args) == len(THREAD_METHODS[expr.name][0])
            ):
                return self._builtin_call(expr, "Thread.", THREAD_METHODS, arg_ts)
            if expr.name in BUILTIN_FUNCTIONS:
                return self._builtin_call(expr, "", BUILTIN_FUNCTIONS, arg_ts)
            self.res.diagnostics.append(ResolutionError(expr.span, expr.name))
            return self._unknown_call(expr, ty.UNKNOWN)
        receiver_t = self._expr(expr.receiver, scope)
        if receiver_t == ty.UNKNOWN:
            return self._unknown_call(expr, ty.UNKNOWN)
        if isinstance(receiver_t, ty.ClassType):
            if receiver_t.name == "Stream" and expr.name in STREAM_METHODS:
                return self._builtin_call(expr, "Stream.", STREAM_METHODS, arg_ts)
            minfo = self._lookup_method(receiver_t.name, expr.name, len(expr.args))
            if minfo is not None:
                return self._method_call(expr, minfo, arg_ts)
            if self._thread_visible(receiver_t.name) and expr.name in THREAD_METHODS:
                return self._builtin_call(expr, "Thread.", THREAD_METHODS, arg_ts)
        self.res.diagnostics.append(ResolutionError(expr.span, expr.name))
        return self._unknown_call(expr, ty.UNKNOWN)

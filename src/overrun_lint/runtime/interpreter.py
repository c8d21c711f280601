"""Closure-compiling interpreter with execution tracing.

Each method body is compiled, on its first invocation within one `execute`
call, into nested Python closures (Feeley & Lapalme, "Using Closures for
Code Generation", 1987).  Compilation binds, once, what would otherwise be
looked up on every step: each statement's instruction id and branch keys,
each name's frame slot or field, each call's target, each operator's code
and each store's coercion.  Locals and parameters live in a per-invocation list;
slot 0 holds the receiver.

Executing a simple statement or a branching condition records its
instruction id (and the branch outcome for decisions) into the RunTrace.
Runtime faults (out-of-bounds access, null dereference, assertion failure,
step limit) halt the run and are recorded; fixed-width integer overflow is
recorded as a warning and execution continues with the wrapped value.

A statement closure returns None to fall through and anything else to
return from the method: the returned value, or _NULL for a null/void result.
"""

from __future__ import annotations

import math
import operator
import random as _random
import sys
from dataclasses import dataclass, field
from operator import itemgetter

from ..errors import EntryNotFoundError, InterpreterError
from ..frontend import ast
from ..frontend.lexer import SourceSpan
from ..semantics import types as ty
from ..semantics.resolver import Resolution, build_symbol_table
from ..cfg import UnitCfgs, build_unit_cfgs, method_identity

INT_MIN, INT_MAX = -(2**31), 2**31 - 1
BYTE_MIN, BYTE_MAX = -128, 127
# The highest recursion limit a run sets.  On Python 3.10 every Python call
# also recurses in C, and with an 8 MB stack a runaway SL recursion crashed
# the process between 20 000 and 30 000 frames.
_RECURSION_CEILING = 10_000

FAULT_OUT_OF_BOUNDS = "out_of_bounds"
FAULT_NULL_DEREFERENCE = "null_dereference"
FAULT_ASSERTION_FAILURE = "assertion_failure"
FAULT_STEP_LIMIT = "step_limit"
FAULT_OVERFLOW_WARNING = "arithmetic_overflow_warning"


@dataclass
class RunOptions:
    entry: str | None = None  # "Class.method"; default: the unique static main
    assertions_enabled: bool = False
    coverage_enabled: bool = False
    stdin_script: list[str] | None = None
    file_system_stub: dict[str, str] | None = None
    max_steps: int = 1_000_000
    max_call_depth: int = 160
    seed: int = 0


@dataclass
class Fault:
    kind: str
    span: SourceSpan | None
    detail: str


@dataclass
class AssertionRecord:
    unit_name: str
    statement_text: str
    span: SourceSpan | None
    message: str
    outcome: str  # passed | failed


@dataclass
class RunTrace:
    executed_instruction_ids: set[int] = field(default_factory=set)
    branch_outcomes: dict[tuple[int, str], int] = field(default_factory=dict)
    entered_methods: set[str] = field(default_factory=set)
    stdout: list[str] = field(default_factory=list)
    faults: list[Fault] = field(default_factory=list)
    assertion_records: list[AssertionRecord] = field(default_factory=list)
    coverage_enabled: bool = False
    steps: int = 0

    @property
    def halting_fault(self) -> Fault | None:
        for fault in self.faults:
            if fault.kind != FAULT_OVERFLOW_WARNING:
                return fault
        return None


class _Halt(Exception):
    """Internal: a halting fault was recorded."""


@dataclass
class SLObject:
    cls_name: str
    fields: dict[str, object]
    ordinal: int


@dataclass
class SLArray:
    elem: str  # element base type name
    values: list
    ordinal: int

    def __len__(self) -> int:
        return len(self.values)


@dataclass
class SLStream:
    name: str
    data: bytes
    pos: int = 0
    closed: bool = False
    ordinal: int = 0


_NULL = object()  # a statement's "return null/void" signal
_NUMBERS = frozenset((int, float, bool))
_REFERENCES = frozenset((SLObject, SLArray, SLStream))
_TRUE, _FALSE = "true-branch", "false-branch"


def format_value(value) -> str:
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, float):
        text = repr(value)
        return text
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return value
    if isinstance(value, SLObject):
        return f"{value.cls_name}#{value.ordinal}"
    if isinstance(value, SLArray):
        return f"{value.elem}[{len(value.values)}]#{value.ordinal}"
    if isinstance(value, SLStream):
        return f"Stream({value.name})#{value.ordinal}"
    raise InterpreterError(f"unprintable value {value!r}")


def default_value(type_ref: ast.TypeRef):
    if type_ref.dims > 0:
        return None
    return {"int": 0, "byte": 0, "double": 0.0, "boolean": False}.get(type_ref.base)


def _fails(message: str, *operands):
    """A closure that evaluates operands in order, then raises."""

    def run(f):
        for operand in operands:
            operand(f)
        raise InterpreterError(message)

    return run


def _constant(value):
    return lambda f: value


def _args(fns: list):
    """A closure building the argument list, left to right.  Up to two
    arguments skip the comprehension's own frame; that is worth about 7 %
    of the interp benchmark's throughput."""
    if not fns:
        return lambda f: []
    if len(fns) == 1:
        (a,) = fns
        return lambda f: [a(f)]
    if len(fns) == 2:
        a, b = fns
        return lambda f: [a(f), b(f)]
    return lambda f: [fn(f) for fn in fns]


def _sequence(stmts: tuple):
    """One closure running statement closures in order until one returns.
    Statements that hold blocks loop over them inline instead, so a nested
    block costs no Python frame."""
    if len(stmts) == 1:
        return stmts[0]

    def run(f):
        for stmt in stmts:
            r = stmt(f)
            if r is not None:
                return r

    return run


class _Scope:
    """Compile-time mirror of the runtime scope chain: name -> frame slot.
    A block opens a child; a redeclaration in the same scope reuses the
    slot, so reads see the later declaration's value."""

    def __init__(self, parent: "_Scope | None" = None):
        self.parent = parent
        self.names: dict[str, int] = {}
        # [slots used so far], shared by the method's scopes; 0 is the receiver
        self.slots = parent.slots if parent is not None else [1]

    def child(self) -> "_Scope":
        return _Scope(self)

    def declare(self, name: str) -> int:
        slot = self.names.get(name)
        if slot is None:
            slot = self.names[name] = self.slots[0]
            self.slots[0] += 1
        return slot

    def lookup(self, name: str) -> int | None:
        scope: _Scope | None = self
        while scope is not None:
            if name in scope.names:
                return scope.names[name]
            scope = scope.parent
        return None


class _Method:
    """A method's entry point: compiles the body on first call."""

    __slots__ = ("call",)


class Interpreter:
    def __init__(
        self,
        unit: ast.CompilationUnit,
        options: RunOptions,
        resolution: Resolution,
        cfgs: UnitCfgs,
    ):
        self.unit = unit
        self.options = options
        self.res = resolution
        self.cfgs = cfgs
        self.trace = RunTrace(coverage_enabled=options.coverage_enabled)
        self.rng = _random.Random(options.seed)
        self.stdin = list(options.stdin_script or [])
        self.stdin_pos = 0
        self.statics: dict[tuple[str, str], object] = {}
        self.depth = 0
        self.ordinals = 0
        # Compiled code and tables, built on first use and dropped with the run.
        self.methods: dict[int, _Method] = {}  # MethodDecl uid -> entry point
        self.tables: dict[str, dict[tuple[str, int], _Method]] = {}  # class -> virtual table
        self.layouts: dict[str, list] = {}  # class -> field initialisation, base first
        # (branch keys, their counts) per decision; the closures count.
        self.branch_counters: list[tuple[tuple, list[int]]] = []

    # -- trace plumbing ------------------------------------------------------

    def _fault(self, kind: str, span: SourceSpan | None, detail: str, halt: bool = True):
        self.trace.faults.append(Fault(kind, span, detail))
        if halt:
            raise _Halt()

    def _step(self, iid: int | None, span: SourceSpan | None) -> None:
        """Every step goes through here: one executed instruction (iid is
        None for a statement outside the CFGs), checked against max_steps."""
        trace = self.trace
        if iid is not None:
            trace.executed_instruction_ids.add(iid)
        trace.steps += 1
        if trace.steps > self.options.max_steps:
            self._fault(FAULT_STEP_LIMIT, span, f"step limit {self.options.max_steps} exceeded")

    def _harvest(self) -> None:
        """Move the closures' branch counts into the trace."""
        outcomes = self.trace.branch_outcomes
        for keys, counts in self.branch_counters:
            for key, count in zip(keys, counts):
                if count:
                    outcomes[key] = outcomes.get(key, 0) + count

    # -- program start --------------------------------------------------------

    def run(self) -> RunTrace:
        # An SL call costs one Python frame per statement and operator
        # around the call, plus two: 3 for a bare call statement, 10 inside
        # for + switch + synchronized + if with three operators.  Allow 40
        # frames a call up to max_call_depth, so that the call-depth fault
        # fires first, but never more than the ceiling.
        wanted = min(self.options.max_call_depth * 40 + 1000, _RECURSION_CEILING)
        old_limit = sys.getrecursionlimit()
        if wanted > old_limit:
            sys.setrecursionlimit(wanted)
        try:
            self._run_static_initializers()
            entry_cls, entry_method = self._find_entry()
            args: list = []
            if entry_method.arity == 1:
                args = [self._new_array("String", 0)]
            # An entry of two or more parameters runs with them unbound.
            entry = self._compile_method(entry_cls.name, entry_method, len(args))
            entry(None, args, entry_method.span)
        except _Halt:
            pass
        except RecursionError:
            raise InterpreterError(
                "the program nests calls deeper than the host's recursion limit allows"
                f" before reaching max_call_depth {self.options.max_call_depth}"
            ) from None
        finally:
            if wanted > old_limit:
                sys.setrecursionlimit(old_limit)
        self._harvest()
        return self.trace

    def _run_static_initializers(self) -> None:
        for cls in self.unit.classes:
            inits = [f for f in cls.fields if f.static and f.initializer is not None]
            if not inits:
                continue
            self.trace.entered_methods.add(f"{cls.name}.<clinit>/0")
            for fld in inits:
                self._step(self.cfgs.stmt_iids.get(fld.uid), fld.span)
                value = self._expr(fld.initializer, _Scope())([None])
                coerce = self._coercer(fld.type)
                self.statics[(cls.name, fld.name)] = coerce(value, fld.span) if coerce else value

    def _find_entry(self) -> tuple[ast.ClassDecl, ast.MethodDecl]:
        wanted = self.options.entry
        candidates: list[tuple[ast.ClassDecl, ast.MethodDecl]] = []
        for cls in self.unit.classes:
            for method in cls.methods:
                if method.is_constructor:
                    continue
                full = f"{cls.name}.{method.name}"
                if wanted is None:
                    if method.name == "main" and method.is_static:
                        candidates.append((cls, method))
                elif full == wanted:
                    candidates.append((cls, method))
        if not candidates:
            raise EntryNotFoundError(
                f"entry {wanted or 'static main'} not found in {self.unit.file}"
            )
        if len(candidates) > 1:
            names = ", ".join(f"{c.name}.{m.name}" for c, m in candidates)
            raise EntryNotFoundError(f"ambiguous entry: {names}")
        cls, method = candidates[0]
        if not method.is_static:
            raise EntryNotFoundError(f"entry {cls.name}.{method.name} is not static")
        return cls, method

    # -- methods, dispatch and objects ------------------------------------------

    def _method(self, owner: str, decl: ast.MethodDecl) -> _Method:
        method = self.methods.get(decl.uid)
        if method is None:
            method = self.methods[decl.uid] = _Method()

            def first_call(receiver, args, span):
                method.call = self._compile_method(owner, decl, decl.arity)
                return method.call(receiver, args, span)

            method.call = first_call
        return method

    def _compile_method(self, owner: str, decl: ast.MethodDecl, bound: int):
        """The invocation closure of decl, with its first `bound` params
        bound to the arguments (every call site passes all of them)."""
        st = self
        ident = method_identity(owner, decl)
        enter = self.trace.entered_methods.add
        max_depth = self.options.max_call_depth
        too_deep = f"call depth {max_depth} exceeded (runaway recursion)"
        scope = _Scope()
        coercions = []
        for param in decl.params[:bound]:
            slot = scope.slots[0]
            scope.slots[0] += 1
            scope.names[param.name] = slot  # a repeated name binds the last one
            coerce = self._coercer(param.type)
            if coerce is not None:
                coercions.append((slot, coerce))
        body = self._stmts(decl.body, scope)
        pad = [None] * (scope.slots[0] - 1 - bound)
        cfg = self.cfgs.cfgs.get(ident)
        implicit_iid = cfg.implicit_return_iid if cfg is not None else None
        implicit_span = cfg.instr_spans.get(implicit_iid) if implicit_iid is not None else None

        def call(receiver, args, span):
            st.depth += 1
            if st.depth > max_depth:
                st._fault(FAULT_STEP_LIMIT, span, too_deep)
            enter(ident)
            f = [receiver, *args, *pad]
            for slot, coerce in coercions:
                f[slot] = coerce(f[slot], span)
            try:
                for stmt in body:
                    r = stmt(f)
                    if r is not None:
                        break
                else:
                    if implicit_iid is not None:
                        st._step(implicit_iid, implicit_span)
                    return None
            finally:
                st.depth -= 1
            return None if r is _NULL else r

        return call

    def _table(self, cls_name: str) -> dict[tuple[str, int], _Method]:
        """The virtual method table of a class: (name, arity) -> the
        nearest declaration along its base-class chain."""
        table = self.tables.get(cls_name)
        if table is None:
            table = {}
            for info in reversed(self.res.ancestors(cls_name)):
                for key, minfo in info.methods.items():
                    table[key] = self._method(minfo.owner, minfo.decl)
            self.tables[cls_name] = table
        return table

    def _thread_builtin(self, receiver: SLObject, name: str, args: list, span: SourceSpan):
        if name == "start":
            run = self._table(receiver.cls_name).get(("run", 0))
            return run.call(receiver, [], span) if run is not None else None
        if name == "run":
            return None
        if name in ("wait", "sleep"):
            return None
        if name == "getName":
            return receiver.cls_name
        raise InterpreterError(f"{span}: no method {name}/{len(args)} on {receiver.cls_name}")

    def _layout(self, class_name: str) -> list:
        """Per class of the chain, base first: (defaults, initialisers)."""
        layout = self.layouts.get(class_name)
        if layout is None:
            layout = []
            for info in reversed(self.res.ancestors(class_name)):
                fields = [fld for fld in info.decl.fields if not fld.static]
                defaults = {fld.name: default_value(fld.type) for fld in fields}
                inits = [
                    (fld.name, self._expr(fld.initializer, _Scope()), self._coercer(fld.type), fld.span)
                    for fld in fields if fld.initializer is not None
                ]
                layout.append((defaults, inits))
            self.layouts[class_name] = layout
        return layout

    def _instantiate(self, class_name: str, args: list, span: SourceSpan) -> SLObject:
        info = self.res.classes.get(class_name)
        if info is None:
            raise InterpreterError(f"unknown class {class_name}")
        self.ordinals += 1
        obj = SLObject(cls_name=class_name, fields={}, ordinal=self.ordinals)
        fields = obj.fields
        for defaults, inits in self._layout(class_name):
            fields.update(defaults)
            for name, init, coerce, fspan in inits:
                value = init([obj])
                fields[name] = coerce(value, fspan) if coerce else value
        ctor = info.ctors.get(len(args))
        if ctor is not None:
            self._method(ctor.owner, ctor.decl).call(obj, args, span)
        else:
            # implicit constructor: record its synthetic instruction
            cfg = self.cfgs.cfgs.get(f"{class_name}.<init>/0")
            if cfg is not None and cfg.synthetic:
                self.trace.entered_methods.add(cfg.method)
                for block in cfg.blocks:
                    for iid in block.instructions:
                        self._step(iid, cfg.instr_spans[iid])
        return obj

    # -- statements ---------------------------------------------------------------

    def _stmts(self, stmt: ast.Stmt, scope: _Scope) -> tuple:
        """The statement closures stmt runs: a block's own statements, in
        a scope of their own, or stmt alone."""
        if isinstance(stmt, ast.Block):
            return self._body(stmt.stmts, scope.child())
        return (self._stmt(stmt, scope),)

    def _body(self, stmts: list[ast.Stmt], scope: _Scope) -> tuple:
        return tuple(self._stmt(stmt, scope) for stmt in stmts)

    def _stmt(self, stmt: ast.Stmt, scope: _Scope):
        compile_stmt = self._STMTS.get(type(stmt))
        if compile_stmt is None:
            return _fails(f"unexecutable statement {type(stmt).__name__}")
        return compile_stmt(self, stmt, scope)

    def _s_block(self, stmt: ast.Block, scope: _Scope):
        return _sequence(self._stmts(stmt, scope))

    def _s_expr(self, stmt: ast.ExprStmt, scope: _Scope):
        step, span = self._step, stmt.span
        iid = self.cfgs.stmt_iids.get(stmt.uid)
        expr = self._expr(stmt.expr, scope)

        def run(f):
            step(iid, span)
            expr(f)

        return run

    def _s_local(self, stmt: ast.LocalDecl, scope: _Scope):
        step, span = self._step, stmt.span
        iid = self.cfgs.stmt_iids.get(stmt.uid)
        init = (
            self._expr(stmt.initializer, scope)
            if stmt.initializer is not None
            else _constant(default_value(stmt.type))
        )
        coerce = self._coercer(stmt.type)
        slot = scope.declare(stmt.name)

        def run(f):
            step(iid, span)
            value = init(f)
            f[slot] = coerce(value, span) if coerce else value

        return run

    def _s_return(self, stmt: ast.Return, scope: _Scope):
        step, span = self._step, stmt.span
        iid = self.cfgs.stmt_iids.get(stmt.uid)
        value = self._expr(stmt.value, scope) if stmt.value is not None else _constant(None)

        def run(f):
            step(iid, span)
            result = value(f)
            return _NULL if result is None else result

        return run

    def _decision(self, stmt: ast.Stmt):
        """The instruction id and the [true, false] branch counters of an
        if, while or for."""
        iid = self.cfgs.stmt_iids.get(stmt.uid)
        counts = [0, 0]  # true, false
        if iid is not None:
            self.branch_counters.append((((iid, _TRUE), (iid, _FALSE)), counts))
        return iid, counts

    def _s_if(self, stmt: ast.If, scope: _Scope):
        step, span = self._step, stmt.span
        iid, counts = self._decision(stmt)
        cond, cond_span, truthy = self._expr(stmt.cond, scope), stmt.cond.span, self._truthy
        then = self._stmts(stmt.then, scope)
        els = self._stmts(stmt.els, scope) if stmt.els is not None else ()
        passed = None
        if stmt.assert_origin is not None and self.options.assertions_enabled:
            origin, records = stmt.assert_origin, self.trace.assertion_records
            passed = (origin.unit_name, origin.statement_text, span, "", "passed")

        def run(f):
            step(iid, span)
            if truthy(cond(f), cond_span):
                counts[0] += 1
                branch = then
            else:
                counts[1] += 1
                if passed is not None:
                    records.append(AssertionRecord(*passed))
                branch = els
            for run_stmt in branch:
                r = run_stmt(f)
                if r is not None:
                    return r

        return run

    def _s_while(self, stmt: ast.While, scope: _Scope):
        return self._loop(stmt, scope, None, stmt.cond, None)

    def _s_for(self, stmt: ast.For, scope: _Scope):
        scope = scope.child()
        init = self._stmt(stmt.init, scope) if stmt.init is not None else None
        return self._loop(stmt, scope, init, stmt.cond, stmt.update)

    def _loop(self, stmt, scope: _Scope, init, cond: ast.Expr | None, update: ast.Expr | None):
        step, span, truthy = self._step, stmt.span, self._truthy
        iid, counts = self._decision(stmt)
        test = self._expr(cond, scope) if cond is not None else _constant(True)
        cond_span = cond.span if cond is not None else None
        body = self._stmts(stmt.body, scope)
        if update is not None:
            update_iid, update_span = self.cfgs.stmt_iids.get(update.uid), update.span
            update = self._expr(update, scope)

        def run(f):
            if init is not None:
                init(f)
            while True:
                step(iid, span)
                if not truthy(test(f), cond_span):
                    counts[1] += 1
                    return None
                counts[0] += 1
                for run_stmt in body:
                    r = run_stmt(f)
                    if r is not None:
                        return r
                if update is not None:
                    step(update_iid, update_span)
                    update(f)

        return run

    def _s_switch(self, stmt: ast.Switch, scope: _Scope):
        step, span = self._step, stmt.span
        iid = self.cfgs.stmt_iids.get(stmt.uid)
        subject = self._expr(stmt.subject, scope)
        arms = []  # (label, body, counter index) for labelled cases, in order
        keys = []
        default = None
        for i, case in enumerate(stmt.cases):
            body = self._body(case.body, scope.child())
            if case.label is None:
                default = (body, len(keys))
                keys.append((iid, "switch-case#default"))
            else:
                arms.append((self._expr(case.label, scope), body, len(keys)))
                keys.append((iid, f"switch-case#case{i}"))
        nomatch = len(keys)
        keys.append((iid, "switch-case#nomatch"))
        counts = [0] * len(keys)
        if iid is not None:
            self.branch_counters.append((tuple(keys), counts))

        def run(f):
            step(iid, span)
            value = subject(f)
            for label, body, k in arms:
                if label(f) == value:
                    break
            else:
                if default is None:
                    counts[nomatch] += 1
                    return None
                body, k = default
            counts[k] += 1
            for run_stmt in body:
                r = run_stmt(f)
                if r is not None:
                    return r

        return run

    def _s_try(self, stmt: ast.Try, scope: _Scope):
        # catches never execute: modeled faults halt the program
        body = self._stmts(stmt.body, scope)
        if stmt.finally_block is not None:
            body += self._stmts(stmt.finally_block, scope)
        return _sequence(body)

    def _s_assert(self, stmt: ast.Assert, scope: _Scope):
        st, step, span = self, self._step, stmt.span
        iid = self.cfgs.stmt_iids.get(stmt.uid)
        cond, cond_span = self._expr(stmt.condition, scope), stmt.condition.span
        message = self._expr(stmt.message, scope) if stmt.message is not None else None

        def run(f):
            step(iid, span)
            if not st._truthy(cond(f), cond_span):
                text = format_value(message(f)) if message is not None else ""
                st._fault(FAULT_ASSERTION_FAILURE, span, text)

        return run

    def _s_synchronized(self, stmt: ast.Synchronized, scope: _Scope):
        step, span = self._step, stmt.span
        iid = self.cfgs.stmt_iids.get(stmt.uid)
        monitor = self._expr(stmt.monitor, scope)
        body = self._stmts(stmt.body, scope)

        def run(f):
            step(iid, span)
            monitor(f)
            for run_stmt in body:
                r = run_stmt(f)
                if r is not None:
                    return r

        return run

    def _s_empty(self, stmt: ast.Empty, scope: _Scope):
        step, span = self._step, stmt.span
        iid = self.cfgs.stmt_iids.get(stmt.uid)
        return lambda f: step(iid, span)

    _STMTS = {
        ast.Block: _s_block,
        ast.ExprStmt: _s_expr,
        ast.LocalDecl: _s_local,
        ast.Return: _s_return,
        ast.If: _s_if,
        ast.While: _s_while,
        ast.For: _s_for,
        ast.Switch: _s_switch,
        ast.Try: _s_try,
        ast.Assert: _s_assert,
        ast.Synchronized: _s_synchronized,
        ast.Empty: _s_empty,
    }

    # -- values ----------------------------------------------------------------------

    def _truthy(self, value, span: SourceSpan) -> bool:
        if isinstance(value, bool):
            return value
        if isinstance(value, int):
            return value != 0
        raise InterpreterError(f"{span}: condition is not boolean")

    def _wrap_int(self, value: int, span: SourceSpan) -> int:
        if INT_MIN <= value <= INT_MAX:
            return value
        wrapped = ((value - INT_MIN) % (2**32)) + INT_MIN
        self._fault(
            FAULT_OVERFLOW_WARNING,
            span,
            f"32-bit result {value} wrapped to {wrapped}",
            halt=False,
        )
        return wrapped

    def _wrap_byte(self, value: int, span: SourceSpan) -> int:
        if BYTE_MIN <= value <= BYTE_MAX:
            return value
        wrapped = ((value - BYTE_MIN) % 256) + BYTE_MIN
        self._fault(
            FAULT_OVERFLOW_WARNING,
            span,
            f"8-bit result {value} wrapped to {wrapped}",
            halt=False,
        )
        return wrapped

    def _store_int(self, value, span: SourceSpan):
        return self._wrap_int(value, span) if value.__class__ is int else value

    def _store_byte(self, value, span: SourceSpan):
        return self._wrap_byte(value, span) if value.__class__ is int else value

    def _store_double(self, value, span: SourceSpan):
        return float(value) if value.__class__ is int else value

    def _coercer(self, type_ref: ast.TypeRef | None):
        """The conversion a store into a slot of this declared type makes
        (int and byte wrap, double widens), or None."""
        if type_ref is None or type_ref.dims > 0:
            return None
        coercers = {"int": self._store_int, "byte": self._store_byte, "double": self._store_double}
        return coercers.get(type_ref.base)

    def _new_array(self, elem_base: str, size: int) -> SLArray:
        self.ordinals += 1
        fill = {"int": 0, "byte": 0, "double": 0.0, "boolean": False}.get(elem_base)
        return SLArray(elem=elem_base, values=[fill] * size, ordinal=self.ordinals)

    # -- expressions -----------------------------------------------------------------

    def _expr(self, expr: ast.Expr, scope: _Scope):
        compile_expr = self._EXPRS.get(type(expr))
        if compile_expr is None:
            return _fails(f"unevaluable expression {type(expr).__name__}")
        return compile_expr(self, expr, scope)

    def _e_name(self, expr: ast.Name, scope: _Scope):
        if expr.identifier == "this":
            return itemgetter(0)
        sym = self.res.name_targets.get(expr.uid)
        if sym is None:
            return _fails(f"{expr.span}: unresolved name {expr.identifier}")
        if sym.is_builtin and sym.name == "ASSERTIONS_ENABLED":
            return _constant(self.options.assertions_enabled)
        if sym.kind in ("local", "param"):
            slot = scope.lookup(expr.identifier)
            if slot is None:
                return _fails(f"{expr.span}: variable {expr.identifier} not bound")
            return itemgetter(slot)
        if sym.kind == "field":
            if sym.static:
                get, key, default = self.statics.get, (sym.owner, sym.name), default_value_for(sym)
                return lambda f: get(key, default)
            name, missing = sym.name, f"{expr.span}: instance field {sym.name} without receiver"

            def load(f):
                receiver = f[0]
                if receiver is None:
                    raise InterpreterError(missing)
                return receiver.fields.get(name)

            return load
        if sym.kind == "class":
            return _fails(f"{expr.span}: class name {sym.name} used as a value")
        return _fails(f"{expr.span}: cannot load {sym.kind} {sym.name}")

    def _e_unary(self, expr: ast.Unary, scope: _Scope):
        operand, span = self._expr(expr.operand, scope), expr.span
        if expr.op == "!":
            truthy = self._truthy

            return lambda f: not truthy(operand(f), span)
        wrap_int = self._wrap_int

        def negate(f):
            value = operand(f)
            if value.__class__ is float:
                return -value
            return wrap_int(-value, span)

        return negate

    def _e_index(self, expr: ast.Index, scope: _Scope):
        array, index = self._expr(expr.array, scope), self._expr(expr.index, scope)
        span, checked = expr.span, self._array_get

        return lambda f: checked(array(f), index(f), span)

    def _array_get(self, array, index, span: SourceSpan):
        if array is None:
            self._fault(FAULT_NULL_DEREFERENCE, span, "indexing a null array")
        if not isinstance(array, SLArray):
            raise InterpreterError(f"{span}: indexing non-array {format_value(array)}")
        if not isinstance(index, int) or isinstance(index, bool):
            raise InterpreterError(f"{span}: index {index!r} is not an int")
        if index < 0 or index >= len(array.values):
            self._fault(
                FAULT_OUT_OF_BOUNDS,
                span,
                f"index {index} outside [0, {len(array.values) - 1}]",
            )
        return array.values[index]

    def _e_field(self, expr: ast.FieldAccess, scope: _Scope):
        sym = self.res.field_targets.get(expr.uid)
        if sym is not None and sym.static:
            get, key, default = self.statics.get, (sym.owner, sym.name), default_value_for(sym)
            return self._static_access(expr.receiver, scope, lambda f: get(key, default))
        st, receiver, name, span = self, self._expr(expr.receiver, scope), expr.name, expr.span

        def run(f):
            obj = receiver(f)
            if obj.__class__ is not SLObject:
                if obj is None:
                    st._fault(FAULT_NULL_DEREFERENCE, span, f"field '{name}' of null")
                raise InterpreterError(f"{span}: field access on {format_value(obj)}")
            return obj.fields.get(name)

        return run

    def _e_new_array(self, expr: ast.NewArray, scope: _Scope):
        st, size_of = self, self._expr(expr.size_expr, scope)
        span, elem = expr.span, expr.elem_type.base

        def run(f):
            size = size_of(f)
            if not isinstance(size, int) or isinstance(size, bool) or size < 0:
                raise InterpreterError(f"{span}: bad array size {size!r}")
            return st._new_array(elem, size)

        return run

    def _e_new(self, expr: ast.New, scope: _Scope):
        args, name, span = self._args(expr.args, scope), expr.class_name, expr.span
        instantiate = self._instantiate
        return lambda f: instantiate(name, args(f), span)

    def _args(self, exprs: list[ast.Expr], scope: _Scope):
        return _args([self._expr(e, scope) for e in exprs])

    # -- operators -------------------------------------------------------------------

    def _e_binary(self, expr: ast.Binary, scope: _Scope):
        op = expr.op
        if op == "=":
            return self._assign(expr, scope)
        left, right, span = self._expr(expr.left, scope), self._expr(expr.right, scope), expr.span
        truthy = self._truthy
        if op in ("&&", "||"):
            left_span, right_span, short = expr.left.span, expr.right.span, op == "||"

            def logical(f):
                if truthy(left(f), left_span) is short:
                    return short
                return truthy(right(f), right_span)

            return logical
        if op in _INT_OPS:
            fast, slow, wrap_int = _INT_OPS[op], self._arith, self._wrap_int

            def arith(f):
                a = left(f)
                b = right(f)
                if a.__class__ is int and b.__class__ is int:
                    result = fast(a, b)
                    if result is not None:
                        if INT_MIN <= result <= INT_MAX:
                            return result
                        return wrap_int(result, span)
                return slow(op, a, b, span)

            return arith
        if op in _COMPARE_OPS:
            compare, message = _COMPARE_OPS[op], f"{span}: comparing non-numbers"

            def comparison(f):
                a = left(f)
                b = right(f)
                if a.__class__ in _NUMBERS and b.__class__ in _NUMBERS:
                    return compare(a, b)
                raise InterpreterError(message)

            return comparison
        if op in ("==", "!="):
            negate = op == "!="

            def equality(f):
                a = left(f)
                b = right(f)
                if a.__class__ in _REFERENCES or b.__class__ in _REFERENCES:
                    return (a is b) is not negate
                return (a == b) is not negate

            return equality
        return _fails(f"{span}: unknown operator {op}", left, right)

    def _arith(self, op: str, left, right, span: SourceSpan):
        if op == "+" and (isinstance(left, str) or isinstance(right, str)):
            return format_value(left) + format_value(right)
        if isinstance(left, bool) or isinstance(right, bool):
            raise InterpreterError(f"{span}: arithmetic on booleans")
        if left is None or right is None:
            self._fault(FAULT_NULL_DEREFERENCE, span, "arithmetic on null")
        if isinstance(left, float) or isinstance(right, float):
            a, b = float(left), float(right)
            if op == "+":
                return a + b
            if op == "-":
                return a - b
            if op == "*":
                return a * b
            if op == "/":
                if b == 0.0:
                    if a == 0.0:
                        return float("nan")
                    return float("inf") if a > 0 else float("-inf")
                return a / b
            if b == 0.0:
                return float("nan")
            return math.fmod(a, b)
        a, b = left, right
        if op == "+":
            return self._wrap_int(a + b, span)
        if op == "-":
            return self._wrap_int(a - b, span)
        if op == "*":
            return self._wrap_int(a * b, span)
        if b == 0:
            raise InterpreterError(f"{span}: integer division by zero")
        quotient = abs(a) // abs(b)
        if (a < 0) != (b < 0):
            quotient = -quotient
        if op == "/":
            return self._wrap_int(quotient, span)
        return self._wrap_int(a - quotient * b, span)

    def _assign(self, expr: ast.Binary, scope: _Scope):
        st, value_of, target, span = self, self._expr(expr.right, scope), expr.left, expr.left.span
        if isinstance(target, ast.Name):
            sym = self.res.name_targets.get(target.uid)
            if sym is None:
                return _fails(f"{span}: unresolved store {target.identifier}", value_of)
            if sym.kind not in ("local", "param", "field"):
                return _fails(f"{span}: cannot assign to {sym.kind}", value_of)
            coerce = self._coercer(_type_ref_of(sym))
            if sym.kind == "field":
                return self._assign_field(sym, value_of, coerce, span)
            slot = scope.lookup(target.identifier)
            if slot is None:
                return _fails(f"{span}: variable {target.identifier} not bound", value_of)

            def store_local(f):
                value = value_of(f)
                f[slot] = coerce(value, span) if coerce else value
                return value

            return store_local
        if isinstance(target, ast.Index):
            array_of, index_of = self._expr(target.array, scope), self._expr(target.index, scope)
            coercers = {base: self._coercer(ast.TypeRef(base)) for base in ("int", "byte", "double")}

            def store_element(f):
                value = value_of(f)
                array = array_of(f)
                index = index_of(f)
                if array is None:
                    st._fault(FAULT_NULL_DEREFERENCE, span, "storing into a null array")
                if not isinstance(array, SLArray):
                    raise InterpreterError(f"{span}: indexing non-array")
                if index.__class__ is not int:
                    raise InterpreterError(f"{span}: index is not an int")
                values = array.values
                if index < 0 or index >= len(values):
                    st._fault(
                        FAULT_OUT_OF_BOUNDS, span, f"index {index} outside [0, {len(values) - 1}]"
                    )
                coerce = coercers.get(array.elem)
                values[index] = coerce(value, span) if coerce else value
                return value

            return store_element
        if isinstance(target, ast.FieldAccess):
            sym = self.res.field_targets.get(target.uid)
            coerce = self._coercer(_type_ref_of(sym)) if sym else None
            if sym is not None and sym.static:
                store = self._assign_field(sym, value_of, coerce, span)
                return self._static_access(target.receiver, scope, store)
            receiver_of, name = self._expr(target.receiver, scope), target.name

            def store_field(f):
                value = value_of(f)
                receiver = receiver_of(f)
                if receiver is None:
                    st._fault(FAULT_NULL_DEREFERENCE, span, f"field '{name}' of null")
                if not isinstance(receiver, SLObject):
                    raise InterpreterError(f"{span}: field store on non-object")
                receiver.fields[name] = coerce(value, span) if coerce else value
                return value

            return store_field
        return _fails(f"{span}: bad assignment target", value_of)

    def _static_access(self, receiver: ast.Expr, scope: _Scope, access):
        """access to a static field, after its receiver has run for its
        effects; a class name is not a value and does not run."""
        if isinstance(receiver, ast.Name):
            sym = self.res.name_targets.get(receiver.uid)
            if sym is not None and sym.kind == "class":
                return access
        receiver_of = self._expr(receiver, scope)

        def run(f):
            receiver_of(f)
            return access(f)

        return run

    def _assign_field(self, sym, value_of, coerce, span: SourceSpan):
        if sym.static:
            statics, key = self.statics, (sym.owner, sym.name)

            def store_static(f):
                value = value_of(f)
                statics[key] = coerce(value, span) if coerce else value
                return value

            return store_static
        name, missing = sym.name, f"{span}: instance store without receiver"

        def store_member(f):
            value = value_of(f)
            coerced = coerce(value, span) if coerce else value
            if f[0] is None:
                raise InterpreterError(missing)
            f[0].fields[name] = coerced
            return value

        return store_member

    # -- calls --------------------------------------------------------------------------

    def _e_call(self, expr: ast.Call, scope: _Scope):
        st, span, name = self, expr.span, expr.name
        target = self.res.call_targets.get(expr.uid)
        if target is None or target.kind == "unknown":
            return _fails(f"{span}: call to unresolved {name}()")
        if target.kind == "builtin":
            return self._builtin(expr, target.id.split(":", 1)[1], scope)
        minfo = target.method
        args = self._args(expr.args, scope)
        explicit = expr.receiver is not None
        if not explicit and minfo.decl.is_static:
            method = self._method(minfo.owner, minfo.decl)
            return lambda f: method.call(None, args(f), span)
        # Virtual dispatch on the receiver, or on this for an unqualified call.
        receiver_of = self._expr(expr.receiver, scope) if explicit else itemgetter(0)
        key, table = (name, len(expr.args)), self._table
        missing = f"{span}: instance method {name}() called without a receiver"

        def call_virtual(f):
            values = args(f)
            receiver = receiver_of(f)
            if receiver.__class__ is not SLObject:
                if receiver is not None:
                    raise InterpreterError(f"{span}: method call on {format_value(receiver)}")
                if explicit:
                    st._fault(FAULT_NULL_DEREFERENCE, span, f"{name}() on null")
                raise InterpreterError(missing)
            method = table(receiver.cls_name).get(key)
            if method is None:  # builtin Thread methods reached dynamically
                return st._thread_builtin(receiver, name, values, span)
            return method.call(receiver, values, span)

        return call_virtual

    def _builtin(self, expr: ast.Call, name: str, scope: _Scope):
        st, span = self, expr.span
        args = self._args(expr.args, scope)
        receiver_of = self._expr(expr.receiver, scope) if expr.receiver is not None else None
        if name.startswith("Thread."):
            method = name.split(".", 1)[1]

            def thread_call(f):
                if receiver_of is not None:
                    receiver = receiver_of(f)
                    if receiver is None:
                        st._fault(FAULT_NULL_DEREFERENCE, span, f"{method}() on null")
                else:
                    receiver = f[0]
                values = args(f)
                if isinstance(receiver, SLObject):
                    return st._thread_builtin(receiver, method, values, span)
                return None

            return thread_call
        if name.startswith("Stream."):
            method = name.split(".", 1)[1]

            def stream_call(f):
                receiver = receiver_of(f) if receiver_of is not None else None
                values = args(f)
                if receiver is None:
                    st._fault(FAULT_NULL_DEREFERENCE, span, f"{method}() on a null stream")
                if not isinstance(receiver, SLStream):
                    raise InterpreterError(f"{span}: {method}() on non-stream")
                if method == "close":
                    receiver.closed = True
                    return None
                buf, off, length = values
                return st._stream_read(receiver, buf, off, length, span)

            return stream_call
        return lambda f: st._call_function(name, args(f), span)

    def _call_function(self, name: str, args: list, span: SourceSpan):
        if name == "println":
            self.trace.stdout.append(format_value(args[0]))
            return None
        if name == "readLine":
            if self.stdin_pos < len(self.stdin):
                line = self.stdin[self.stdin_pos]
                self.stdin_pos += 1
                return line
            return None
        if name == "parseInt":
            text = args[0]
            if text is None:
                self._fault(FAULT_NULL_DEREFERENCE, span, "parseInt(null)")
            try:
                return self._wrap_int(int(str(text).strip()), span)
            except ValueError:
                raise InterpreterError(f"{span}: parseInt({text!r}) is not a number")
        if name == "length":
            text = args[0]
            if text is None:
                self._fault(FAULT_NULL_DEREFERENCE, span, "length(null)")
            return len(text)
        if name == "open":
            path = args[0]
            if path is None:
                self._fault(FAULT_NULL_DEREFERENCE, span, "open(null)")
            stub = self.options.file_system_stub or {}
            if path not in stub:
                return None
            self.ordinals += 1
            data = stub[path]
            return SLStream(
                name=path,
                data=data.encode() if isinstance(data, str) else bytes(data),
                ordinal=self.ordinals,
            )
        if name == "exists":
            path = args[0]
            if path is None:
                self._fault(FAULT_NULL_DEREFERENCE, span, "exists(null)")
            return path in (self.options.file_system_stub or {})
        if name == "random":
            return self.rng.random()
        if name == "fail":
            unit_name, stmt_text, message = args
            record = AssertionRecord(
                unit_name=str(unit_name),
                statement_text=str(stmt_text),
                span=span,
                message=format_value(message),
                outcome="failed",
            )
            if self.options.assertions_enabled:
                self.trace.assertion_records.append(record)
            self._fault(FAULT_ASSERTION_FAILURE, span, format_value(message))
        raise InterpreterError(f"{span}: unknown builtin {name}")

    def _stream_read(self, stream: SLStream, buf, off, length, span: SourceSpan):
        if buf is None:
            self._fault(FAULT_NULL_DEREFERENCE, span, "read() into a null buffer")
        if not isinstance(buf, SLArray):
            raise InterpreterError(f"{span}: read() buffer is not an array")
        if stream.closed:
            raise InterpreterError(f"{span}: read() on a closed stream")
        if off < 0 or length < 0 or off + length > len(buf.values):
            self._fault(
                FAULT_OUT_OF_BOUNDS,
                span,
                f"read() window [{off}, {off + length}) outside [0, {len(buf.values)})",
            )
        remaining = len(stream.data) - stream.pos
        if remaining <= 0:
            return -1
        count = min(length, remaining)
        for i in range(count):
            raw = stream.data[stream.pos + i]
            buf.values[off + i] = ((raw - BYTE_MIN) % 256) + BYTE_MIN
        stream.pos += count
        return count

    _EXPRS = {
        ast.Literal: lambda self, expr, scope: _constant(expr.value),
        ast.Null: lambda self, expr, scope: _constant(None),
        ast.Name: _e_name,
        ast.Unary: _e_unary,
        ast.Binary: _e_binary,
        ast.Index: _e_index,
        ast.FieldAccess: _e_field,
        ast.NewArray: _e_new_array,
        ast.New: _e_new,
        ast.Call: _e_call,
    }


def _int_div(a: int, b: int) -> int | None:
    return a // b if a >= 0 and b > 0 else None


def _int_mod(a: int, b: int) -> int | None:
    return a % b if a >= 0 and b > 0 else None


# Integer fast paths, which skip Interpreter._arith's type tests (about 15 %
# of the interp benchmark's throughput): None defers to _arith (division
# with a negative operand or by zero).
_INT_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": _int_div, "%": _int_mod}
_COMPARE_OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def _type_ref_of(sym) -> ast.TypeRef | None:
    t = sym.declared_type
    dims = 0
    while isinstance(t, ty.ArrayType):
        dims += 1
        t = t.elem
    if isinstance(t, ty.PrimType):
        return ast.TypeRef(t.name, dims)
    if isinstance(t, ty.StringType):
        return ast.TypeRef("String", dims)
    if isinstance(t, ty.ClassType):
        return ast.TypeRef(t.name, dims)
    return None


def default_value_for(sym) -> object:
    ref = _type_ref_of(sym)
    return default_value(ref) if ref is not None else None


def execute(
    unit: ast.CompilationUnit,
    options: RunOptions | None = None,
    resolution: Resolution | None = None,
    cfgs: UnitCfgs | None = None,
) -> RunTrace:
    """Run a resolved (and, for assertion checking, instrumented) unit."""
    options = options or RunOptions()
    if resolution is None:
        resolution = build_symbol_table(unit)
    if cfgs is None:
        cfgs = build_unit_cfgs(unit)
    return Interpreter(unit, options, resolution, cfgs).run()

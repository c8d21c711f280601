"""Closure-compiling interpreter with execution tracing.

Each method body is compiled, on its first invocation within one `execute`
call, into nested Python closures (Feeley & Lapalme, "Using Closures for
Code Generation", 1987).  Compilation binds, once, what would otherwise be
looked up on every step: each statement's instruction id and branch keys,
each name's frame slot or field, each call's target, each operator's code
and each store's conversion.  Locals and parameters live in a per-invocation
list, built by the caller as [receiver, arg...] and padded by the callee
at the slots the resolver numbered.
Operands run in Java's order: the receiver, or the array and then the
index, before the arguments or the right-hand side, and the null and bounds
checks after all of them.

Only a unit the resolver accepted runs, and every value an expression
yields inhabits the type the resolver gave it (tests/test_soundness.py
checks this over every golden run).  So the compiled code has no guard
against a type error: every name, field and call has its target, every
condition is a bool, every operand of an arithmetic or comparison operator
a number, every indexed value an array or null and every index an int.
The types also choose, at compile time, what the values would otherwise
be tested for at run time:

- Each store, initializer, return and argument converts its value where
  its type and the slot's differ, and nowhere else (_converted): an int or
  byte into a double widens, and an int into a byte wraps.  The conversion
  runs as the value is computed, where Java's cast would run.  Arguments convert at the call
  site, with the resolved method's parameter types, which every override
  keeps (the resolver rejects one that does not).
- An arithmetic operator takes its int or double code from its own type,
  and == and != compare by identity where either operand is an object or an
  array, and by value otherwise.
- A non-void method that reaches its end halts with a missing_return
  fault, where it would otherwise return null in place of its value.  An
  assignment yields the value it stored.

Compilation also drops each per-step check that cannot fire:

- Statement closures take their step inline (count, check max_steps) and
  mark their instruction id on their first run only; _step serves only
  static initializers, implicit returns and implicit constructors.
- An int literal condition, if (1), folds to its truth.
- An operator reads a local or parameter operand from its slot and binds
  a literal one in; + on a String-typed expression compiles to
  concatenation.
- A condition, a store into a local, a return and the argument of a
  one-argument static call compute an operator over slots, literals and
  calls themselves, with the int range check inline (_read).
- A static call with two arguments lists them in its own closure.
- A branch or method body of one statement runs without a loop, and a
  frame is padded only for a method with locals.
- A method is recorded as entered by the call that compiles it.

Executing a simple statement or a branching condition records its
instruction id (and the branch outcome for decisions) into the RunTrace.
Runtime faults (out-of-bounds access, null dereference, assertion failure,
missing return, step limit, and the run-time errors Java throws for an
integer division by zero, a negative array size, a malformed parseInt
and a read after close) halt the run and are recorded; fixed-width
integer overflow is recorded as a warning and execution continues with the
wrapped value.  Double arithmetic follows IEEE 754, as Java's does.

A statement closure returns None to fall through and anything else to
return from the method: the returned value, or _NULL for a null/void result.
"""

from __future__ import annotations

import math
import operator
import random as _random
import re
import sys
from decimal import Decimal
from operator import itemgetter

from ..records import field, record
from ..errors import EntryNotFoundError
from ..frontend import ast
from ..frontend.lexer import SourceSpan
from ..frontend.printer import expr_text
from ..semantics import types as ty
from ..semantics.types import INT_MAX, INT_MIN
from ..semantics.resolver import Builtin, Resolution, param_types
from ..cfg import FALSE_BRANCH, NO_MATCH, SWITCH_CASE, TRUE_BRANCH, UnitCfgs
from ..cfg import assert_failure, branch_key, case_label, clinit_id, default_ctor_id, method_identity

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
FAULT_MISSING_RETURN = "missing_return"
# Java's ArithmeticException, NegativeArraySizeException,
# NumberFormatException and the IOException of a read after close.
FAULT_ARITHMETIC = "arithmetic_error"
FAULT_NEGATIVE_ARRAY_SIZE = "negative_array_size"
FAULT_NUMBER_FORMAT = "number_format"
FAULT_CLOSED_STREAM = "closed_stream"


@record
class RunOptions:
    entry: str | None = None  # "Class.method"; default: the unique static main
    assertions_enabled: bool = False
    coverage_enabled: bool = False
    stdin_script: list[str] | None = None
    file_system_stub: dict[str, str] | None = None
    max_steps: int = 1_000_000
    max_call_depth: int = 160
    seed: int = 0


@record
class Fault:
    kind: str
    span: SourceSpan | None
    detail: str


@record
class AssertionRecord:
    unit_name: str
    statement_text: str
    span: SourceSpan | None
    message: str
    outcome: str  # passed | failed


@record
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


@record
class SLObject:
    cls_name: str
    fields: dict[int, object]  # field declaration uid -> value
    ordinal: int


@record
class SLArray:
    elem: str  # element base type name
    values: list
    ordinal: int

    def __len__(self) -> int:
        return len(self.values)


@record
class SLStream:
    name: str
    data: bytes
    pos: int = 0
    closed: bool = False
    ordinal: int = 0


_NULL = object()  # a statement's "return null/void" signal


def format_value(value) -> str:
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, float):
        return _double_text(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return value
    if isinstance(value, SLObject):
        return f"{value.cls_name}#{value.ordinal}"
    if isinstance(value, SLArray):
        return f"{value.elem}[{len(value.values)}]#{value.ordinal}"
    return f"Stream({value.name})#{value.ordinal}"  # an SLStream


def _double_text(value: float) -> str:
    """value as Java's Double.toString prints it, in the shortest digits
    that read back as value (repr's): in plain decimal, with a fractional
    digit, from 1e-3 up to 1e7, where repr prints that way too, and as
    d.dddE±n elsewhere."""
    if value != value:
        return "NaN"
    if value in (math.inf, -math.inf):
        return "Infinity" if value > 0 else "-Infinity"
    if not value or 1e-3 <= abs(value) < 1e7:
        return repr(value)
    sign, digits, exponent = Decimal(repr(value)).normalize().as_tuple()
    fraction = "".join(map(str, digits[1:])) or "0"
    return f"{'-' * sign}{digits[0]}.{fraction}E{len(digits) + exponent - 1}"


# The text Integer.parseInt accepts, before its range check.
_INT_TEXT = re.compile(r"[+-]?[0-9]+")

# The value a variable, field or array element of a type starts with.
_DEFAULTS = {ty.INT: 0, ty.BYTE: 0, ty.DOUBLE: 0.0, ty.BOOLEAN: False}


def _constant(value):
    return lambda f: value


def _arguments(fns: list):
    """A closure building a callee's frame from its arguments' closures:
    None in slot 0, which the caller fills with the receiver, then the
    arguments' values, left to right.  Up to two arguments skip the
    comprehension's own frame."""
    if not fns:
        return lambda f: [None]
    if len(fns) == 1:
        (a,) = fns
        return lambda f: [None, a(f)]
    if len(fns) == 2:
        a, b = fns
        return lambda f: [None, a(f), b(f)]
    return lambda f: [None, *[fn(f) for fn in fns]]


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


def _branch(stmts: tuple) -> tuple:
    """(stmts' one closure, or None, stmts): one statement runs unlooped."""
    return (stmts[0] if len(stmts) == 1 else None), stmts


def _calls(value) -> tuple:
    """_read's form of a value a statement calls its closure for."""
    return False, None, value, None, False, None


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
        self.layouts: dict[str, tuple] = {}  # class -> (field defaults, initialisers)
        # (branch keys, their counts) per decision; the closures count.
        self.branch_counters: list[tuple[tuple, list[int]]] = []

    # -- trace plumbing ------------------------------------------------------

    def _fault(self, kind: str, span: SourceSpan | None, detail: str, halt: bool = True):
        self.trace.faults.append(Fault(kind, span, detail))
        if halt:
            raise _Halt()

    def _step(self, iid: int, span: SourceSpan | None) -> None:
        """A cold step: one executed instruction, checked against
        max_steps.  Statement closures take their steps inline instead."""
        trace = self.trace
        trace.executed_instruction_ids.add(iid)
        trace.steps += 1
        if trace.steps > self.options.max_steps:
            self._step_limit(span)

    def _step_limit(self, span: SourceSpan | None) -> None:
        self._fault(FAULT_STEP_LIMIT, span, f"step limit {self.options.max_steps} exceeded")

    def _instruction(self, stmt: ast.Node):
        """stmt's instruction id, a list that holds it until stmt first
        runs, and the call that marks it executed."""
        iid = self.cfgs.stmt_iids[stmt.uid]
        return iid, [iid], self.trace.executed_instruction_ids.add

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
            frame = [None, self._new_array(ty.STRING, 0)] if entry_method.params else [None]
            self._method(entry_cls.name, entry_method).call(frame, entry_method.span)
        except _Halt:
            pass
        except RecursionError:
            self._fault(
                FAULT_STEP_LIMIT,
                None,
                "the program nests calls deeper than the host's recursion limit allows"
                f" before reaching max_call_depth {self.options.max_call_depth}",
                halt=False,
            )
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
            self.trace.entered_methods.add(clinit_id(cls.name))
            for fld in inits:
                self._step(self.cfgs.stmt_iids[fld.uid], fld.span)
                t = self.res.decl_symbols[fld.uid].declared_type
                self.statics[(cls.name, fld.name)] = self._converted(fld.initializer, t, fld.span)([None])

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
        params = param_types(method)
        if params not in ([], [ty.ArrayType(ty.STRING)]):
            shown = ", ".join(map(str, params))
            raise EntryNotFoundError(
                f"entry {cls.name}.{method.name}({shown}) must take no parameters or one String[]"
            )
        return cls, method

    # -- methods, dispatch and objects ------------------------------------------

    def _method(self, owner: str, decl: ast.MethodDecl) -> _Method:
        method = self.methods.get(decl.uid)
        if method is None:
            method = self.methods[decl.uid] = _Method()

            def first_call(frame, span):
                # A call in the arguments of another, f(f(x)), compiles f
                # before the outer call, which had already read first_call.
                # The method is entered once, by the first call that passes
                # the call-depth check.
                if method.call is first_call:
                    method.call = self._compile_method(owner, decl)
                    if self.depth < self.options.max_call_depth:
                        self.trace.entered_methods.add(method_identity(owner, decl))
                return method.call(frame, span)

            method.call = first_call
        return method

    def _compile_method(self, owner: str, decl: ast.MethodDecl):
        """The invocation closure of decl.  Every call builds its frame,
        [receiver, arg...], with each argument already converted to its
        parameter's type; the closure pads it with the locals' slots."""
        st = self
        ident = method_identity(owner, decl)
        max_depth = self.options.max_call_depth
        too_deep = f"call depth {max_depth} exceeded (runaway recursion)"
        one, body = _branch(self._stmts(decl.body))
        pad = [None] * (self.res.frame_sizes[decl.uid] - 1 - decl.arity)
        cfg = self.cfgs.cfgs[ident]
        implicit_iid = cfg.implicit_return_iid
        implicit_span = cfg.instr_spans.get(implicit_iid)
        # A non-void method that reaches its end has no value to return.
        returns_value = ty.from_type_ref(decl.return_type) != ty.VOID_T
        missing = f"{ident} reached its end without returning a value"

        def call(f, span):
            st.depth += 1
            if st.depth > max_depth:
                st._fault(FAULT_STEP_LIMIT, span, too_deep)
            if pad:
                f += pad
            try:
                if one is not None:
                    r = one(f)
                else:
                    r = None
                    for stmt in body:
                        r = stmt(f)
                        if r is not None:
                            break
                if r is None:
                    if implicit_iid is not None:
                        st._step(implicit_iid, implicit_span)
                    if returns_value:
                        st._fault(FAULT_MISSING_RETURN, implicit_span or decl.span, missing)
                    return None
            finally:
                st.depth -= 1
            return None if r is _NULL else r

        return call

    def _table(self, cls_name: str) -> dict[tuple[str, int], _Method]:
        """The virtual method table of a class: its resolved dispatch
        table, (name, arity) -> the nearest declaration, compiled."""
        table = self.tables.get(cls_name)
        if table is None:
            dispatch = self.res.classes[cls_name].dispatch.items()
            table = self.tables[cls_name] = {key: self._method(m.owner, m.decl) for key, m in dispatch}
        return table

    def _layout(self, class_name: str) -> tuple:
        """(defaults, initialisers) of a class's instance fields: the
        defaults of the whole chain, and the initialisers base first."""
        layout = self.layouts.get(class_name)
        if layout is None:
            defaults, inits = {}, []
            for info in reversed(self.res.ancestors(class_name)):
                fields = [
                    (fld, self.res.decl_symbols[fld.uid].declared_type)
                    for fld in info.decl.fields if not fld.static
                ]
                defaults.update((fld.uid, _DEFAULTS.get(t)) for fld, t in fields)
                inits += [
                    (fld.uid, self._converted(fld.initializer, t, fld.span))
                    for fld, t in fields if fld.initializer is not None
                ]
            layout = self.layouts[class_name] = (defaults, inits)
        return layout

    def _instantiate(self, class_name: str, frame: list, span: SourceSpan) -> SLObject:
        info = self.res.classes[class_name]
        self.ordinals += 1
        defaults, inits = self._layout(class_name)
        # Every field holds its default before any initialiser runs (JLS
        # 12.5), so a base initialiser calling an override sees them all.
        obj = SLObject(cls_name=class_name, fields=dict(defaults), ordinal=self.ordinals)
        fields = obj.fields
        for key, init in inits:
            fields[key] = init([obj])
        ctor = info.ctors.get(len(frame) - 1)
        if ctor is not None:
            frame[0] = obj
            self._method(ctor.owner, ctor.decl).call(frame, span)
        else:
            # the implicit constructor: record its synthetic instruction
            cfg = self.cfgs.cfgs[default_ctor_id(class_name)]
            self.trace.entered_methods.add(cfg.method)
            for iid, span in cfg.instr_spans.items():
                self._step(iid, span)
        return obj

    # -- statements ---------------------------------------------------------------

    def _stmts(self, stmt: ast.Stmt) -> tuple:
        """The statement closures stmt runs: a block's own statements, or
        stmt alone."""
        if isinstance(stmt, ast.Block):
            return tuple(map(self._stmt, stmt.stmts))
        return (self._stmt(stmt),)

    def _stmt(self, stmt: ast.Stmt):
        return self._STMTS[type(stmt)](self, stmt)

    def _s_block(self, stmt: ast.Block):
        return _sequence(self._stmts(stmt))

    # Each statement closure takes its step inline, as _step does: it marks
    # its instruction id on its first run (the id waits in a list until
    # then), counts the step and faults past max_steps.

    def _s_expr(self, stmt: ast.ExprStmt):
        return self._effect(stmt, stmt.expr)

    def _effect(self, node: ast.Node, expr: ast.Expr):
        """The closure of an expression statement or a for update (node); a
        store into a local reads its value as an initializer does."""
        if isinstance(expr, ast.Binary) and expr.op == "=" and (local := self._kind(expr.left))[0] == "S":
            target = expr.left
            return self._simple(node, self._read(expr.right, self.res.types[target.uid], target.span), local[1])
        return self._simple(node, _calls(self._expr(expr)))

    def _s_local(self, stmt: ast.LocalDecl):
        sym = self.res.decl_symbols[stmt.uid]
        if stmt.initializer is None:
            return self._simple(stmt, _calls(_constant(_DEFAULTS.get(sym.declared_type))), sym.slot)
        return self._simple(stmt, self._read(stmt.initializer, sym.declared_type, stmt.span), sym.slot)

    def _s_return(self, stmt: ast.Return):
        returns = ty.from_type_ref(self.res.method_of(stmt).return_type)
        read = self._read(stmt.value, returns, stmt.span) if stmt.value is not None else _calls(_constant(None))
        return self._simple(stmt, read, returns=True)

    def _simple(self, node: ast.Node, read: tuple, slot: int | None = None, returns: bool = False):
        """The closure of a statement that reads one value, as _read
        returns it, and returns it, stores it into a local's slot, or
        neither (an expression run for its effect, or an empty statement)."""
        st, trace, limit, span = self, self.trace, self.options.max_steps, node.span
        _, unmarked, mark = self._instruction(node)
        slots, fn, a, b, sb, w = read

        def run(f):
            if unmarked:
                mark(unmarked.pop())
            trace.steps += 1
            if trace.steps > limit:
                st._step_limit(span)
            v = fn(f[a], f[b] if sb else b) if slots else fn(a(f), b(f)) if fn else a(f)
            if w is not None and not INT_MIN <= v <= INT_MAX:
                v = w(v)
            if returns:
                return _NULL if v is None else v
            if slot is not None:
                f[slot] = v

        return run

    def _decision(self, stmt: ast.Stmt):
        """_instruction's triple and the [true, false] branch counters of an
        if, while, for or assert."""
        iid, unmarked, mark = self._instruction(stmt)
        counts = [0, 0]  # true, false
        self.branch_counters.append((((iid, TRUE_BRANCH), (iid, FALSE_BRANCH)), counts))
        return iid, unmarked, mark, counts

    def _s_if(self, stmt: ast.If):
        st, trace, limit, span = self, self.trace, self.options.max_steps, stmt.span
        _, unmarked, mark, counts = self._decision(stmt)
        slots, fn, a, b, sb, _ = self._condition(stmt.cond)
        then = _branch(self._stmts(stmt.then))
        els = _branch(self._stmts(stmt.els) if stmt.els is not None else ())

        def run(f):
            if unmarked:
                mark(unmarked.pop())
            trace.steps += 1
            if trace.steps > limit:
                st._step_limit(span)
            if fn(f[a], f[b] if sb else b) if slots else fn(a(f), b(f)) if fn else a(f):
                counts[0] += 1
                one, branch = then
            else:
                counts[1] += 1
                one, branch = els
            if one is not None:
                return one(f)
            for run_stmt in branch:
                r = run_stmt(f)
                if r is not None:
                    return r

        return run

    def _s_while(self, stmt: ast.While):
        return self._loop(stmt, None, stmt.cond, None)

    def _s_for(self, stmt: ast.For):
        init = self._stmt(stmt.init) if stmt.init is not None else None
        update = self._effect(stmt.update, stmt.update) if stmt.update is not None else None
        return self._loop(stmt, init, stmt.cond, update)

    def _loop(self, stmt, init, cond: ast.Expr | None, update):
        """A while or for loop; init and update are statement closures."""
        st, trace, limit, span = self, self.trace, self.options.max_steps, stmt.span
        iid, _, mark, counts = self._decision(stmt)
        slots, fn, a, b, sb, _ = self._condition(cond) if cond is not None else _calls(_constant(True))
        body = self._stmts(stmt.body)

        def run(f):
            if init is not None:
                init(f)
            mark(iid)  # each test is a step of the loop's instruction; the first marks it
            while True:
                trace.steps += 1
                if trace.steps > limit:
                    st._step_limit(span)
                if not (fn(f[a], f[b] if sb else b) if slots else fn(a(f), b(f)) if fn else a(f)):
                    counts[1] += 1
                    return None
                counts[0] += 1
                for run_stmt in body:
                    r = run_stmt(f)
                    if r is not None:
                        return r
                if update is not None:
                    update(f)

        return run

    def _s_switch(self, stmt: ast.Switch):
        st, trace, limit, span = self, self.trace, self.options.max_steps, stmt.span
        iid, unmarked, mark = self._instruction(stmt)
        subject = self._expr(stmt.subject)
        arms = []  # (label, body, counter index) for labelled cases, in order
        keys = []
        default = None
        for i, case in enumerate(stmt.cases):
            body = tuple(map(self._stmt, case.body))
            if case.label is None:
                default = (body, len(keys))
            else:
                arms.append((self._expr(case.label), body, len(keys)))
            keys.append((iid, branch_key(SWITCH_CASE, case_label(i, case))))
        nomatch = len(keys)
        keys.append((iid, branch_key(SWITCH_CASE, NO_MATCH)))
        counts = [0] * len(keys)
        self.branch_counters.append((tuple(keys), counts))

        def run(f):
            if unmarked:
                mark(unmarked.pop())
            trace.steps += 1
            if trace.steps > limit:
                st._step_limit(span)
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

    def _s_try(self, stmt: ast.Try):
        # catches never execute: modeled faults halt the program
        body = self._stmts(stmt.body)
        if stmt.finally_block is not None:
            body += self._stmts(stmt.finally_block)
        return _sequence(body)

    def _s_assert(self, stmt: ast.Assert):
        """The check of an assert and, on its true branch, its failure.  With
        --ea off the check takes its false branch and evaluates neither the
        condition nor the message."""
        st, trace, limit, span = self, self.trace, self.options.max_steps, stmt.span
        iid, unmarked, mark, counts = self._decision(stmt)
        if not self.options.assertions_enabled:

            def skip(f):
                if unmarked:
                    mark(unmarked.pop())
                trace.steps += 1
                if trace.steps > limit:
                    st._step_limit(span)
                counts[1] += 1

            return skip
        slots, fn, a, b, sb, _ = self._condition(stmt.condition)
        message = self._expr(stmt.message) if stmt.message is not None else _constant("")
        method = self.res.method_of(stmt)
        where = f"{self.res.parent(method).name}.{method.name}"
        text = f"assert {expr_text(stmt.condition)}"
        records, failure = trace.assertion_records, assert_failure(iid)

        def run(f):
            if unmarked:
                mark(unmarked.pop())
            trace.steps += 1
            if trace.steps > limit:
                st._step_limit(span)
            if fn(f[a], f[b] if sb else b) if slots else fn(a(f), b(f)) if fn else a(f):
                counts[1] += 1
                records.append(AssertionRecord(where, text, span, "", "passed"))
                return None
            counts[0] += 1
            mark(failure)
            trace.steps += 1
            if trace.steps > limit:
                st._step_limit(span)
            detail = format_value(message(f))
            records.append(AssertionRecord(where, text, span, detail, "failed"))
            st._fault(FAULT_ASSERTION_FAILURE, span, detail)

        return run

    def _s_synchronized(self, stmt: ast.Synchronized):
        st, trace, limit, span = self, self.trace, self.options.max_steps, stmt.span
        _, unmarked, mark = self._instruction(stmt)
        monitor = self._expr(stmt.monitor)
        body = self._stmts(stmt.body)

        def run(f):
            if unmarked:
                mark(unmarked.pop())
            trace.steps += 1
            if trace.steps > limit:
                st._step_limit(span)
            monitor(f)
            for run_stmt in body:
                r = run_stmt(f)
                if r is not None:
                    return r

        return run

    def _s_empty(self, stmt: ast.Empty):
        return self._simple(stmt, _calls(_constant(None)))

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

    def _condition(self, expr: ast.Expr):
        """How an if, while, for or assert reads its condition (see _read):
        a boolean, or an int literal, which folds to its truth."""
        truth = ast.literal_truth(expr)
        return self._read(expr) if truth is None else _calls(_constant(truth))

    def _read(self, expr: ast.Expr, t: ty.Type | None = None, span: SourceSpan | None = None):
        """How a statement reads expr, converted for a store, return or
        argument of type t: (slots, fn, a, b, sb, w).  It computes an
        operator of _fold's that needs no conversion itself, wrapping an int
        result outside the int range with w: fn(f[a], f[b] if sb else b)
        (slots) for a slot a and a slot or literal b, fn(a(f), b(f)) where a
        call meets a slot or a call.  Anything else it calls (a, fn None)."""
        kinds = self._kind(expr.left)[0] + self._kind(expr.right)[0] if type(expr) is ast.Binary else ""
        fold = kinds in ("SS", "SK", "SC", "CS", "CC") and t in (None, self.res.types[expr.uid]) and self._fold(expr)
        if fold:
            fn, ka, a, kb, b, w = fold
            if kinds in ("SS", "SK"):
                return True, fn, a, b, kb == "S", w
            return False, fn, (itemgetter(a) if ka == "S" else a), (itemgetter(b) if kb == "S" else b), False, w
        return _calls(self._converted(expr, t, span))

    def _wrap(self, value: int, span: SourceSpan, bits: int = 32) -> int:
        """value wrapped into a signed integer of that many bits (an int 32,
        a byte 8); a value that does not fit records an overflow warning."""
        half = 1 << (bits - 1)
        if -half <= value < half:
            return value
        wrapped = (value + half) % (2 * half) - half
        self._fault(FAULT_OVERFLOW_WARNING, span, f"{bits}-bit result {value} wrapped to {wrapped}", halt=False)
        return wrapped

    def _converted(self, expr: ast.Expr, t: ty.Type | None, span: SourceSpan):
        """The closure of expr, with its value converted for a store, an
        initializer, a return or an argument of type t (None takes any
        value): an int or byte into a double widens, and an int into a byte
        wraps.  Where the types need no conversion it is expr's own closure."""
        value, source, wrap = self._expr(expr), self.res.types[expr.uid], self._wrap
        if t is ty.DOUBLE and source in (ty.INT, ty.BYTE):
            return lambda f: float(value(f))
        if t is ty.BYTE and source is ty.INT:
            return lambda f: v if BYTE_MIN <= (v := value(f)) <= BYTE_MAX else wrap(v, span, 8)
        return value

    def _new_array(self, elem: ty.Type, size: int) -> SLArray:
        self.ordinals += 1
        return SLArray(elem=str(elem), values=[_DEFAULTS.get(elem)] * size, ordinal=self.ordinals)

    # -- expressions -----------------------------------------------------------------

    def _expr(self, expr: ast.Expr):
        return self._EXPRS[type(expr)](self, expr)

    def _e_name(self, expr: ast.Name):
        sym = self.res.name_targets[expr.uid]
        if sym.slot >= 0:  # a parameter, a local or this
            return itemgetter(sym.slot)
        if sym.is_builtin:  # ASSERTIONS_ENABLED
            return _constant(self.options.assertions_enabled)
        if sym.static:
            return self._load_static(sym)
        # A field of this: the resolver accepts one only where there is a this.
        key = sym.decl_uid
        return lambda f: f[0].fields[key]

    def _load_static(self, sym):
        get, key = self.statics.get, (sym.owner, sym.name)
        default = _DEFAULTS.get(sym.declared_type)
        return lambda f: get(key, default)

    def _e_unary(self, expr: ast.Unary):
        if expr.op == "!":
            operand = self._expr(expr.operand)
            return lambda f: not operand(f)
        operand, span, wrap = self._expr(expr.operand), expr.span, self._wrap
        if self.res.types[expr.uid] == ty.DOUBLE:
            return lambda f: -operand(f)
        return lambda f: r if INT_MIN <= (r := -operand(f)) <= INT_MAX else wrap(r, span)  # an int or byte

    def _e_index(self, expr: ast.Index):
        array, index = self._expr(expr.array), self._expr(expr.index)
        span, checked = expr.span, self._array_get

        return lambda f: checked(array(f), index(f), span)

    def _array_get(self, array, index, span: SourceSpan):
        if array is None:
            self._fault(FAULT_NULL_DEREFERENCE, span, "indexing a null array")
        values = array.values
        if index < 0 or index >= len(values):
            self._fault(FAULT_OUT_OF_BOUNDS, span, f"index {index} outside [0, {len(values) - 1}]")
        return values[index]

    def _e_field(self, expr: ast.FieldAccess):
        sym = self.res.field_targets[expr.uid]
        if sym.static:
            return self._static_access(expr.receiver, self._load_static(sym))
        st, receiver, name, span = self, self._expr(expr.receiver), expr.name, expr.span
        key = sym.decl_uid

        def run(f):
            obj = receiver(f)
            if obj is None:
                st._fault(FAULT_NULL_DEREFERENCE, span, f"field '{name}' of null")
            return obj.fields[key]

        return run

    def _e_new_array(self, expr: ast.NewArray):
        st, size_of = self, self._expr(expr.size_expr)
        span, elem = expr.span, self.res.types[expr.uid].elem

        def run(f):
            size = size_of(f)
            if size < 0:
                st._fault(FAULT_NEGATIVE_ARRAY_SIZE, span, f"array size {size} is negative")
            return st._new_array(elem, size)

        return run

    def _e_new(self, expr: ast.New):
        name, span, instantiate = expr.class_name, expr.span, self._instantiate
        ctor = self.res.call_targets[expr.uid].method  # None: the implicit one
        args = _arguments(self._args(expr, param_types(ctor.decl) if ctor else ()))
        return lambda f: instantiate(name, args(f), span)

    def _args(self, call: ast.Call | ast.New, params) -> list:
        """The closures of call's arguments, each converted to its
        parameter's type at the call site."""
        return [self._converted(e, t, call.span) for e, t in zip(call.args, params)]

    # -- operators -------------------------------------------------------------------

    def _e_binary(self, expr: ast.Binary):
        fold = self._fold(expr)
        if fold is not None:
            fn, ka, a, kb, b, w = fold
            return _INT_FOLDS[ka + kb](fn, a, b, w) if w else _FOLDS[ka + kb](fn, a, b)
        op = expr.op
        if op == "=":
            return self._assign(expr)
        left, right = self._expr(expr.left), self._expr(expr.right)
        if op == "+":  # on a String
            return lambda f: format_value(left(f)) + format_value(right(f))
        short = op == "||"

        def logical(f):
            if left(f) is short:
                return short
            return right(f)

        return logical

    def _fold(self, expr: ast.Expr):
        """An arithmetic operator or a comparison as (fn, ka, a, kb, b, w):
        its code and its operands' kinds and what it reads them by (see
        _operand), with w wrapping an int result outside the int range and
        None for a double or boolean one.  None for any other expression."""
        if type(expr) is not ast.Binary or expr.op in ("=", "&&", "||"):
            return None
        op, span, t = expr.op, expr.span, self.res.types[expr.uid]
        if op == "+" and t is ty.STRING:
            return None
        w = None
        if t is ty.INT:
            fn, wrap = _INT_OPS[op], self._wrap
            if op in ("/", "%"):  # a zero divisor is Java's ArithmeticException
                st, divide = self, fn

                def fn(x, y):
                    if not y:
                        st._fault(FAULT_ARITHMETIC, span, "integer division by zero")
                    return divide(x, y)

            w = lambda r: wrap(r, span)
        elif t is ty.DOUBLE:
            fn = _DOUBLE_OPS[op]
        elif op in _COMPARE_OPS:
            fn = _COMPARE_OPS[op]
        else:  # == or !=: objects and arrays are equal only to themselves
            sides = (self.res.types[expr.left.uid], self.res.types[expr.right.uid])
            fn = _EQUALITY_OPS[op][any(isinstance(side, (ty.ClassType, ty.ArrayType)) for side in sides)]
        return (fn, *self._operand(expr.left), *self._operand(expr.right), w)

    def _operand(self, expr: ast.Expr):
        """The kind of an operator's operand and what the operator reads it
        by: a local's or parameter's slot (S), read inline as f[slot]; a
        literal's value (K), bound in; or anything else's closure (C)."""
        kind = self._kind(expr)
        return kind if kind[0] != "C" else ("C", self._expr(expr))

    def _kind(self, expr: ast.Expr):
        """_operand's kind of expr, and its slot or value, compiling nothing."""
        if isinstance(expr, ast.Name) and (slot := self.res.name_targets[expr.uid].slot) >= 0:
            return "S", slot
        if isinstance(expr, ast.Literal):
            return "K", expr.value
        return "C", None

    def _assign(self, expr: ast.Binary):
        """An assignment: it stores the right-hand side's value, converted
        to the target's type, and yields the value it stored."""
        st, target, span = self, expr.left, expr.left.span
        value_of = self._converted(expr.right, self.res.types[target.uid], span)
        if isinstance(target, ast.Name):
            sym = self.res.name_targets[target.uid]
            if sym.slot < 0:
                return self._assign_field(sym, value_of)
            slot = sym.slot

            def store_local(f):
                f[slot] = value = value_of(f)
                return value

            return store_local
        if isinstance(target, ast.Index):
            array_of, index_of = self._expr(target.array), self._expr(target.index)

            def store_element(f):
                array = array_of(f)
                index = index_of(f)
                value = value_of(f)
                if array is None:
                    st._fault(FAULT_NULL_DEREFERENCE, span, "storing into a null array")
                values = array.values
                if index < 0 or index >= len(values):
                    st._fault(
                        FAULT_OUT_OF_BOUNDS, span, f"index {index} outside [0, {len(values) - 1}]"
                    )
                values[index] = value
                return value

            return store_element
        # The parser accepts no other target than a name, an element or a field.
        sym = self.res.field_targets[target.uid]
        if sym.static:
            return self._static_access(target.receiver, self._assign_field(sym, value_of))
        receiver_of, name, key = self._expr(target.receiver), target.name, sym.decl_uid

        def store_field(f):
            receiver = receiver_of(f)
            value = value_of(f)
            if receiver is None:
                st._fault(FAULT_NULL_DEREFERENCE, span, f"field '{name}' of null")
            receiver.fields[key] = value
            return value

        return store_field

    def _static_access(self, receiver: ast.Expr, access):
        """access to a static field or method, after its receiver, if it has
        one, has run for its effects; a class name is not a value and does
        not run."""
        if receiver is None or self.res.names_class(receiver):
            return access
        receiver_of = self._expr(receiver)

        def run(f):
            receiver_of(f)
            return access(f)

        return run

    def _assign_field(self, sym, value_of):
        if sym.static:
            statics, key = self.statics, (sym.owner, sym.name)

            def store_static(f):
                statics[key] = value = value_of(f)
                return value

            return store_static
        key = sym.decl_uid

        def store_member(f):  # into a field of this
            f[0].fields[key] = value = value_of(f)
            return value

        return store_member

    # -- calls --------------------------------------------------------------------------

    def _e_call(self, expr: ast.Call):
        st, span, name = self, expr.span, expr.name
        target = self.res.call_targets[expr.uid]
        if target.builtin is not None:
            return self._builtin(expr, target.builtin)
        minfo = target.method
        params = param_types(minfo.decl)
        if minfo.decl.is_static:  # bound here, whatever the receiver holds
            method = self._method(minfo.owner, minfo.decl)
            # One argument is read as a statement reads a value (_read), and
            # two are listed in the call itself.
            if len(params) == 1:
                slots, fn, a, b, sb, w = self._read(expr.args[0], params[0], span)

                def call(f):
                    v = fn(f[a], f[b] if sb else b) if slots else fn(a(f), b(f)) if fn else a(f)
                    return method.call([None, v if w is None or INT_MIN <= v <= INT_MAX else w(v)], span)

            elif len(params) == 2:
                a, b = self._args(expr, params)
                call = lambda f: method.call([None, a(f), b(f)], span)
            else:
                args = _arguments(self._args(expr, params))
                call = lambda f: method.call(args(f), span)
            return self._static_access(expr.receiver, call)
        args = _arguments(self._args(expr, params))
        # Virtual dispatch on the receiver, or on this for an unqualified call.
        receiver_of = self._expr(expr.receiver) if expr.receiver is not None else itemgetter(0)
        key, table = (name, len(expr.args)), self._table

        def call_virtual(f):
            receiver = receiver_of(f)
            frame = args(f)
            if receiver is None:
                st._fault(FAULT_NULL_DEREFERENCE, span, f"{name}() on null")
            frame[0] = receiver
            return table(receiver.cls_name)[key].call(frame, span)

        return call_virtual

    def _builtin(self, expr: ast.Call, builtin: Builtin):
        """A builtin call, bound to its implementation in _BUILTINS.  A
        static builtin runs like a static method, and a null String argument
        faults; an instance builtin null-checks its receiver (or this) after
        the arguments have run."""
        st, span, name = self, expr.span, builtin.name
        impl, args = self._BUILTINS[builtin.owner, name], _arguments(self._args(expr, builtin.params))
        if builtin.static:
            strings = [i for i, t in enumerate(builtin.params, 1) if t is ty.STRING]

            def call(f):
                frame = args(f)
                for i in strings:
                    if frame[i] is None:
                        st._fault(FAULT_NULL_DEREFERENCE, span, f"{name}(null)")
                return impl(st, frame, span)

            return self._static_access(expr.receiver, call)
        receiver_of = self._expr(expr.receiver) if expr.receiver is not None else itemgetter(0)
        on_null = f"{name}() on a null stream" if builtin.owner == "Stream" else f"{name}() on null"

        def call_instance(f):
            receiver = receiver_of(f)
            frame = args(f)
            if receiver is None:
                st._fault(FAULT_NULL_DEREFERENCE, span, on_null)
            frame[0] = receiver
            return impl(st, frame, span)

        return call_instance

    # Each builtin's implementation: (interpreter, frame, call span) -> its
    # result, where the frame is [receiver or None, argument...].

    def _b_println(self, frame, span):
        self.trace.stdout.append(format_value(frame[1]))

    def _b_read_line(self, frame, span):
        if self.stdin_pos < len(self.stdin):
            self.stdin_pos += 1
            return self.stdin[self.stdin_pos - 1]
        return None

    def _b_parse_int(self, frame, span):
        """Integer.parseInt: an optional sign, then decimal digits, with the
        value in int range."""
        text = frame[1]
        # More than ten significant digits is out of range, and Python would
        # refuse to convert thousands of them.
        fits = _INT_TEXT.fullmatch(text) is not None and len(text.lstrip("+-0")) <= 10
        if not fits or not INT_MIN <= int(text) <= INT_MAX:
            self._fault(FAULT_NUMBER_FORMAT, span, f"parseInt({text!r}) is not a number")
        return int(text)

    def _b_length(self, frame, span):
        """String.length(): UTF-16 code units, two for a character past U+FFFF."""
        return len(frame[1].encode("utf-16-le", "surrogatepass")) // 2

    def _b_open(self, frame, span):
        path, stub = frame[1], self.options.file_system_stub or {}
        if path not in stub:
            return None
        self.ordinals += 1
        data = stub[path]
        return SLStream(
            name=path,
            data=data.encode() if isinstance(data, str) else bytes(data),
            ordinal=self.ordinals,
        )

    def _b_start(self, frame, span):  # runs run() to its end, in this thread
        run = self._table(frame[0].cls_name).get(("run", 0))
        if run is not None:
            run.call(frame, span)

    def _b_read(self, frame, span):
        stream, buf, off, length = frame
        if buf is None:
            self._fault(FAULT_NULL_DEREFERENCE, span, "read() into a null buffer")
        if stream.closed:
            self._fault(FAULT_CLOSED_STREAM, span, "read() on a closed stream")
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

    def _b_close(self, frame, span):
        frame[0].closed = True

    def _b_nothing(self, frame, span):  # run, wait and sleep
        return None

    # (owner, name) -> implementation, for every key of resolver.BUILTINS.
    _BUILTINS = {
        (None, "println"): _b_println,
        (None, "readLine"): _b_read_line,
        (None, "parseInt"): _b_parse_int,
        (None, "open"): _b_open,
        (None, "random"): lambda self, frame, span: self.rng.random(),
        (None, "length"): _b_length,
        (None, "exists"): lambda self, frame, span: frame[1] in (self.options.file_system_stub or {}),
        ("Thread", "start"): _b_start,
        ("Thread", "run"): _b_nothing,
        ("Thread", "wait"): _b_nothing,
        ("Thread", "sleep"): _b_nothing,
        ("Thread", "getName"): lambda self, frame, span: frame[0].cls_name,
        ("Stream", "read"): _b_read,
        ("Stream", "close"): _b_close,
    }

    _EXPRS = {
        ast.Literal: lambda self, expr: _constant(expr.value),
        ast.Null: lambda self, expr: _constant(None),
        ast.Name: _e_name,
        ast.Unary: _e_unary,
        ast.Binary: _e_binary,
        ast.Index: _e_index,
        ast.FieldAccess: _e_field,
        ast.NewArray: _e_new_array,
        ast.New: _e_new,
        ast.Call: _e_call,
    }


def _int_quotient(a: int, b: int) -> int:
    """a / b rounded toward zero, as Java's int division."""
    return a // b if (a >= 0) == (b > 0) else -(-a // b)


def _int_remainder(a: int, b: int) -> int:
    """a % b with the sign of a, as Java's int remainder."""
    r = abs(a) % abs(b)
    return r if a >= 0 else -r


def _double_quotient(a: float, b: float) -> float:
    """a / b under IEEE 754 (JLS 15.17.2): a zero divisor gives NaN for a
    zero or NaN dividend, else an infinity signed by both operands."""
    if b:
        return a / b
    if a != a or not a:
        return math.nan
    return math.copysign(math.inf, a) * math.copysign(1.0, b)


def _double_remainder(a: float, b: float) -> float:
    """a % b under IEEE 754 (JLS 15.17.3): NaN for an infinite dividend or a
    zero divisor, else fmod's, which has the dividend's sign."""
    if not b or a in (math.inf, -math.inf):
        return math.nan
    return math.fmod(a, b)


# Each arithmetic operator's code, by the type of its result.  An int
# division by zero raises ZeroDivisionError, which the closure turns into
# an arithmetic fault.
_ADDITIVE = {"+": operator.add, "-": operator.sub, "*": operator.mul}
_INT_OPS = {**_ADDITIVE, "/": _int_quotient, "%": _int_remainder}
_DOUBLE_OPS = {**_ADDITIVE, "/": _double_quotient, "%": _double_remainder}
_COMPARE_OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}
# == and != by value, or by identity (True) for objects and arrays.
_EQUALITY_OPS = {"==": (operator.eq, operator.is_), "!=": (operator.ne, operator.is_not)}

# An operator's closure for each kind of its two operands (see
# Interpreter._operand), computing fn(left, right); an int operator's also
# wraps a result outside the int range.
_FOLDS = {
    "SS": lambda fn, a, b: lambda f: fn(f[a], f[b]),
    "SK": lambda fn, a, b: lambda f: fn(f[a], b),
    "SC": lambda fn, a, b: lambda f: fn(f[a], b(f)),
    "KS": lambda fn, a, b: lambda f: fn(a, f[b]),
    "KK": lambda fn, a, b: lambda f: fn(a, b),
    "KC": lambda fn, a, b: lambda f: fn(a, b(f)),
    "CS": lambda fn, a, b: lambda f: fn(a(f), f[b]),
    "CK": lambda fn, a, b: lambda f: fn(a(f), b),
    "CC": lambda fn, a, b: lambda f: fn(a(f), b(f)),
}
_INT_FOLDS = {
    "SS": lambda fn, a, b, w: lambda f: r if INT_MIN <= (r := fn(f[a], f[b])) <= INT_MAX else w(r),
    "SK": lambda fn, a, b, w: lambda f: r if INT_MIN <= (r := fn(f[a], b)) <= INT_MAX else w(r),
    "SC": lambda fn, a, b, w: lambda f: r if INT_MIN <= (r := fn(f[a], b(f))) <= INT_MAX else w(r),
    "KS": lambda fn, a, b, w: lambda f: r if INT_MIN <= (r := fn(a, f[b])) <= INT_MAX else w(r),
    "KK": lambda fn, a, b, w: lambda f: r if INT_MIN <= (r := fn(a, b)) <= INT_MAX else w(r),
    "KC": lambda fn, a, b, w: lambda f: r if INT_MIN <= (r := fn(a, b(f))) <= INT_MAX else w(r),
    "CS": lambda fn, a, b, w: lambda f: r if INT_MIN <= (r := fn(a(f), f[b])) <= INT_MAX else w(r),
    "CK": lambda fn, a, b, w: lambda f: r if INT_MIN <= (r := fn(a(f), b)) <= INT_MAX else w(r),
    "CC": lambda fn, a, b, w: lambda f: r if INT_MIN <= (r := fn(a(f), b(f))) <= INT_MAX else w(r),
}


def execute(
    unit: ast.CompilationUnit, options: RunOptions, resolution: Resolution, cfgs: UnitCfgs
) -> RunTrace:
    """Run a resolved unit."""
    return Interpreter(unit, options, resolution, cfgs).run()

"""Tree-walking interpreter with execution tracing.

Every simple statement and every branching condition carries a CFG
instruction id; executing it records the id (and the branch outcome for
decisions) into the RunTrace.  Runtime faults (out-of-bounds access, null
dereference, assertion failure, step limit) halt the run and are recorded;
fixed-width integer overflow is recorded as a warning and execution
continues with the wrapped value.
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass, field

from ..errors import EntryNotFoundError, InterpreterError
from ..frontend import ast
from ..frontend.lexer import SourceSpan
from ..semantics import types as ty
from ..semantics.resolver import Resolution, build_symbol_table
from ..cfg import UnitCfgs, build_unit_cfgs, method_identity

INT_MIN, INT_MAX = -(2**31), 2**31 - 1
BYTE_MIN, BYTE_MAX = -128, 127

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


class _Return(Exception):
    def __init__(self, value):
        self.value = value


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

    # -- trace plumbing ------------------------------------------------------

    def _fault(self, kind: str, span: SourceSpan | None, detail: str, halt: bool = True):
        self.trace.faults.append(Fault(kind, span, detail))
        if halt:
            raise _Halt()

    def _record(self, node: ast.Node) -> None:
        iid = self.cfgs.stmt_iids.get(node.uid)
        if iid is not None:
            self.trace.executed_instruction_ids.add(iid)
        self.trace.steps += 1
        if self.trace.steps > self.options.max_steps:
            self._fault(FAULT_STEP_LIMIT, node.span, f"step limit {self.options.max_steps} exceeded")

    def _record_iid(self, iid: int) -> None:
        self.trace.executed_instruction_ids.add(iid)
        self.trace.steps += 1

    def _record_branch(self, node: ast.Node, key: str) -> None:
        iid = self.cfgs.stmt_iids.get(node.uid)
        if iid is None:
            return
        self.trace.branch_outcomes[(iid, key)] = self.trace.branch_outcomes.get((iid, key), 0) + 1

    # -- program start --------------------------------------------------------

    def run(self) -> RunTrace:
        import sys

        # Each interpreted call consumes a handful of Python frames; give the
        # configured call-depth cap room to trigger first.
        wanted = self.options.max_call_depth * 40 + 1000
        old_limit = sys.getrecursionlimit()
        if wanted > old_limit:
            sys.setrecursionlimit(wanted)
        try:
            self._run_static_initializers()
            entry_cls, entry_method = self._find_entry()
            args: list = []
            if entry_method.arity == 1:
                args = [self._new_array("String", 0)]
            self._invoke(entry_cls, entry_method, None, args, entry_method.span)
        except _Halt:
            pass
        except _Return:
            pass
        finally:
            if wanted > old_limit:
                sys.setrecursionlimit(old_limit)
        return self.trace

    def _run_static_initializers(self) -> None:
        for cls in self.unit.classes:
            inits = [f for f in cls.fields if f.static and f.initializer is not None]
            if not inits:
                continue
            self.trace.entered_methods.add(f"{cls.name}.<clinit>/0")
            for fld in inits:
                self._record(fld)
                value = self._eval(fld.initializer, _Frame(None, {}))
                self.statics[(cls.name, fld.name)] = self._coerce_store(value, fld.type, fld.span)

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

    # -- invocation ------------------------------------------------------------

    def _invoke(
        self,
        cls: ast.ClassDecl,
        method: ast.MethodDecl,
        receiver: SLObject | None,
        args: list,
        span: SourceSpan,
    ):
        self.depth += 1
        if self.depth > self.options.max_call_depth:
            self._fault(
                FAULT_STEP_LIMIT,
                span,
                f"call depth {self.options.max_call_depth} exceeded (runaway recursion)",
            )
        self.trace.entered_methods.add(method_identity(cls.name, method))
        frame = _Frame(receiver, {})
        for param, value in zip(method.params, args):
            frame.scopes[-1][param.name] = self._coerce_store(value, param.type, span)
        result = None
        try:
            self._exec_block(method.body, frame)
            cfg = self.cfgs.cfgs.get(method_identity(cls.name, method))
            if cfg is not None and cfg.implicit_return_iid is not None:
                self._record_iid(cfg.implicit_return_iid)
        except _Return as ret:
            result = ret.value
        finally:
            self.depth -= 1
        return result

    def _instantiate(self, class_name: str, args: list, span: SourceSpan) -> SLObject:
        info = self.res.classes.get(class_name)
        if info is None:
            raise InterpreterError(f"unknown class {class_name}")
        self.ordinals += 1
        obj = SLObject(cls_name=class_name, fields={}, ordinal=self.ordinals)
        # field defaults and initializers, base first
        chain: list[ast.ClassDecl] = []
        cur = info
        while cur is not None:
            chain.append(cur.decl)
            cur = self.res.classes.get(cur.base) if cur.base else None
        for decl in reversed(chain):
            for fld in decl.fields:
                if fld.static:
                    continue
                obj.fields[fld.name] = default_value(fld.type)
            for fld in decl.fields:
                if fld.static or fld.initializer is None:
                    continue
                frame = _Frame(obj, {})
                value = self._eval(fld.initializer, frame)
                obj.fields[fld.name] = self._coerce_store(value, fld.type, fld.span)
        ctor = info.ctors.get(len(args))
        if ctor is not None:
            self._invoke(ctor.decl_class(self.res), ctor.decl, obj, args, span)
        else:
            # implicit constructor: record its synthetic instruction
            cfg = self.cfgs.cfgs.get(f"{class_name}.<init>/0")
            if cfg is not None and cfg.synthetic:
                self.trace.entered_methods.add(cfg.method)
                for block in cfg.blocks:
                    for iid in block.instructions:
                        self._record_iid(iid)
        return obj

    # -- statements ---------------------------------------------------------------

    def _exec_block(self, block: ast.Block, frame: "_Frame") -> None:
        frame.scopes.append({})
        try:
            for stmt in block.stmts:
                self._exec(stmt, frame)
        finally:
            frame.scopes.pop()

    def _exec(self, stmt: ast.Stmt, frame: "_Frame") -> None:
        if isinstance(stmt, ast.Block):
            self._exec_block(stmt, frame)
            return
        if isinstance(stmt, ast.ExprStmt):
            self._record(stmt)
            self._eval(stmt.expr, frame)
            return
        if isinstance(stmt, ast.LocalDecl):
            self._record(stmt)
            if stmt.initializer is not None:
                value = self._eval(stmt.initializer, frame)
            else:
                value = default_value(stmt.type)
            frame.scopes[-1][stmt.name] = self._coerce_store(value, stmt.type, stmt.span)
            return
        if isinstance(stmt, ast.Return):
            self._record(stmt)
            value = self._eval(stmt.value, frame) if stmt.value is not None else None
            raise _Return(value)
        if isinstance(stmt, ast.If):
            self._record(stmt)
            value = self._truthy(self._eval(stmt.cond, frame), stmt.cond.span)
            self._record_branch(stmt, "true-branch" if value else "false-branch")
            if stmt.assert_origin is not None and self.options.assertions_enabled and not value:
                self.trace.assertion_records.append(
                    AssertionRecord(
                        unit_name=stmt.assert_origin.unit_name,
                        statement_text=stmt.assert_origin.statement_text,
                        span=stmt.span,
                        message="",
                        outcome="passed",
                    )
                )
            if value:
                self._exec_block(stmt.then, frame)
            elif stmt.els is not None:
                self._exec(stmt.els, frame)
            return
        if isinstance(stmt, ast.While):
            while True:
                self._record(stmt)
                value = self._truthy(self._eval(stmt.cond, frame), stmt.cond.span)
                self._record_branch(stmt, "true-branch" if value else "false-branch")
                if not value:
                    return
                self._exec_block(stmt.body, frame)
            return
        if isinstance(stmt, ast.For):
            frame.scopes.append({})
            try:
                if stmt.init is not None:
                    self._exec(stmt.init, frame)
                while True:
                    self._record(stmt)
                    if stmt.cond is not None:
                        value = self._truthy(self._eval(stmt.cond, frame), stmt.cond.span)
                    else:
                        value = True
                    self._record_branch(stmt, "true-branch" if value else "false-branch")
                    if not value:
                        return
                    self._exec_block(stmt.body, frame)
                    if stmt.update is not None:
                        iid = self.cfgs.stmt_iids.get(stmt.update.uid)
                        if iid is not None:
                            self._record_iid(iid)
                        else:
                            self.trace.steps += 1
                        self._eval(stmt.update, frame)
            finally:
                frame.scopes.pop()
            return
        if isinstance(stmt, ast.Switch):
            self._record(stmt)
            subject = self._eval(stmt.subject, frame)
            default_index = None
            for i, case in enumerate(stmt.cases):
                if case.label is None:
                    default_index = i
                    continue
                label = self._eval(case.label, frame)
                if label == subject:
                    self._record_branch(stmt, f"switch-case#case{i}")
                    self._exec_case(stmt.cases[i], frame)
                    return
            if default_index is not None:
                self._record_branch(stmt, "switch-case#default")
                self._exec_case(stmt.cases[default_index], frame)
            else:
                self._record_branch(stmt, "switch-case#nomatch")
            return
        if isinstance(stmt, ast.Try):
            self._exec_block(stmt.body, frame)
            # catches never execute: modeled faults halt the program
            if stmt.finally_block is not None:
                self._exec_block(stmt.finally_block, frame)
            return
        if isinstance(stmt, ast.Assert):
            self._record(stmt)
            value = self._truthy(self._eval(stmt.condition, frame), stmt.condition.span)
            if not value:
                message = (
                    format_value(self._eval(stmt.message, frame))
                    if stmt.message is not None
                    else ""
                )
                self._fault(FAULT_ASSERTION_FAILURE, stmt.span, message)
            return
        if isinstance(stmt, ast.Synchronized):
            self._record(stmt)
            self._eval(stmt.monitor, frame)
            self._exec_block(stmt.body, frame)
            return
        if isinstance(stmt, ast.Empty):
            self._record(stmt)
            return
        raise InterpreterError(f"unexecutable statement {type(stmt).__name__}")

    def _exec_case(self, case: ast.SwitchCase, frame: "_Frame") -> None:
        frame.scopes.append({})
        try:
            for inner in case.body:
                self._exec(inner, frame)
        finally:
            frame.scopes.pop()

    # -- expressions -----------------------------------------------------------------

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

    def _coerce_store(self, value, type_ref: ast.TypeRef, span: SourceSpan):
        if type_ref.dims > 0:
            return value
        if type_ref.base == "byte" and isinstance(value, int) and not isinstance(value, bool):
            return self._wrap_byte(value, span)
        if type_ref.base == "int" and isinstance(value, int) and not isinstance(value, bool):
            return self._wrap_int(value, span)
        if type_ref.base == "double" and isinstance(value, int) and not isinstance(value, bool):
            return float(value)
        return value

    def _new_array(self, elem_base: str, size: int) -> SLArray:
        self.ordinals += 1
        fill = {"int": 0, "byte": 0, "double": 0.0, "boolean": False}.get(elem_base)
        return SLArray(elem=elem_base, values=[fill] * size, ordinal=self.ordinals)

    def _eval(self, expr: ast.Expr, frame: "_Frame"):
        if isinstance(expr, ast.Literal):
            return expr.value
        if isinstance(expr, ast.Null):
            return None
        if isinstance(expr, ast.Name):
            return self._load_name(expr, frame)
        if isinstance(expr, ast.Unary):
            value = self._eval(expr.operand, frame)
            if expr.op == "!":
                return not self._truthy(value, expr.span)
            if isinstance(value, float):
                return -value
            return self._wrap_int(-value, expr.span)
        if isinstance(expr, ast.Binary):
            return self._binary(expr, frame)
        if isinstance(expr, ast.Index):
            array = self._eval(expr.array, frame)
            index = self._eval(expr.index, frame)
            return self._array_get(array, index, expr.span)
        if isinstance(expr, ast.FieldAccess):
            return self._load_field(expr, frame)
        if isinstance(expr, ast.NewArray):
            size = self._eval(expr.size_expr, frame)
            if not isinstance(size, int) or isinstance(size, bool) or size < 0:
                raise InterpreterError(f"{expr.span}: bad array size {size!r}")
            return self._new_array(expr.elem_type.base, size)
        if isinstance(expr, ast.New):
            args = [self._eval(a, frame) for a in expr.args]
            return self._instantiate(expr.class_name, args, expr.span)
        if isinstance(expr, ast.Call):
            return self._call(expr, frame)
        raise InterpreterError(f"unevaluable expression {type(expr).__name__}")

    def _load_name(self, expr: ast.Name, frame: "_Frame"):
        if expr.identifier == "this":
            return frame.receiver
        sym = self.res.name_targets.get(expr.uid)
        if sym is None:
            raise InterpreterError(f"{expr.span}: unresolved name {expr.identifier}")
        if sym.is_builtin and sym.name == "ASSERTIONS_ENABLED":
            return self.options.assertions_enabled
        if sym.kind in ("local", "param"):
            return frame.load(expr.identifier, expr.span)
        if sym.kind == "field":
            if sym.static:
                return self.statics.get((sym.owner, sym.name), default_value_for(sym))
            if frame.receiver is None:
                raise InterpreterError(f"{expr.span}: instance field {sym.name} without receiver")
            return frame.receiver.fields.get(sym.name)
        if sym.kind == "class":
            raise InterpreterError(f"{expr.span}: class name {sym.name} used as a value")
        raise InterpreterError(f"{expr.span}: cannot load {sym.kind} {sym.name}")

    def _load_field(self, expr: ast.FieldAccess, frame: "_Frame"):
        receiver = self._eval(expr.receiver, frame)
        if receiver is None:
            self._fault(FAULT_NULL_DEREFERENCE, expr.span, f"field '{expr.name}' of null")
        if not isinstance(receiver, SLObject):
            raise InterpreterError(f"{expr.span}: field access on {format_value(receiver)}")
        return receiver.fields.get(expr.name)

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

    def _binary(self, expr: ast.Binary, frame: "_Frame"):
        op = expr.op
        if op == "=":
            value = self._eval(expr.right, frame)
            self._store(expr.left, value, frame)
            return value
        if op == "&&":
            if not self._truthy(self._eval(expr.left, frame), expr.left.span):
                return False
            return self._truthy(self._eval(expr.right, frame), expr.right.span)
        if op == "||":
            if self._truthy(self._eval(expr.left, frame), expr.left.span):
                return True
            return self._truthy(self._eval(expr.right, frame), expr.right.span)
        left = self._eval(expr.left, frame)
        right = self._eval(expr.right, frame)
        if op == "+" and (isinstance(left, str) or isinstance(right, str)):
            return format_value(left) + format_value(right)
        if op in ("+", "-", "*", "/", "%"):
            return self._arith(op, left, right, expr.span)
        if op in ("<", "<=", ">", ">="):
            if not isinstance(left, (int, float)) or not isinstance(right, (int, float)):
                raise InterpreterError(f"{expr.span}: comparing non-numbers")
            return {"<": left < right, "<=": left <= right, ">": left > right, ">=": left >= right}[op]
        if op == "==":
            return self._equals(left, right)
        if op == "!=":
            return not self._equals(left, right)
        raise InterpreterError(f"{expr.span}: unknown operator {op}")

    def _equals(self, left, right) -> bool:
        if isinstance(left, (SLObject, SLArray, SLStream)) or isinstance(
            right, (SLObject, SLArray, SLStream)
        ):
            return left is right
        return left == right

    def _arith(self, op: str, left, right, span: SourceSpan):
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
            import math

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

    def _store(self, target: ast.Expr, value, frame: "_Frame") -> None:
        if isinstance(target, ast.Name):
            sym = self.res.name_targets.get(target.uid)
            if sym is None:
                raise InterpreterError(f"{target.span}: unresolved store {target.identifier}")
            if sym.kind in ("local", "param"):
                declared = _type_ref_of(sym)
                coerced = self._coerce_store(value, declared, target.span) if declared else value
                frame.store(target.identifier, coerced, target.span)
                return
            if sym.kind == "field":
                declared = _type_ref_of(sym)
                coerced = self._coerce_store(value, declared, target.span) if declared else value
                if sym.static:
                    self.statics[(sym.owner, sym.name)] = coerced
                    return
                if frame.receiver is None:
                    raise InterpreterError(f"{target.span}: instance store without receiver")
                frame.receiver.fields[sym.name] = coerced
                return
            raise InterpreterError(f"{target.span}: cannot assign to {sym.kind}")
        if isinstance(target, ast.Index):
            array = self._eval(target.array, frame)
            index = self._eval(target.index, frame)
            if array is None:
                self._fault(FAULT_NULL_DEREFERENCE, target.span, "storing into a null array")
            if not isinstance(array, SLArray):
                raise InterpreterError(f"{target.span}: indexing non-array")
            if not isinstance(index, int) or isinstance(index, bool):
                raise InterpreterError(f"{target.span}: index is not an int")
            if index < 0 or index >= len(array.values):
                self._fault(
                    FAULT_OUT_OF_BOUNDS,
                    target.span,
                    f"index {index} outside [0, {len(array.values) - 1}]",
                )
            array.values[index] = self._coerce_store(value, ast.TypeRef(array.elem, 0), target.span)
            return
        if isinstance(target, ast.FieldAccess):
            receiver = self._eval(target.receiver, frame)
            if receiver is None:
                self._fault(FAULT_NULL_DEREFERENCE, target.span, f"field '{target.name}' of null")
            if not isinstance(receiver, SLObject):
                raise InterpreterError(f"{target.span}: field store on non-object")
            sym = self.res.field_targets.get(target.uid)
            declared = _type_ref_of(sym) if sym else None
            receiver.fields[target.name] = (
                self._coerce_store(value, declared, target.span) if declared else value
            )
            return
        raise InterpreterError(f"{target.span}: bad assignment target")

    # -- calls --------------------------------------------------------------------------

    def _call(self, expr: ast.Call, frame: "_Frame"):
        target = self.res.call_targets.get(expr.uid)
        if target is None or target.kind == "unknown":
            raise InterpreterError(f"{expr.span}: call to unresolved {expr.name}()")
        if target.kind == "builtin":
            return self._call_builtin(expr, target.id, frame)
        minfo = target.method
        args = [self._eval(a, frame) for a in expr.args]
        if expr.receiver is not None:
            receiver = self._eval(expr.receiver, frame)
            if receiver is None:
                self._fault(FAULT_NULL_DEREFERENCE, expr.span, f"{expr.name}() on null")
            if not isinstance(receiver, SLObject):
                raise InterpreterError(f"{expr.span}: method call on {format_value(receiver)}")
            return self._dispatch(receiver, expr.name, args, expr.span)
        if minfo is not None and not minfo.decl.is_static:
            receiver = frame.receiver
            if receiver is None:
                raise InterpreterError(
                    f"{expr.span}: instance method {expr.name}() called without a receiver"
                )
            return self._dispatch(receiver, expr.name, args, expr.span)
        cls_decl = minfo.decl_class(self.res)
        return self._invoke(cls_decl, minfo.decl, None, args, expr.span)

    def _dispatch(self, receiver: SLObject, name: str, args: list, span: SourceSpan):
        info = self.res.classes.get(receiver.cls_name)
        while info is not None:
            minfo = info.methods.get((name, len(args)))
            if minfo is not None:
                return self._invoke(minfo.decl_class(self.res), minfo.decl, receiver, args, span)
            info = self.res.classes.get(info.base) if info.base else None
        # builtin Thread methods reached dynamically
        return self._thread_builtin(receiver, name, args, span)

    def _thread_builtin(self, receiver: SLObject, name: str, args: list, span: SourceSpan):
        if name == "start":
            return self._dispatch_run(receiver, span)
        if name == "run":
            return None
        if name in ("wait", "sleep"):
            return None
        if name == "getName":
            return receiver.cls_name
        raise InterpreterError(f"{span}: no method {name}/{len(args)} on {receiver.cls_name}")

    def _dispatch_run(self, receiver: SLObject, span: SourceSpan):
        info = self.res.classes.get(receiver.cls_name)
        while info is not None:
            minfo = info.methods.get(("run", 0))
            if minfo is not None:
                return self._invoke(minfo.decl_class(self.res), minfo.decl, receiver, [], span)
            info = self.res.classes.get(info.base) if info.base else None
        return None

    def _call_builtin(self, expr: ast.Call, builtin_id: str, frame: "_Frame"):
        name = builtin_id.split(":", 1)[1]
        if name.startswith("Thread."):
            method = name.split(".", 1)[1]
            if expr.receiver is not None:
                receiver = self._eval(expr.receiver, frame)
                if receiver is None:
                    self._fault(FAULT_NULL_DEREFERENCE, expr.span, f"{method}() on null")
            else:
                receiver = frame.receiver
            args = [self._eval(a, frame) for a in expr.args]
            if isinstance(receiver, SLObject):
                return self._thread_builtin(receiver, method, args, expr.span)
            return None
        if name.startswith("Stream."):
            method = name.split(".", 1)[1]
            receiver = self._eval(expr.receiver, frame) if expr.receiver is not None else None
            args = [self._eval(a, frame) for a in expr.args]
            if receiver is None:
                self._fault(FAULT_NULL_DEREFERENCE, expr.span, f"{method}() on a null stream")
            if not isinstance(receiver, SLStream):
                raise InterpreterError(f"{expr.span}: {method}() on non-stream")
            if method == "close":
                receiver.closed = True
                return None
            buf, off, length = args
            return self._stream_read(receiver, buf, off, length, expr.span)
        args = [self._eval(a, frame) for a in expr.args]
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
                self._fault(FAULT_NULL_DEREFERENCE, expr.span, "parseInt(null)")
            try:
                return self._wrap_int(int(str(text).strip()), expr.span)
            except ValueError:
                raise InterpreterError(f"{expr.span}: parseInt({text!r}) is not a number")
        if name == "length":
            text = args[0]
            if text is None:
                self._fault(FAULT_NULL_DEREFERENCE, expr.span, "length(null)")
            return len(text)
        if name == "open":
            path = args[0]
            if path is None:
                self._fault(FAULT_NULL_DEREFERENCE, expr.span, "open(null)")
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
                self._fault(FAULT_NULL_DEREFERENCE, expr.span, "exists(null)")
            return path in (self.options.file_system_stub or {})
        if name == "random":
            return self.rng.random()
        if name == "fail":
            unit_name, stmt_text, message = args
            record = AssertionRecord(
                unit_name=str(unit_name),
                statement_text=str(stmt_text),
                span=expr.span,
                message=format_value(message),
                outcome="failed",
            )
            if self.options.assertions_enabled:
                self.trace.assertion_records.append(record)
            self._fault(FAULT_ASSERTION_FAILURE, expr.span, format_value(message))
        raise InterpreterError(f"{expr.span}: unknown builtin {name}")

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


class _Frame:
    __slots__ = ("receiver", "scopes")

    def __init__(self, receiver: SLObject | None, first_scope: dict):
        self.receiver = receiver
        self.scopes: list[dict] = [first_scope]

    def load(self, name: str, span: SourceSpan):
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        raise InterpreterError(f"{span}: variable {name} not bound")

    def store(self, name: str, value, span: SourceSpan) -> None:
        for scope in reversed(self.scopes):
            if name in scope:
                scope[name] = value
                return
        raise InterpreterError(f"{span}: variable {name} not bound")


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

"""An interpreter that runs each SL method as one generated Python function.

Before an `execute` call runs anything, every function of the unit is
built as `ast` nodes: each method's, and each class's static initializer,
instance field initializer and implicit constructor.  All of them are
compiled as one module, with one compile() call.  The functions of a run
share one namespace, their globals, and are dropped with it.  SL
locals and parameters are Python locals (`v<slot>`, in the slots the
resolver numbered, `v0` being this).  An SL call is a Python call of the
callee's function with the depth of the call, the call site's number and
the arguments, so an SL call is one Python frame and the host's recursion
limit is left alone.  A virtual call looks its function up by the
receiver's class in a table per method name and arity.

Every value an expression of an accepted unit yields inhabits the type the
resolver gave it (tests/test_soundness.py), so the code has no guard
against a type error, and the types choose what would otherwise be tested
at run time: a store, initializer, return or argument converts its value
only where its type and the slot's differ (_Gen._convert); an arithmetic
operator takes its int or double code from its own type; == and != compare
objects and arrays by identity.

The checks are inline: the int range check after each int operator, the
null (_Gen._non_null), bounds and zero-divisor checks, the call-depth check
at the top of each function, the branch counters and each instruction's
step, next(N), which raises StopIteration past max_steps.  Every generated
call carries its instruction's line.  A straight run of simple statements
ends in a probe that marks it (_Gen._end_run), and at a halt each frame's
run is marked up to its line (_mark_stack).  The cold paths and the cold
constructs (faults, object and array creation, threads and streams) call
helpers of the run.

Operands run in Java's order: the receiver, or the array and then the
index, before the arguments or the right-hand side, and the null and bounds
checks after all of them (_Gen._operands).

Runtime faults (out-of-bounds access, null dereference, assertion failure,
missing return, step limit, and the run-time errors Java throws for an
integer division by zero, a negative array size, a malformed parseInt
and a read after close) halt the run and are recorded; fixed-width
integer overflow is recorded as a warning and execution continues with the
wrapped value.  Double arithmetic follows IEEE 754, as Java's does.

CPython compiles at most 20 statically nested loops in one function, so a
loop that would be the 18th becomes a local function called in its place
(_Gen._outline; docs/GRAMMAR.md).
"""

from __future__ import annotations

import ast as py
import itertools
import math
import random as _random
import re
from decimal import Decimal

from ..records import field, record
from ..errors import EntryNotFoundError
from ..frontend import ast
from ..frontend.lexer import SourceSpan
from ..frontend.printer import expr_text
from ..semantics import types as ty
from ..semantics.types import INT_MAX, INT_MIN
from ..semantics.resolver import Builtin, Resolution, param_types
from ..cfg import FALSE_BRANCH, NO_MATCH, SWITCH_CASE, TRUE_BRANCH, UnitCfgs
from ..cfg import assert_failure, branch_key, case_label, method_identity

BYTE_MIN, BYTE_MAX = -128, 127

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


_FELL = object()  # what an outlined loop returns when it falls through


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
_ELEMENT_DEFAULTS = {str(t): value for t, value in _DEFAULTS.items()}

# A loop nested deeper than this in one function is outlined (see above).
_MAX_LOOPS = 17


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
        self.ordinals = 0
        # Generated code and its tables, built before the run and dropped with it.
        self.sites: list[SourceSpan] = []  # call sites and fault spans, by number
        self.site_numbers: dict[SourceSpan, int] = {}
        self.counters: list[tuple[tuple[int, str], str]] = []  # (branch key, counter global)
        self.spans: dict[int, SourceSpan] = {}  # instruction id -> the span its step faults at
        self.runs: list[list[int]] = []  # each straight run's instruction ids, in order
        self.counted: list[tuple[int, str]] = []  # (run, the counter of the branch it opens)
        self.vtables: dict[tuple[str, int], str] = {}  # (name, arity) -> the global of its table
        self.layouts: dict[str, tuple] = {}  # class -> (field defaults, initializers, implicit constructor)
        self.temps = 0
        self.ns = self._namespace()
        # Nodes the generated functions share: names, constants and d + 1.
        self.nodes: dict = {}  # constants
        self.loads: dict[str, py.Name] = {}
        self.stores: dict[str, py.Name] = {}
        self.one = _Const(1, None)
        self.deeper = _BinOp(_Name("d", _LOAD), _ADD, self.one)

    def _namespace(self) -> dict:
        """The globals of the run's generated functions: the steps left,
        the statics and the helpers they call."""
        steps = itertools.repeat(True, self.options.max_steps)  # its length hint is the steps left
        ns = {"N": steps, "_FELL": _FELL, "__builtins__": {"len": len, "str": str, "float": float, "next": next}}
        for cls in self.unit.classes:
            for fld in cls.fields:
                if fld.static:
                    ns[f"s{fld.uid}"] = _DEFAULTS.get(self.res.decl_symbols[fld.uid].declared_type)
        for name in (
            "_m", "_w", "_npe", "_aget", "_quot", "_rem", "_deep", "_halt", "_new", "_newarr", "_failed",
        ):
            ns[name] = getattr(self, name)
        ns.update(_fmt=format_value, _dt=_double_text, _ddiv=_double_quotient, _drem=_double_remainder)
        ns["_record"] = self.trace.assertion_records.append
        for (owner, name), implementation in self._BUILTINS.items():
            ns[f"B_{owner}_{name}"] = implementation.__get__(self)
        return ns

    # -- trace plumbing ------------------------------------------------------

    def _fault(self, kind: str, span: SourceSpan | None, detail: str, halt: bool = True):
        self.trace.faults.append(Fault(kind, span, detail))
        if halt:
            raise _Halt()

    def _m(self, r: int) -> None:
        """The probe of run r, on its first pass: mark the run."""
        self.trace.executed_instruction_ids.update(self.runs[r])
        self.ns[f"P{r}"] = False

    def _mark_stack(self, tb) -> tuple[dict[int, int], int | None]:
        """Mark each generated frame of a halt's traceback tb up to the
        instruction its line names, in its run.  Return how many frames
        halted inside each run, and the innermost frame's instruction."""
        ran, halted, innermost = self.trace.executed_instruction_ids, {}, None
        run_of = {iid: r for r, run in enumerate(self.runs) for iid in run}
        while tb is not None:
            iid = tb.tb_lineno - 2
            if tb.tb_frame.f_globals is self.ns and iid >= 0:
                innermost, r = iid, run_of.get(iid)
                run = [iid] if r is None else self.runs[r]  # a decision stands alone
                ran.update(run[: run.index(iid) + 1])
                halted[r] = halted.get(r, 0) + 1
            tb = tb.tb_next
        return halted, innermost

    def _harvest(self, halted: dict[int, int]) -> None:
        """Move the step count and the branch counts into the trace, with
        the marks they imply: each decision with a branch taken, and each
        run that opens a branch taken more often than frames halted inside
        it; and the methods entered: those of which an instruction ran."""
        ns, trace = self.ns, self.trace
        ran = trace.executed_instruction_ids
        trace.steps += self.options.max_steps - ns["N"].__length_hint__()
        for key, name in self.counters:
            if ns[name]:
                trace.branch_outcomes[key] = trace.branch_outcomes.get(key, 0) + ns[name]
                ran.add(key[0])
        for r, name in self.counted:
            if ns[name] > halted.get(r, 0):
                ran.update(self.runs[r])
        trace.entered_methods.update(m for m, cfg in self.cfgs.cfgs.items() if not ran.isdisjoint(cfg.iids))

    def site(self, span: SourceSpan) -> int:
        """span's number among the run's call sites and fault spans."""
        number = self.site_numbers.get(span)
        if number is None:
            number = self.site_numbers[span] = len(self.sites)
            self.sites.append(span)
        return number

    # -- the cold paths of the generated code ----------------------------------

    def _w(self, value: int, k: int, bits: int = 32) -> int:
        """value wrapped into a signed integer of that many bits (an int 32,
        a byte 8); a value that does not fit records an overflow warning."""
        half = 1 << (bits - 1)
        if -half <= value < half:
            return value
        wrapped = (value + half) % (2 * half) - half
        detail = f"{bits}-bit result {value} wrapped to {wrapped}"
        self._fault(FAULT_OVERFLOW_WARNING, self.sites[k], detail, halt=False)
        return wrapped

    def _npe(self, k: int, detail: str):
        self._fault(FAULT_NULL_DEREFERENCE, self.sites[k], detail)

    def _halt(self, kind: str, k: int, detail: str):
        self._fault(kind, self.sites[k], detail)

    def _deep(self, k: int):
        self._halt(FAULT_STEP_LIMIT, k, f"call depth {self.options.max_call_depth} exceeded (runaway recursion)")

    def _aget(self, array, index, k: int, null: str = "indexing a null array"):
        """The fault of an element read, or store, that failed its inline check."""
        if array is None:
            self._npe(k, null)
        self._halt(FAULT_OUT_OF_BOUNDS, k, f"index {index} outside [0, {len(array.values) - 1}]")

    def _quot(self, a: int, b: int, k: int) -> int:
        """a / b where either is not positive: Java's int division, which
        rounds toward zero, faults on a zero divisor and overflows only for
        INT_MIN / -1."""
        if not b:
            self._halt(FAULT_ARITHMETIC, k, "integer division by zero")
        q = a // b if (a >= 0) == (b > 0) else -(-a // b)
        return q if q <= INT_MAX else self._w(q, k)

    def _rem(self, a: int, b: int, k: int) -> int:
        """a % b where either is not positive: the sign of a."""
        if not b:
            self._halt(FAULT_ARITHMETIC, k, "integer division by zero")
        r = abs(a) % abs(b)
        return r if a >= 0 else -r

    def _newarr(self, elem: str, size: int, k: int) -> SLArray:
        if size < 0:
            self._halt(FAULT_NEGATIVE_ARRAY_SIZE, k, f"array size {size} is negative")
        self.ordinals += 1
        return SLArray(elem=elem, values=[_ELEMENT_DEFAULTS.get(elem)] * size, ordinal=self.ordinals)

    def _failed(self, passed: AssertionRecord, message) -> None:
        """The failure of the assert whose pass records passed."""
        detail = format_value(message)
        record = AssertionRecord(passed.unit_name, passed.statement_text, passed.span, detail, "failed")
        self.trace.assertion_records.append(record)
        self._fault(FAULT_ASSERTION_FAILURE, passed.span, detail)

    # -- program start --------------------------------------------------------

    def run(self) -> RunTrace:
        entry_method = self._find_entry()  # before any class is initialized, as Java's launcher does
        halted = {}
        try:
            self._generate()
            for cls in self.unit.classes:
                if (statics := self.ns.get(f"c{cls.uid}")) is not None:
                    statics(0)
            args = [self._newarr(str(ty.STRING), 0, 0)] if entry_method.params else []
            self.ns[f"m{entry_method.uid}"](1, self.site(entry_method.span), *args)
        except (_Halt, StopIteration, RecursionError) as halt:
            halted, iid = self._mark_stack(halt.__traceback__)
            if isinstance(halt, StopIteration):  # the step past max_steps, which N does not count
                self.trace.steps = 1
                detail = f"step limit {self.options.max_steps} exceeded"
                self._fault(FAULT_STEP_LIMIT, self.spans[iid], detail, halt=False)
            elif isinstance(halt, RecursionError):
                self._fault(
                    FAULT_STEP_LIMIT,
                    None,
                    "the program nests calls deeper than the host's recursion limit allows"
                    f" before reaching max_call_depth {self.options.max_call_depth}",
                    halt=False,
                )
        self._harvest(halted)
        # The functions and the helpers bound into the namespace hold each
        # other and the interpreter: clear it, so the run leaves no cycle.
        self.ns.clear()
        return self.trace

    def _find_entry(self) -> ast.MethodDecl:
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
        return method

    # -- methods, dispatch and objects ------------------------------------------

    def _generate(self) -> None:
        """Generate every function of the unit, compile them as one module
        into the namespace, and fill the virtual-call tables and each
        class's layout from it: the defaults of the instance fields of the
        whole chain, each class's initializer function (i<class uid>), base
        first, and the function of the constructor the class gets where it
        declares none (n<class uid>), else None."""
        functions, ns, classes = [], self.ns, self.res.classes
        for cls in self.unit.classes:
            statics = [fld for fld in cls.fields if fld.static and fld.initializer is not None]
            if statics:
                functions.append(_Gen(self, cls.name).statics(statics, f"c{cls.uid}"))
            fields = [fld for fld in cls.fields if not fld.static and fld.initializer is not None]
            if fields:
                functions.append(_Gen(self, cls.name).fields(fields, f"i{cls.uid}"))
            if not classes[cls.name].ctors:
                functions.append(_Gen(self, cls.name).implicit(cls, f"n{cls.uid}"))
            functions += [_Gen(self, cls.name).method(decl, f"m{decl.uid}") for decl in cls.methods]
        exec(compile(py.Module(functions, []), f"<{self.unit.file}>", "exec"), ns)
        for key, name in self.vtables.items():
            ns[name] = {c: ns[f"m{info.dispatch[key].decl.uid}"] for c, info in classes.items() if key in info.dispatch}
        for class_name, info in classes.items():
            defaults, inits = {}, []
            for above in reversed(self.res.ancestors(class_name)):
                for fld in above.decl.fields:
                    if not fld.static:
                        defaults[fld.uid] = _DEFAULTS.get(self.res.decl_symbols[fld.uid].declared_type)
                if (init := ns.get(f"i{above.decl.uid}")) is not None:
                    inits.append(init)
            self.layouts[class_name] = (defaults, inits, ns.get(f"n{info.decl.uid}"))

    def vtable(self, key: tuple[str, int]) -> str:
        """The global naming the table of a virtual call's functions by the
        receiver's class, which _generate fills from each class's dispatch."""
        return self.vtables.setdefault(key, f"V{len(self.vtables)}")

    def _new(self, d: int, k: int, class_name: str, *args) -> SLObject:
        self.ordinals += 1
        defaults, inits, implicit = self.layouts[class_name]
        # Every field holds its default before any initialiser runs (JLS
        # 12.5), so a base initialiser calling an override sees them all.
        obj = SLObject(cls_name=class_name, fields=dict(defaults), ordinal=self.ordinals)
        for init in inits:
            init(d, obj)
        if implicit is not None:
            implicit()
        else:
            ctor = self.res.classes[class_name].ctors[len(args)].decl
            self.ns[f"m{ctor.uid}"](d + 1, k, obj, *args)
        return obj

    # -- builtins ---------------------------------------------------------------
    #
    # Each builtin's implementation: (interpreter, depth, call site number,
    # receiver or None, argument...) -> its result, bound to the run as the
    # global B_<owner>_<name>.

    def _b_println(self, d, k, receiver, value):
        self.trace.stdout.append(format_value(value))

    def _b_read_line(self, d, k, receiver):
        if self.stdin_pos < len(self.stdin):
            self.stdin_pos += 1
            return self.stdin[self.stdin_pos - 1]
        return None

    def _b_parse_int(self, d, k, receiver, text):
        """Integer.parseInt: an optional sign, then decimal digits, with the
        value in int range."""
        # More than ten significant digits is out of range, and Python would
        # refuse to convert thousands of them.
        fits = _INT_TEXT.fullmatch(text) is not None and len(text.lstrip("+-0")) <= 10
        if not fits or not INT_MIN <= int(text) <= INT_MAX:
            self._halt(FAULT_NUMBER_FORMAT, k, f"parseInt({text!r}) is not a number")
        return int(text)

    def _b_length(self, d, k, receiver, text):
        """String.length(): UTF-16 code units, two for a character past U+FFFF."""
        return len(text.encode("utf-16-le", "surrogatepass")) // 2

    def _b_open(self, d, k, receiver, path):
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

    def _b_start(self, d, k, receiver):  # runs run() to its end, in this thread
        run = self.res.classes[receiver.cls_name].dispatch.get(("run", 0))
        if run is not None:
            self.ns[f"m{run.decl.uid}"](d + 1, k, receiver)

    def _b_read(self, d, k, stream, buf, off, length):
        if stream.closed:
            self._halt(FAULT_CLOSED_STREAM, k, "read() on a closed stream")
        if off < 0 or length < 0 or off + length > len(buf.values):
            self._halt(
                FAULT_OUT_OF_BOUNDS,
                k,
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

    def _b_close(self, d, k, stream):
        stream.closed = True

    def _b_nothing(self, d, k, receiver, *args):  # run, wait and sleep
        return None

    # (owner, name) -> implementation, for every key of resolver.BUILTINS.
    _BUILTINS = {
        (None, "println"): _b_println,
        (None, "readLine"): _b_read_line,
        (None, "parseInt"): _b_parse_int,
        (None, "open"): _b_open,
        (None, "random"): lambda self, d, k, receiver: self.rng.random(),
        (None, "length"): _b_length,
        (None, "exists"): lambda self, d, k, receiver, path: path in (self.options.file_system_stub or {}),
        ("Thread", "start"): _b_start,
        ("Thread", "run"): _b_nothing,
        ("Thread", "wait"): _b_nothing,
        ("Thread", "sleep"): _b_nothing,
        ("Thread", "getName"): lambda self, d, k, receiver: receiver.cls_name,
        ("Stream", "read"): _b_read,
        ("Stream", "close"): _b_close,
    }


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


# -- generated code --------------------------------------------------------------
#
# The node classes the generator builds, each with a source position of its
# own class, so that a node needs no positions set one by one.  All four
# are set: compile() reads each, and a miss costs it more than a hit.


def _positioned(cls: type) -> type:
    return type(cls.__name__, (cls,), {"lineno": 1, "col_offset": 0, "end_lineno": 1, "end_col_offset": 0})


(_Name, _Const, _Call, _Attr, _Sub, _IfExp, _Compare, _BinOp, _UnaryOp, _BoolOp, _Walrus, _If, _While, _Assign,
 _AugAssign, _Expr, _Return, _Global, _Nonlocal, _Break, _FunctionDef, _Arg) = map(_positioned, (
    py.Name, py.Constant, py.Call, py.Attribute, py.Subscript, py.IfExp, py.Compare, py.BinOp, py.UnaryOp, py.BoolOp,
    py.NamedExpr, py.If, py.While, py.Assign, py.AugAssign, py.Expr, py.Return, py.Global, py.Nonlocal, py.Break,
    py.FunctionDef, py.arg))
_LOAD, _STORE = py.Load(), py.Store()
_NOT, _NEG, _AND, _OR = py.Not(), py.USub(), py.And(), py.Or()
_ADD, _SUB, _MUL, _FLOOR, _MOD = py.Add(), py.Sub(), py.Mult(), py.FloorDiv(), py.Mod()
_ARITHMETIC = {"+": _ADD, "-": _SUB, "*": _MUL}
_COMPARE = {
    "<": py.Lt(), "<=": py.LtE(), ">": py.Gt(), ">=": py.GtE(), "==": py.Eq(), "!=": py.NotEq(),
    "is": py.Is(), "is not": py.IsNot(),
}
_IN_RANGE = [_COMPARE["<="], _COMPARE["<="]]
_INSIDE = [_COMPARE["<="], _COMPARE["<"]]
_DIVIDES = [_COMPARE[">="], _COMPARE["<"]]  # a >= 0 < b: Python's // and % are Java's
# Python 3.12 added type_params to FunctionDef.
_NO_TYPE_PARAMS = {"type_params": []} if "type_params" in py.FunctionDef._fields else {}


class _Scope:
    """A Python function being generated: its parameters, the SL locals it
    assigns, the globals it stores and how deep its loops nest."""

    __slots__ = ("parent", "params", "assigned", "globals", "loops")

    def __init__(self, parent: _Scope | None, params: list[str]):
        self.parent, self.params = parent, params
        self.assigned: set[str] = set()
        self.globals: set[str] = set()
        self.loops = 0

    def bound(self) -> set[str]:
        """The names bound here and in the enclosing functions."""
        names = set(self.params) | self.assigned
        return names | self.parent.bound() if self.parent else names


class _Gen:
    """Generates the Python function of one method, or of a class's
    initializers.  A statement appends Python statements to body.  An
    expression returns a Python expression, whose evaluation the caller
    places, and appends to body the statements that must run before it:
    temporaries and the statements of assignments, && and ||."""

    def __init__(self, st: Interpreter, owner: str):
        self.st, self.res, self.owner = st, st.res, owner
        self.body: list = []
        self.scope = _Scope(None, [])
        self.stores: list[str] = []  # the SL locals stored so far, in order
        self.level = 0  # how deep the expression being generated nests
        self.run: list[int] = []  # the open run's instruction ids; none is open where empty
        self.opener: str | None = None  # the counter of the branch the open run opens
        self.line = 1  # the line of the instruction being generated; 1 names none

    # -- functions -------------------------------------------------------------

    def method(self, decl: ast.MethodDecl, name: str) -> py.FunctionDef:
        slots = [] if decl.is_static else ["v0"]
        params = ["d", "k", *slots, *(f"v{self.res.decl_symbols[p.uid].slot}" for p in decl.params)]
        self.scope.params = params
        max_depth = self._const(self.st.options.max_call_depth)
        self.emit(_If(self._compare(self._name("d"), ">", max_depth), [self._effect("_deep", self._name("k"))], []))
        self._stmt(decl.body)
        ident = method_identity(self.owner, decl)
        cfg = self.st.cfgs.cfgs[ident]
        implicit = cfg.implicit_return_iid  # None where the end cannot be reached
        if implicit is not None:
            span = self.st.cfgs.instr_spans[implicit]
            self._step_at(implicit, span)
            if ty.from_type_ref(decl.return_type) != ty.VOID_T:
                missing = f"{ident} reached its end without returning a value"
                kind = self._const(FAULT_MISSING_RETURN)
                self.emit(self._effect("_halt", kind, self._site(span), self._const(missing)))
        return self._function(name, self.scope, self.body)

    def statics(self, fields: list[ast.FieldDecl], name: str) -> py.FunctionDef:
        """c<class uid>(d): each static initializer's step and store."""
        self.scope.params = ["d"]
        for fld in fields:
            self._step(fld)
            value = self._expr(fld.initializer, self.res.decl_symbols[fld.uid].declared_type, fld.span)
            self.scope.globals.add(f"s{fld.uid}")
            self.emit(_Assign([self._name(f"s{fld.uid}", _STORE)], value, None))
        return self._function(name, self.scope, self.body)

    def implicit(self, cls: ast.ClassDecl, name: str) -> py.FunctionDef:
        """n<class uid>(): the step of the constructor a class without one gets."""
        self._step(cls)
        return self._function(name, self.scope, self.body)

    def fields(self, fields: list[ast.FieldDecl], name: str) -> py.FunctionDef:
        """i<class uid>(d, v0): the class's own instance field initializers."""
        self.scope.params = ["d", "v0"]
        for fld in fields:
            value = self._expr(fld.initializer, self.res.decl_symbols[fld.uid].declared_type, fld.span)
            self.emit(_Assign([self._field(self._name("v0"), fld.uid, _STORE)], value, None))
        return self._function(name, self.scope, self.body)

    def _function(self, name: str, scope: _Scope, body: list) -> py.FunctionDef:
        self._end_run()  # the last run of a function generated into self.body
        head = []
        if scope.globals:
            head.append(_Global(sorted(scope.globals)))
        if scope.parent is not None and (shared := scope.assigned & scope.parent.bound()):
            head.append(_Nonlocal(sorted(shared)))
        args = py.arguments([], [_Arg(p, None, None) for p in scope.params], None, [], [], None, [])
        return _FunctionDef(name, args, head + body, [], None, None, **_NO_TYPE_PARAMS)

    # -- nodes -----------------------------------------------------------------

    def emit(self, stmt) -> None:
        self.body.append(stmt)

    def _name(self, name: str, ctx=_LOAD):
        """The run's one Name node of name in ctx."""
        nodes = self.st.loads if ctx is _LOAD else self.st.stores
        node = nodes.get(name)
        if node is None:
            node = nodes[name] = _Name(name, ctx)
        return node

    def _const(self, value):
        nodes = self.st.nodes
        key = (type(value), repr(value) if type(value) is float else value)
        node = nodes.get(key)
        if node is None:
            node = nodes[key] = _Const(value, None)
        return node

    def _site(self, span: SourceSpan):
        return self._const(self.st.site(span))

    def bind(self, value) -> py.Name:
        """A global of the run holding value, for the generated code to call."""
        name = f"x{len(self.st.ns)}"
        self.st.ns[name] = value
        return self._name(name)

    def _call(self, function, *args):
        """A call of function, a global's name or a node, on the line of its instruction (_next)."""
        function = self._name(function) if type(function) is str else function
        return _Call(function, list(args), [], lineno=self.line, end_lineno=self.line)

    def _effect(self, function: str, *args):
        return _Expr(self._call(function, *args))

    def _compare(self, left, op: str, right):
        return _Compare(left, [_COMPARE[op]], [right])

    def _field(self, obj, uid: int, ctx=_LOAD):
        return _Sub(_Attr(obj, "fields", _LOAD), self._const(uid), ctx)

    def _element(self, array, index) -> tuple:
        """(array.values, the test that array is not null and holds index)."""
        values = _Attr(array, "values", _LOAD)
        inside = _Compare(self._const(0), _INSIDE, [index, self._call("len", values)])
        return values, _BoolOp(_AND, [self._compare(array, "is not", self._const(None)), inside])

    def _temp(self) -> str:
        self.st.temps += 1
        return f"t{self.st.temps}"

    def _simple(self, value):
        """value as a name or a constant, which reads the same each time:
        a temporary that holds anything else."""
        if type(value) is _Name or type(value) is _Const:
            return value
        name = self._temp()
        self.emit(_Assign([self._name(name, _STORE)], value, None))
        return self._name(name)

    def _discard(self, value) -> None:
        """Run value for its effects: a name or a constant has none."""
        if type(value) is not _Name and type(value) is not _Const:
            self.emit(_Expr(value))

    def _nested(self, generate) -> list:
        """The statements generate() appends, in a list of their own."""
        outer, line, self.body = self.body, self.line, []
        generate()
        inner, self.body, self.line = self.body, outer, line
        return inner

    def _block(self, stmts: list, key: tuple[int, str] | None = None) -> list:
        """The statements of stmts, after the counter of branch key where
        they are one, in a list of their own that ends its runs: as
        _nested, without its closure's frame, which 200 nested blocks
        cannot spare under the default recursion limit."""
        outer, line, self.body = self.body, self.line, []
        if key is not None:
            self.emit(self._counter(key, opens=True))
        for stmt in stmts:
            self._STMTS[type(stmt)](self, stmt)
        self._end_run()
        inner, self.body, self.line = self.body, outer, line
        return inner

    def _checked(self, value, span: SourceSpan, bits: int = 32, side: str = ""):
        """value, an int, wrapped where it leaves the range of its bits; a
        side of "<=" or ">=" tests only that bound, the one value can cross."""
        low, high, bits = (INT_MIN, INT_MAX, ()) if bits == 32 else (BYTE_MIN, BYTE_MAX, (self._const(8),))
        name = self._temp()
        store, load = _Name(name, _STORE), _Name(name, _LOAD)
        if side:
            test = self._compare(_Walrus(store, value), side, self._const(high if side == "<=" else low))
        else:
            test = _Compare(self._const(low), _IN_RANGE, [_Walrus(store, value), self._const(high)])
        return _IfExp(test, load, self._call("_w", load, self._site(span), *bits))

    # -- statements --------------------------------------------------------------

    def _stmt(self, stmt: ast.Stmt) -> None:
        self._STMTS[type(stmt)](self, stmt)

    def _step(self, node: ast.Node) -> int:
        """Append node's step (_step_at) and return its instruction id."""
        iid = self.st.cfgs.stmt_iids[node.uid]
        self._step_at(iid, node.span)
        return iid

    def _step_at(self, iid: int, span: SourceSpan) -> None:
        """Append the step of instruction iid, a simple statement, in the open run."""
        self.run.append(iid)
        self.emit(_Expr(self._next(iid, span)))

    def _next(self, iid: int, span: SourceSpan):
        """next(N), the step of instruction iid, which faults at span past
        max_steps.  It and the calls generated after it carry iid's line."""
        self.st.spans[iid] = span
        self.line = iid + 2
        return self._call("next", self._name("N"))

    def _stepped(self, stmt: ast.Stmt, cond: ast.Expr | None) -> tuple:
        """(iid, test) of a decision, which ends the open run: its step, then
        its condition, if any.  Where the condition appends no statements,
        the test is `next(N) and <condition>`; else the step comes first."""
        self._end_run()
        iid = self.st.cfgs.stmt_iids[stmt.uid]
        step = self._next(iid, stmt.span)
        if cond is None:
            return iid, step
        outer, self.body = self.body, []
        test = self._condition(cond)
        if self.body:
            self.body = [*outer, _Expr(step), *self.body]
        else:
            self.body, test = outer, _BoolOp(_AND, [step, test])
        return iid, test

    def _end_run(self) -> None:
        """Close the open run.  One that opens a branch is complete where its
        counter exceeds the frames halted inside it (Interpreter._harvest);
        any other ends in its probe, `P<r> and _m(r)`."""
        run, opener, self.run, self.opener = self.run, self.opener, [], None
        if run:
            st, r = self.st, len(self.st.runs)
            st.runs.append(run)
            if opener is not None:
                st.counted.append((r, opener))
            else:
                st.ns[f"P{r}"] = True
                self.emit(_Expr(_BoolOp(_AND, [_Name(f"P{r}", _LOAD), self._call("_m", _Const(r, None))])))

    def _counter(self, key: tuple[int, str], opens: bool = False):
        """The statement that counts one take of a branch, and with opens
        each entry into the run that opens the branch."""
        name = f"T{len(self.st.counters)}"
        if opens:
            self.opener = name
        self.st.counters.append((key, name))
        self.st.ns[name] = 0
        self.scope.globals.add(name)
        return _AugAssign(_Name(name, _STORE), _ADD, self.st.one)

    def _s_block(self, stmt: ast.Block) -> None:
        for inner in stmt.stmts:
            self._stmt(inner)

    def _s_expr(self, stmt: ast.ExprStmt) -> None:
        self._step(stmt)
        self._discard(self._expr(stmt.expr))

    def _s_local(self, stmt: ast.LocalDecl) -> None:
        self._step(stmt)
        sym = self.res.decl_symbols[stmt.uid]
        if stmt.initializer is None:
            value = self._const(_DEFAULTS.get(sym.declared_type))
        else:
            value = self._expr(stmt.initializer, sym.declared_type, stmt.span)
        self._store_local(sym.slot, value)

    def _s_return(self, stmt: ast.Return) -> None:
        self._step(stmt)
        returns = ty.from_type_ref(self.res.method_of(stmt).return_type)
        value = self._expr(stmt.value, returns, stmt.span) if stmt.value is not None else self._const(None)
        self._end_run()
        self.emit(_Return(value))

    def _s_if(self, stmt: ast.If) -> None:
        iid, test = self._stepped(stmt, stmt.cond)
        then = self._block(stmt.then.stmts, (iid, TRUE_BRANCH))
        els = stmt.els.stmts if type(stmt.els) is ast.Block else [stmt.els] if stmt.els else []
        self.emit(_If(test, then, self._block(els, (iid, FALSE_BRANCH))))

    def _s_while(self, stmt: ast.While) -> None:
        self._loop(stmt, stmt.cond, None)

    def _s_for(self, stmt: ast.For) -> None:
        if stmt.init is not None:
            self._stmt(stmt.init)
        self._loop(stmt, stmt.cond, stmt.update)

    def _loop(self, stmt, cond: ast.Expr | None, update: ast.Expr | None) -> None:
        """A while or for loop: each test is a step of the loop's
        instruction, then the test; then the body and the update."""
        self._end_run()
        if self.scope.loops == _MAX_LOOPS:
            return self._outline(stmt, lambda: self._loop(stmt, cond, update))
        self.scope.loops += 1
        outer, line, self.body = self.body, self.line, []
        iid, test = self._stepped(stmt, cond)
        if self.body:  # the test appends statements: while True, and break where it fails
            loop_test, exits = self._const(True), []
            self.emit(_If(_UnaryOp(_NOT, test), [self._counter((iid, FALSE_BRANCH)), _Break()], []))
        else:  # the loop ends only where its test fails
            loop_test, exits = test, [self._counter((iid, FALSE_BRANCH))]
        self.emit(self._counter((iid, TRUE_BRANCH), opens=True))
        for inner in stmt.body.stmts:
            self._STMTS[type(inner)](self, inner)
        if update is not None:
            self._step(update)
            self._discard(self._expr(update))
        self._end_run()
        loop, self.body, self.line = self.body, outer, line
        self.emit(_While(loop_test, loop, []))
        self.body += exits
        self.scope.loops -= 1

    def _outline(self, stmt: ast.Stmt, generate) -> None:
        """Run stmt in a local function o<uid> of its own, which returns
        _FELL where stmt falls through; any other value is returned."""
        outer, self.scope = self.scope, _Scope(self.scope, [])
        body = self._nested(generate)
        body.append(_Return(self._name("_FELL")))
        name = f"o{stmt.uid}"
        self.emit(self._function(name, self.scope, body))
        self.scope = outer
        result = self._simple(self._call(name))
        self.emit(_If(self._compare(result, "is not", self._name("_FELL")), [_Return(result)], []))

    def _s_switch(self, stmt: ast.Switch) -> None:
        """An if chain over the labelled cases, in order, and the default or
        the count of no match last.  A case runs its own body only, but may
        read a local of an earlier case (the switch block is one scope), so
        each such local first holds its type's default."""
        iid, step = self._stepped(stmt, None)
        self.emit(_Expr(step))
        subject = self._simple(self._expr(stmt.subject))
        if self.res.types[stmt.subject.uid] is ty.STRING:  # its equals() dereferences it
            self._discard(self._non_null(subject, stmt.subject.span, "switch on a null String"))
        for decl in (inner for case in stmt.cases for inner in case.body if type(inner) is ast.LocalDecl):
            sym = self.res.decl_symbols[decl.uid]
            self._store_local(sym.slot, self._const(_DEFAULTS.get(sym.declared_type)))
        arms, chain = [], None
        for i, case in enumerate(stmt.cases):
            body = self._block(case.body, (iid, branch_key(SWITCH_CASE, case_label(i, case))))
            if case.label is None:
                chain = body
            else:
                arms.append((self._expr(case.label), body))
        if chain is None:
            chain = [self._counter((iid, branch_key(SWITCH_CASE, NO_MATCH)))]
        for label, body in reversed(arms):
            chain = [_If(self._compare(subject, "==", label), body, chain)]
        self.body += chain

    def _s_try(self, stmt: ast.Try) -> None:
        # catches never execute: modeled faults halt the program
        self._stmt(stmt.body)
        if stmt.finally_block is not None:
            self._stmt(stmt.finally_block)

    def _s_assert(self, stmt: ast.Assert) -> None:
        """The check of an assert and, on its true branch, its failure.  With
        --ea off the check takes its false branch and evaluates neither the
        condition nor the message."""
        if not self.st.options.assertions_enabled:
            iid, step = self._stepped(stmt, None)
            self.body += [_Expr(step), self._counter((iid, FALSE_BRANCH))]
            return
        iid, test = self._stepped(stmt, stmt.condition)
        method = self.res.method_of(stmt)
        where = f"{self.res.parent(method).name}.{method.name}"
        # Every pass of one assert appends the same record.
        record = self.bind(AssertionRecord(where, f"assert {expr_text(stmt.condition)}", stmt.span, "", "passed"))
        passed = [self._counter((iid, FALSE_BRANCH)), self._effect("_record", record)]

        def failed():
            self.emit(self._counter((iid, TRUE_BRANCH), opens=True))
            self._step_at(assert_failure(iid), stmt.span)
            message = self._expr(stmt.message) if stmt.message is not None else self._const("")
            self.emit(self._effect("_failed", record, message))
            self._end_run()

        self.emit(_If(test, passed, self._nested(failed)))

    def _s_synchronized(self, stmt: ast.Synchronized) -> None:
        self._step(stmt)
        monitor = self._simple(self._expr(stmt.monitor))
        self._discard(self._non_null(monitor, stmt.monitor.span, "synchronized on null"))
        self._stmt(stmt.body)

    def _s_empty(self, stmt: ast.Empty) -> None:
        self._step(stmt)

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
        """An if's, while's, for's or assert's condition: a boolean, or an
        int literal, which folds to its truth."""
        truth = ast.literal_truth(expr)
        return self._expr(expr) if truth is None else self._const(truth)

    def _convert(self, value, expr: ast.Expr, t: ty.Type | None, span: SourceSpan | None):
        """value, expr's, converted for a store, an initializer, a return or
        an argument of type t (None takes any value): an int or byte into a
        double widens, and an int into a byte wraps."""
        source = self.res.types[expr.uid]
        if t is ty.DOUBLE and source in (ty.INT, ty.BYTE):
            return self._call("float", value)
        if t is ty.BYTE and source is ty.INT:
            return self._checked(value, span, 8)
        return value

    def _operands(self, operands: list, simple: bool = False) -> list:
        """The values of operands, in order: each an expression, or an
        (expression, type, span) to convert.  Where an operand appends
        statements, each earlier value they could change is first copied
        into a temporary: anything but a constant, a temporary and a local
        they do not store into.  simple makes each value a name or a
        constant (_simple), for a caller that reads it more than once."""
        values = []
        for operand in operands:
            mark, stores = len(self.body), len(self.stores)
            value = self._expr(*operand) if type(operand) is tuple else self._expr(operand)
            if simple:
                value = self._simple(value)
            if len(self.body) > mark:
                stored, copies = set(self.stores[stores:]), []
                for i, earlier in enumerate(values):
                    kind = type(earlier)
                    if kind is _Const or kind is _Name and earlier.id[0] in "tv" and earlier.id not in stored:
                        continue
                    name = self._temp()
                    copies.append(_Assign([self._name(name, _STORE)], earlier, None))
                    values[i] = self._name(name)
                self.body[mark:mark] = copies
            values.append(value)
        return values

    def _store_local(self, slot: int, value) -> None:
        name = f"v{slot}"
        self.emit(_Assign([self._name(name, _STORE)], value, None))
        self.stores.append(name)
        self.scope.assigned.add(name)

    # -- expressions -----------------------------------------------------------------

    def _expr(self, expr: ast.Expr, t: ty.Type | None = None, span: SourceSpan | None = None):
        """expr's value, converted to t (_convert).  Every 12 levels of
        nesting it goes into a temporary, which bounds how deep a Python
        expression nests."""
        self.level += 1
        value = self._convert(self._EXPRS[type(expr)](self, expr), expr, t, span)
        self.level -= 1
        return self._simple(value) if self.level % 12 == 11 else value

    def _e_name(self, expr: ast.Name):
        sym = self.res.name_targets[expr.uid]
        if sym.slot >= 0:  # a parameter, a local or this
            return self._name(f"v{sym.slot}")
        if sym.is_builtin:  # ASSERTIONS_ENABLED
            return self._const(self.st.options.assertions_enabled)
        if sym.static:
            return self._name(f"s{sym.decl_uid}")
        # A field of this: the resolver accepts one only where there is a this.
        return self._field(self._name("v0"), sym.decl_uid)

    def _e_unary(self, expr: ast.Unary):
        if expr.op == "-" and type(expr.operand) is ast.Literal:  # in range: no literal exceeds 2147483648
            return self._const(-expr.operand.value)
        operand = self._expr(expr.operand)
        if expr.op == "!":
            return _UnaryOp(_NOT, operand)
        if self.res.types[expr.uid] == ty.DOUBLE:
            return _UnaryOp(_NEG, operand)
        return self._checked(_UnaryOp(_NEG, operand), expr.span)  # an int or byte

    def _e_index(self, expr: ast.Index):
        array, index = self._operands([expr.array, expr.index], simple=True)
        values, test = self._element(array, index)
        return _IfExp(test, _Sub(values, index, _LOAD), self._call("_aget", array, index, self._site(expr.span)))

    def _e_field(self, expr: ast.FieldAccess):
        sym = self.res.field_targets[expr.uid]
        if sym.static:
            self._receiver_effect(expr.receiver)
            return self._name(f"s{sym.decl_uid}")
        obj = self._simple(self._expr(expr.receiver))
        return self._non_null(obj, expr.span, f"field '{expr.name}' of null", self._field(obj, sym.decl_uid))

    def _e_new_array(self, expr: ast.NewArray):
        size = self._expr(expr.size_expr)
        elem = str(self.res.types[expr.uid].elem)
        return self._call("_newarr", self._const(elem), size, self._site(expr.span))

    def _e_new(self, expr: ast.New):
        ctor = self.res.call_targets[expr.uid].method  # None: the implicit one
        args = self._operands(self._args(expr, param_types(ctor.decl) if ctor else ()))
        return self._call("_new", self._name("d"), self._site(expr.span), self._const(expr.class_name), *args)

    def _args(self, call: ast.Call | ast.New, params) -> list:
        """call's arguments, each converted to its parameter's type at the
        call site, as _operands takes them."""
        return [(e, t, call.span) for e, t in zip(call.args, params)]

    def _receiver_effect(self, receiver: ast.Expr | None) -> None:
        """Run the receiver of a static field or method for its effects; a
        class name is not a value and does not run."""
        if receiver is not None and not self.res.names_class(receiver):
            self._discard(self._expr(receiver))

    # -- operators -------------------------------------------------------------------

    def _e_binary(self, expr: ast.Binary):
        op = expr.op
        if op == "=":
            return self._assign(expr)
        if op in ("&&", "||"):
            return self._logical(expr)
        t, types = self.res.types[expr.uid], self.res.types
        sides = (types[expr.left.uid], types[expr.right.uid])
        if op == "+" and t is ty.STRING:
            left, right = self._operands([expr.left, expr.right], simple=ty.STRING in sides)
            return _BinOp(self._text(left, sides[0]), _ADD, self._text(right, sides[1]))
        left, right = self._operands([expr.left, expr.right], simple=op in ("/", "%") and t is ty.INT)
        if t is ty.INT:
            if op in _ARITHMETIC:
                # No literal is negative, so adding one, or taking anything
                # from one, can only pass the top, and taking one away the bottom.
                side = "" if op == "*" else ">=" if op == "-" and type(expr.right) is ast.Literal else "<="
                side = side if ast.Literal in (type(expr.left), type(expr.right)) else ""
                return self._checked(_BinOp(left, _ARITHMETIC[op], right), expr.span, side=side)
            # a zero divisor is Java's ArithmeticException, in the cold path
            fast = _BinOp(left, _FLOOR if op == "/" else _MOD, right)
            slow = self._call("_quot" if op == "/" else "_rem", left, right, self._site(expr.span))
            return _IfExp(_Compare(left, _DIVIDES, [self._const(0), right]), fast, slow)
        if t is ty.DOUBLE:
            if op in _ARITHMETIC:
                return _BinOp(left, _ARITHMETIC[op], right)
            return self._call("_ddiv" if op == "/" else "_drem", left, right)
        if op in ("==", "!=") and any(isinstance(side, (ty.ClassType, ty.ArrayType)) for side in sides):
            op = "is" if op == "==" else "is not"  # objects and arrays are equal only to themselves
        return self._compare(left, op, right)

    def _text(self, value, t: ty.Type):
        """value as string + prints it (format_value)."""
        if type(value) is _Const:
            return self._const(format_value(value.value))
        if t is ty.STRING:
            return _IfExp(self._compare(value, "is not", self._const(None)), value, self._const("null"))
        if t in (ty.INT, ty.BYTE):
            return self._call("str", value)
        return self._call("_fmt", value)

    def _logical(self, expr: ast.Binary):
        """&& and ||: the right operand, and the statements it appends, run
        only where the left one does not decide."""
        left = self._expr(expr.left)
        right = []
        right_stmts = self._nested(lambda: right.append(self._expr(expr.right)))
        if not right_stmts:
            return _BoolOp(_AND if expr.op == "&&" else _OR, [left, right[0]])
        name = self._temp()
        self.emit(_Assign([self._name(name, _STORE)], left, None))
        test = self._name(name) if expr.op == "&&" else _UnaryOp(_NOT, self._name(name))
        self.emit(_If(test, right_stmts + [_Assign([self._name(name, _STORE)], right[0], None)], []))
        return self._name(name)

    def _assign(self, expr: ast.Binary):
        """An assignment: it stores the right-hand side's value, converted
        to the target's type, and yields the value it stored."""
        target, span = expr.left, expr.left.span
        right = (expr.right, self.res.types[target.uid], span)
        if isinstance(target, ast.Name):
            sym = self.res.name_targets[target.uid]
            if sym.slot >= 0:
                self._store_local(sym.slot, self._expr(*right))
                return self._name(f"v{sym.slot}")
            if sym.static:
                return self._store(self._static(sym), self._expr(*right))
            return self._store(self._field(self._name("v0"), sym.decl_uid, _STORE), self._expr(*right))
        if isinstance(target, ast.Index):
            array, index, value = self._operands([target.array, target.index, right], simple=True)
            values, test = self._element(array, index)
            fault = self._effect("_aget", array, index, self._site(span), self._const("storing into a null array"))
            self.emit(_If(_UnaryOp(_NOT, test), [fault], []))
            self.emit(_Assign([_Sub(values, index, _STORE)], value, None))
            return value
        # The parser accepts no other target than a name, an element or a field.
        sym = self.res.field_targets[target.uid]
        if sym.static:
            self._receiver_effect(target.receiver)
            return self._store(self._static(sym), self._expr(*right))
        obj, value = self._operands([target.receiver, right], simple=True)
        obj = self._non_null(obj, span, f"field '{target.name}' of null")
        self.emit(_Assign([self._field(obj, sym.decl_uid, _STORE)], value, None))
        return value

    def _static(self, sym):
        """The store target of a static field."""
        name = f"s{sym.decl_uid}"
        self.scope.globals.add(name)
        return self._name(name, _STORE)

    def _store(self, target, value):
        """Store value into target, and yield it from a temporary."""
        name = self._temp()
        self.emit(_Assign([self._name(name, _STORE), target], value, None))
        return self._name(name)

    # -- calls --------------------------------------------------------------------------

    def _e_call(self, expr: ast.Call):
        target = self.res.call_targets[expr.uid]
        if target.builtin is not None:
            return self._builtin(expr, target.builtin)
        minfo = target.method
        args = self._args(expr, param_types(minfo.decl))
        site = self._site(expr.span)
        if minfo.decl.is_static:  # bound here, whatever the receiver holds
            self._receiver_effect(expr.receiver)
            return self._call(f"m{minfo.decl.uid}", self.st.deeper, site, *self._operands(args))
        # Virtual dispatch on the receiver, or on this for an unqualified call.
        if expr.receiver is None:
            receiver, values = self._name("v0"), self._operands(args)
        else:  # the null check comes after the arguments, so they are read first
            receiver, *values = self._operands([expr.receiver, *args], simple=True)
        table = self._name(self.st.vtable((expr.name, len(expr.args))))
        function = _Sub(table, _Attr(receiver, "cls_name", _LOAD), _LOAD)
        call = self._call(function, self.st.deeper, site, receiver, *values)
        if expr.receiver is None:  # this is never null
            return call
        return self._non_null(receiver, expr.span, f"{expr.name}() on null", call)

    def _builtin(self, expr: ast.Call, builtin: Builtin):
        """A builtin call, through its implementation B_<owner>_<name>:
        after all its operands, an instance builtin's receiver, and then
        each String or array argument, are null-checked."""
        args = self._args(expr, builtin.params)
        nulls = {  # argument index -> the detail of its null check
            i: f"{builtin.name}(null)" if t is ty.STRING else f"{builtin.name}() into a null buffer"
            for i, t in enumerate(builtin.params)
            if t is ty.STRING or isinstance(t, ty.ArrayType)
        }
        checked = []
        if builtin.static:
            self._receiver_effect(expr.receiver)
            receiver, values = self._const(None), self._operands(args, simple=bool(nulls))
        elif expr.receiver is None:  # this is never null
            receiver, values = self._name("v0"), self._operands(args, simple=bool(nulls))
        else:
            receiver, *values = self._operands([expr.receiver, *args], simple=True)
            null = "a null stream" if builtin.owner == "Stream" else "null"
            checked.append((receiver, f"{builtin.name}() on {null}"))
        checked += [(values[i], detail) for i, detail in nulls.items()]
        function = f"B_{builtin.owner}_{builtin.name}"
        call = self._call(function, self._name("d"), self._site(expr.span), receiver, *values)
        for value, detail in reversed(checked):
            call = self._non_null(value, expr.span, detail, call)
        return call

    def _non_null(self, value, span: SourceSpan, detail: str, then=None):
        """then (value by default) where value, a name or a constant, is not
        null, else the null_dereference fault; `"s" is not None` would warn."""
        then = value if then is None else then
        if type(value) is _Const and value.value is not None:
            return then
        fault = self._call("_npe", self._site(span), self._const(detail))
        return _IfExp(self._compare(value, "is not", self._const(None)), then, fault)

    _EXPRS = {
        ast.Literal: lambda self, expr: self._const(expr.value),
        ast.Null: lambda self, expr: self._const(None),
        ast.Name: _e_name,
        ast.Unary: _e_unary,
        ast.Binary: _e_binary,
        ast.Index: _e_index,
        ast.FieldAccess: _e_field,
        ast.NewArray: _e_new_array,
        ast.New: _e_new,
        ast.Call: _e_call,
    }


def execute(
    unit: ast.CompilationUnit, options: RunOptions, resolution: Resolution, cfgs: UnitCfgs
) -> RunTrace:
    """Run a resolved unit."""
    return Interpreter(unit, options, resolution, cfgs).run()

"""Array bound checking.

The analysis enumerates array declarations and their index expressions,
derives each index variable's legal range, marks the operations that can
move an index (assignments, input-derived values, arithmetic updates), and
judges loop limits against array extents.  `_assignment` finds what each
assignment sets; only one that sets a tracked index variable is classified
(constant, input or arithmetic) into a ModifyingSite.

One function, `_excess`, relates a value to an array's length.  For
`value op limit` with op < or <=, it returns how far the largest value the
comparison allows lies past the last legal index, length - 1: a constant
limit L against a constant length N gives L - (op == "<") - (N - 1), and the
array's size variable as the limit gives 1 - (op == "<").  It returns None
when the limit cannot be related to the length.  Every judgement uses it:

- A loop is safe at an excess <= 0, off by one at 1 and may exceed the
  array above 1.  An ascending loop is judged by its limit, a descending
  one by its start (`i = s` read as `i <= s`).
- Guard recognition is purely syntactic dominance.  An enclosing if/while
  condition that holds at the node and compares the subject (the index
  variable, a loop's limit variable or a constant index) with < or <=
  counts as a guard when its excess, less the loop's slack (1 for a loop
  bounded with <, else 0), is at most 0.  A loop whose limit cannot be
  related is safe when such a guard bounds its limit variable.
"""

from __future__ import annotations

from .records import field, record
from .frontend import ast
from .frontend.lexer import SourceSpan
from .semantics.resolver import BUILTINS, Resolution, Symbol, build_symbol_table
from .semantics import types as ty

SIZE_CONSTANT = "constant"
SIZE_VARIABLE = "variable"
SIZE_UNKNOWN = "unknown"

VERDICT_SAFE = "safe"
VERDICT_OFF_BY_ONE = "off_by_one"
VERDICT_MAY_EXCEED = "may_exceed"
VERDICT_UNVALIDATED = "unvalidated_variable_limit"

KIND_OUT_OF_RANGE = "index_out_of_legal_range"
KIND_OFF_BY_ONE = "off_by_one_loop"
KIND_UNVALIDATED_SOURCE = "unvalidated_index_source"
KIND_VARIABLE_LIMIT = "variable_limit_unchecked"
KIND_ZERO_LENGTH = "zero_length_possible"

_KIND_ORDER = {
    KIND_OUT_OF_RANGE: 0,
    KIND_OFF_BY_ONE: 1,
    KIND_UNVALIDATED_SOURCE: 2,
    KIND_VARIABLE_LIMIT: 3,
    KIND_ZERO_LENGTH: 4,
}


@record
class ArrayDecl:
    symbol: Symbol
    size_kind: str
    size_value: int | None = None
    size_symbol: Symbol | None = None
    references: list[ast.Index] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.symbol.name

    def legal_hi(self) -> int | None:
        return self.size_value - 1 if self.size_kind == SIZE_CONSTANT else None


@record
class ModifyingSite:
    span: SourceSpan
    kind: str  # constant | input | arithmetic
    value: int | None = None  # for constant assignments


@record
class IndexVarInfo:
    symbol: Symbol
    array: ArrayDecl
    legal_range: tuple[int, int | None]
    modifying_sites: list[ModifyingSite] = field(default_factory=list)
    v_marked: bool = False
    accesses: list[ast.Index] = field(default_factory=list)


@record
class LoopLimitCheck:
    loop_span: SourceSpan
    index_symbol: Symbol
    comparison: str | None  # < <= > >= or None when the loop never bounds it
    limit_kind: str | None  # constant | variable | None
    limit_value: int | None
    limit_symbol: Symbol | None
    verdict: str
    array: ArrayDecl
    loop: ast.Stmt = None  # type: ignore[assignment]


@record
class BoundFinding:
    kind: str
    span: SourceSpan
    array: ArrayDecl
    detail: str

    def sort_key(self):
        return (self.span.file, self.span.line, _KIND_ORDER[self.kind], self.span.column)


# -- phase 1: arrays -----------------------------------------------------------


def find_arrays(unit: ast.CompilationUnit, resolution: Resolution) -> list[ArrayDecl]:
    """One ArrayDecl per array-typed declaration, with every index reference."""
    arrays: dict[int, ArrayDecl] = {}
    order: list[ArrayDecl] = []
    for sym in resolution.symbols:
        if sym.is_builtin or not isinstance(sym.declared_type, ty.ArrayType):
            continue
        decl = ArrayDecl(symbol=sym, size_kind=SIZE_UNKNOWN)
        arrays[id(sym)] = decl
        order.append(decl)

    def note_allocation(sym: Symbol | None, alloc: ast.NewArray) -> None:
        decl = arrays.get(id(sym)) if sym is not None else None
        if decl is None:
            return
        size = _const_int(alloc.size_expr)
        if size is not None:
            if decl.size_kind == SIZE_UNKNOWN:
                decl.size_kind = SIZE_CONSTANT
                decl.size_value = size
            elif decl.size_kind == SIZE_CONSTANT and decl.size_value != size:
                decl.size_kind = SIZE_UNKNOWN
                decl.size_value = None
        elif isinstance(alloc.size_expr, ast.Name):
            size_sym = resolution.name_targets.get(alloc.size_expr.uid)
            if decl.size_kind == SIZE_UNKNOWN and size_sym is not None:
                decl.size_kind = SIZE_VARIABLE
                decl.size_symbol = size_sym

    for node in resolution.nodes_of(ast.LocalDecl, ast.FieldDecl, ast.Binary, ast.Index):
        if isinstance(node, (ast.LocalDecl, ast.FieldDecl)):
            if isinstance(node.initializer, ast.NewArray):
                note_allocation(resolution.decl_symbols.get(node.uid), node.initializer)
        elif isinstance(node, ast.Binary):
            if node.op == "=" and isinstance(node.right, ast.NewArray):
                note_allocation(_target_symbol(node.left, resolution), node.right)
        else:
            sym = _target_symbol(node.array, resolution)
            decl = arrays.get(id(sym)) if sym is not None else None
            if decl is not None:
                decl.references.append(node)
    return order


def _target_symbol(expr: ast.Expr, resolution: Resolution) -> Symbol | None:
    if isinstance(expr, ast.Name):
        return resolution.name_targets.get(expr.uid)
    if isinstance(expr, ast.FieldAccess):
        return resolution.field_targets.get(expr.uid)
    return None


def _const_int(expr: ast.Expr | None) -> int | None:
    if isinstance(expr, ast.Literal) and expr.kind == "int":
        return expr.value
    if isinstance(expr, ast.Unary) and expr.op == "-":
        inner = _const_int(expr.operand)
        return -inner if inner is not None else None
    return None


# -- phase 2: index variables ----------------------------------------------------


def track_index_vars(
    arrays: list[ArrayDecl], resolution: Resolution
) -> list[IndexVarInfo]:
    """Index-variable bookkeeping: ranges, accesses, modification sites."""
    infos: dict[tuple[int, int], IndexVarInfo] = {}
    for array in arrays:
        for ref in array.references:
            for name in resolution.subtree(ref.index):
                sym = resolution.name_targets.get(name.uid) if isinstance(name, ast.Name) else None
                if sym is None:
                    continue
                key = (id(sym), id(array))
                info = infos.get(key)
                if info is None:
                    hi = array.legal_hi()
                    info = IndexVarInfo(symbol=sym, array=array, legal_range=(0, hi))
                    infos[key] = info
                info.accesses.append(ref)
    result = list(infos.values())
    if not result:
        return result
    tracked: dict[int, list[IndexVarInfo]] = {}
    for info in result:
        tracked.setdefault(id(info.symbol), []).append(info)
    # Every site that can move a tracked variable; only those are classified.
    for node in resolution.nodes_of(ast.Binary, ast.LocalDecl):
        assigned = _assignment(node, resolution)
        if assigned is not None:
            infos = tracked.get(id(assigned[0]))
            if infos:
                site = ModifyingSite(node.span, *_classify_rhs(assigned[1], resolution))
                for info in infos:
                    info.modifying_sites.append(site)
    for info in result:
        info.v_marked = bool(info.modifying_sites) and bool(info.accesses)
    return result


def _assignment(node: ast.Node | None, resolution: Resolution) -> tuple[Symbol, ast.Expr] | None:
    """(variable, value) when node assigns a value to a named variable: an
    `=` whose left side is a name, or a local declaration with an initializer."""
    if isinstance(node, ast.Binary):
        if node.op == "=" and isinstance(node.left, ast.Name):
            sym = resolution.name_targets.get(node.left.uid)
            return None if sym is None else (sym, node.right)
    elif isinstance(node, ast.LocalDecl) and node.initializer is not None:
        sym = resolution.decl_symbols.get(node.uid)
        return None if sym is None else (sym, node.initializer)
    return None


_INPUT_BUILTINS = {BUILTINS[None, name] for name in ("readLine", "parseInt", "random")}


def _classify_rhs(expr: ast.Expr, resolution: Resolution) -> tuple[str, int | None]:
    value = _const_int(expr)
    if value is not None:
        return "constant", value
    for node in resolution.subtree(expr):
        if resolution.builtin_of(node) in _INPUT_BUILTINS:
            return "input", None
    return "arithmetic", None


# -- phase 3: loops ----------------------------------------------------------------


def check_loops(
    unit: ast.CompilationUnit,
    index_info: list[IndexVarInfo],
    resolution: Resolution,
) -> list[LoopLimitCheck]:
    """Judge every loop that modifies a tracked index variable."""
    # Loop uid -> the index variables accessed somewhere inside that loop.
    accessed_in: dict[int, list[IndexVarInfo]] = {}
    for info in index_info:
        loops: set[int] = set()
        for acc in info.accesses:
            cur: ast.Node | None = acc
            while cur is not None:
                if isinstance(cur, (ast.For, ast.While)):
                    loops.add(cur.uid)
                cur = resolution.parent(cur)
        for uid in loops:
            accessed_in.setdefault(uid, []).append(info)
    checks: list[LoopLimitCheck] = []
    for loop in resolution.nodes_of(ast.For, ast.While):
        infos = accessed_in.get(loop.uid)
        if not infos:
            continue
        modified = _symbols_modified_by_loop(loop, resolution)
        for info in infos:
            if id(info.symbol) in modified:
                checks.append(_judge_loop(loop, info, resolution))
    return checks


def _symbols_modified_by_loop(loop: ast.For | ast.While, resolution: Resolution) -> set[int]:
    regions: list[ast.Node] = [loop.body]
    if isinstance(loop, ast.For) and loop.update is not None:
        regions.append(loop.update)
    out: set[int] = set()
    for region in regions:
        for node in resolution.subtree(region):
            assigned = _assignment(node, resolution)
            if assigned is not None:
                out.add(id(assigned[0]))
    return out


def _excess(
    op: str, limit: ast.Expr | None, array: ArrayDecl, resolution: Resolution
) -> int | None:
    """How far the largest value allowed by `value op limit` (op < or <=)
    lies past the array's last legal index, length - 1; None when the limit
    cannot be related to the length.  The one place that relates a value to
    an array's length."""
    value = _const_int(limit)
    if value is not None:
        if array.size_kind != SIZE_CONSTANT:
            return None
        return value - (op == "<") - (array.size_value - 1)
    if array.size_symbol is not None and _is_symbol(array.size_symbol, resolution)(limit):
        return 1 - (op == "<")
    return None


def _verdict(excess: int) -> str:
    if excess <= 0:
        return VERDICT_SAFE
    return VERDICT_OFF_BY_ONE if excess == 1 else VERDICT_MAY_EXCEED


_FLIPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _comparisons(cond: ast.Expr | None, is_subject) -> list[tuple[str, ast.Expr]]:
    """(operator as seen from the subject, other operand) for each ordering
    comparison in the condition with a subject operand (is_subject(expr)),
    looking through && conjunctions only."""
    stack = [cond] if cond is not None else []
    found: list[tuple[str, ast.Expr]] = []
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Binary):
            if node.op == "&&":
                stack.extend((node.left, node.right))
            elif node.op in _FLIPPED:
                if is_subject(node.left):
                    found.append((node.op, node.right))
                elif is_subject(node.right):
                    found.append((_FLIPPED[node.op], node.left))
    return found


def _is_symbol(sym: Symbol, resolution: Resolution):
    """Predicate: the expression is a name that resolves to sym."""
    return lambda e: isinstance(e, ast.Name) and resolution.name_targets.get(e.uid) is sym


def _guarded(
    node: ast.Node, is_subject, array: ArrayDecl, resolution: Resolution, slack: int = 0
) -> bool:
    """True when a condition that holds at node bounds the subject with
    `subject op limit` whose excess, less slack, is at most 0."""
    for cond, holds in resolution.enclosing_conditions(node):
        if holds:
            for op, limit in _comparisons(cond, is_subject):
                if op in ("<", "<="):
                    excess = _excess(op, limit, array, resolution)
                    if excess is not None and excess - slack <= 0:
                        return True
    return False


_RANK = {VERDICT_SAFE: 0, VERDICT_OFF_BY_ONE: 1, VERDICT_MAY_EXCEED: 2, VERDICT_UNVALIDATED: 3}


def _judge_loop(
    loop: ast.For | ast.While, info: IndexVarInfo, resolution: Resolution
) -> LoopLimitCheck:
    array = info.array
    start = _loop_start(loop, info.symbol, resolution)
    # (comparison, limit kind, limit value, limit symbol, verdict) per comparison.
    judged = []
    for op, limit in _comparisons(loop.cond, _is_symbol(info.symbol, resolution)):
        descending = op not in ("<", "<=")
        if descending:  # the hazard is the starting value: judge and report `i <= start`
            op, limit = "<=", start
        value = _const_int(limit)
        limit_sym = (
            resolution.name_targets.get(limit.uid) if isinstance(limit, ast.Name) else None
        )
        kind = SIZE_CONSTANT if value is not None else SIZE_VARIABLE if limit_sym else None
        excess = _excess(op, limit, array, resolution)
        if excess is not None:
            verdict = _verdict(excess)
        elif descending:
            verdict = VERDICT_UNVALIDATED
        elif value is not None:  # a constant limit on an array of non-constant length
            verdict = VERDICT_UNVALIDATED if array.size_kind == SIZE_VARIABLE else VERDICT_SAFE
        elif limit_sym is not None and _guarded(
            loop, _is_symbol(limit_sym, resolution), array, resolution, slack=op == "<"
        ):
            verdict = VERDICT_SAFE
        else:
            verdict = VERDICT_UNVALIDATED
        judged.append((op, kind, value, limit_sym, verdict))
    op, kind, value, limit_sym, verdict = min(
        judged, key=lambda j: _RANK[j[-1]], default=(None, None, None, None, VERDICT_UNVALIDATED)
    )
    first = _const_int(start)
    if verdict == VERDICT_SAFE and first is not None and first < 0:
        verdict = VERDICT_MAY_EXCEED
    return LoopLimitCheck(loop.span, info.symbol, op, kind, value, limit_sym, verdict, array, loop)


def _loop_start(loop: ast.For | ast.While, sym: Symbol, resolution: Resolution) -> ast.Expr | None:
    """The expression a for loop's init assigns to sym, if it does."""
    init = loop.init if isinstance(loop, ast.For) else None
    if isinstance(init, ast.ExprStmt):
        init = init.expr
    assigned = _assignment(init, resolution)
    return assigned[1] if assigned is not None and assigned[0] is sym else None


# -- composition --------------------------------------------------------------------


def run_bound_check(
    unit: ast.CompilationUnit, resolution: Resolution | None = None
) -> list[BoundFinding]:
    """Full pipeline over one unit; findings sorted by (file, line, kind)."""
    if resolution is None:
        resolution = build_symbol_table(unit)
    arrays = find_arrays(unit, resolution)
    index_info = track_index_vars(arrays, resolution)
    checks = check_loops(unit, index_info, resolution)
    findings: list[BoundFinding] = []

    # Constant indices: directly range-checkable.
    for array in arrays:
        hi = array.legal_hi()
        for ref in array.references:
            value = _const_int(ref.index)
            if value is None:
                continue
            if hi is not None and (value < 0 or value > hi):
                findings.append(
                    BoundFinding(
                        KIND_OUT_OF_RANGE,
                        ref.span,
                        array,
                        f"constant index {value} outside [0, {hi}] of '{array.name}'",
                    )
                )
            elif array.size_kind != SIZE_CONSTANT and value >= 0:
                # A length guard, `if (c < size) b[c]`, rules out a zero length.
                if not _guarded(ref, lambda e: _const_int(e) == value, array, resolution):
                    findings.append(
                        BoundFinding(
                            KIND_ZERO_LENGTH,
                            ref.span,
                            array,
                            f"'{array.name}' has non-constant length; index {value} may not exist",
                        )
                    )

    # Loop verdicts.
    checked_pairs: set[tuple[int, int]] = set()
    for check in checks:
        if check.comparison is not None:
            checked_pairs.add((id(check.index_symbol), id(check.array)))
        if check.verdict == VERDICT_SAFE:
            continue
        access = _first_unguarded_access(check, resolution)
        if access is None:
            continue
        if check.verdict == VERDICT_OFF_BY_ONE:
            findings.append(
                BoundFinding(
                    KIND_OFF_BY_ONE,
                    access.span,
                    check.array,
                    f"loop runs '{check.index_symbol.name} {check.comparison} "
                    f"{_limit_text(check)}'; largest valid index of '{check.array.name}' is "
                    f"{_hi_text(check.array)}",
                )
            )
        elif check.verdict == VERDICT_MAY_EXCEED:
            findings.append(
                BoundFinding(
                    KIND_OUT_OF_RANGE,
                    access.span,
                    check.array,
                    f"loop limit {_limit_text(check)} exceeds the legal range of '{check.array.name}'",
                )
            )
        else:
            findings.append(
                BoundFinding(
                    KIND_VARIABLE_LIMIT,
                    access.span,
                    check.array,
                    f"loop over '{check.index_symbol.name}' is not bounded against the size of "
                    f"'{check.array.name}'",
                )
            )

    # Modified-but-unvalidated indices outside any bounding loop.  Indices
    # arriving as parameters count as unvalidated input unless guarded.
    for info in index_info:
        from_parameter = info.symbol.kind == "param" and not info.symbol.is_catch_param
        if not info.v_marked and not from_parameter:
            continue
        if (id(info.symbol), id(info.array)) in checked_pairs:
            continue
        sites = info.modifying_sites
        if sites and all(s.kind == "constant" for s in sites) and not from_parameter:
            hi = info.array.legal_hi()
            if hi is not None:
                bad = [s for s in sites if s.value is not None and (s.value < 0 or s.value > hi)]
                if bad:
                    access = info.accesses[0]
                    findings.append(
                        BoundFinding(
                            KIND_OUT_OF_RANGE,
                            access.span,
                            info.array,
                            f"'{info.symbol.name}' set to {bad[0].value}, outside [0, {hi}]",
                        )
                    )
            continue
        if from_parameter and not sites:
            detail = (
                f"'{info.symbol.name}' arrives as a parameter and indexes "
                f"'{info.array.name}' without local validation"
            )
        else:
            detail = (
                f"'{info.symbol.name}' is modified (input or arithmetic) and indexes "
                f"'{info.array.name}' without validation"
            )
        is_index = _is_symbol(info.symbol, resolution)
        for access in info.accesses:
            if not _guarded(access, is_index, info.array, resolution):
                findings.append(BoundFinding(KIND_UNVALIDATED_SOURCE, access.span, info.array, detail))
                break
    findings.sort(key=BoundFinding.sort_key)
    return findings


def _hi_text(array: ArrayDecl) -> str:
    hi = array.legal_hi()
    if hi is not None:
        return str(hi)
    if array.size_symbol is not None:
        return f"{array.size_symbol.name} - 1"
    return "length - 1"


def _limit_text(check: LoopLimitCheck) -> str:
    if check.limit_value is not None:
        return str(check.limit_value)
    if check.limit_symbol is not None:
        return check.limit_symbol.name
    return "<none>"


def _first_unguarded_access(check: LoopLimitCheck, resolution: Resolution) -> ast.Index | None:
    is_index = _is_symbol(check.index_symbol, resolution)
    for acc in check.array.references:
        if (
            resolution.is_within(acc, check.loop)
            and any(map(is_index, resolution.subtree(acc.index)))
            and not _guarded(acc, is_index, check.array, resolution)
        ):
            return acc
    return None

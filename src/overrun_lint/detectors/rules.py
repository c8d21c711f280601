"""The bug-pattern catalog and the rule engine driver."""

from __future__ import annotations

import re
from dataclasses import dataclass, replace

from ..frontend import ast
from ..semantics import types as ty
from ..semantics.callgraph import CallGraph, constructor_cycles, unconditional_cycles
from ..semantics.resolver import Resolution, Symbol
from ..cfg import UnitCfgs, unreachable_nodes
from .model import Finding, Rule, RuleSet


@dataclass
class RuleContext:
    unit: ast.CompilationUnit
    res: Resolution
    call_graph: CallGraph
    cfgs: UnitCfgs

    def method_of(self, node: ast.Node) -> ast.MethodDecl | None:
        cur = node
        while cur is not None:
            if isinstance(cur, ast.MethodDecl):
                return cur
            cur = self.res.parents.get(cur.uid)
        return None

    def has_null_guard(self, node: ast.Node, sym: Symbol) -> bool:
        # Any enclosing condition counts, whichever branch node is in.
        for cond, _holds in self.res.enclosing_conditions(node):
            for sub in ast.walk(cond):
                if isinstance(sub, ast.Binary) and sub.op in ("==", "!="):
                    for side, other in ((sub.left, sub.right), (sub.right, sub.left)):
                        if (
                            isinstance(side, ast.Name)
                            and self.res.name_targets.get(side.uid) is sym
                            and isinstance(other, ast.Null)
                        ):
                            return True
        return False


def _mk(rule: Rule, span, message: str) -> Finding:
    return Finding(
        rule_id=rule.id,
        category=rule.category,
        priority=rule.priority,
        rank=rule.rank,
        confidence=rule.confidence,
        message=message,
        span=span,
    )


# --- individual detectors ------------------------------------------------------


def _assigned_calls(ctx: RuleContext, name: str):
    """(symbol, statement) for each local declaration or plain assignment
    whose value is a receiver-less call of name, in pre-order."""
    for node in ctx.res.nodes_of(ast.LocalDecl, ast.Binary):
        if isinstance(node, ast.LocalDecl):
            rhs = node.initializer
            target = ctx.res.decl_symbols.get(node.uid)
        elif node.op == "=" and isinstance(node.left, ast.Name):
            rhs = node.right
            target = ctx.res.name_targets.get(node.left.uid)
        else:
            continue
        if target is not None and isinstance(rhs, ast.Call) and rhs.receiver is None and rhs.name == name:
            yield target, node


def _readline_sinks(ctx: RuleContext):
    """(use-node, symbol-or-None) pairs where a possibly-null readLine value
    is dereferenced (receiver position or call argument)."""
    nullable = {id(target) for target, _node in _assigned_calls(ctx, "readLine")}

    def is_nullable_use(expr: ast.Expr):
        if isinstance(expr, ast.Call) and expr.receiver is None and expr.name == "readLine":
            return True, None
        if isinstance(expr, ast.Name):
            sym = ctx.res.name_targets.get(expr.uid)
            if sym is not None and id(sym) in nullable:
                return True, sym
        return False, None

    for node in ctx.res.nodes_of(ast.Call, ast.FieldAccess):
        if isinstance(node, ast.Call):
            for arg in node.args:
                hit, sym = is_nullable_use(arg)
                if hit:
                    yield arg, sym
            if node.receiver is not None:
                hit, sym = is_nullable_use(node.receiver)
                if hit:
                    yield node.receiver, sym
        elif isinstance(node, ast.FieldAccess):
            hit, sym = is_nullable_use(node.receiver)
            if hit:
                yield node.receiver, sym


def np_dereference(rule: Rule, ctx: RuleContext) -> list[Finding]:
    findings = []
    seen = set()
    for use, sym in _readline_sinks(ctx):
        if sym is not None and ctx.has_null_guard(use, sym):
            continue
        key = (use.span.line, use.span.column)
        if key in seen:
            continue
        seen.add(key)
        what = f"'{sym.name}'" if sym is not None else "readLine()"
        findings.append(
            _mk(rule, use.span, f"Dereference of the result of readLine() via {what} without a null check")
        )
    return findings


def _cycle_sites(ctx: RuleContext, cycles: list[list[str]]):
    """(cycle, earliest call site on an edge inside it) for each cycle that has one."""
    edges = ctx.call_graph.edges
    for cycle in cycles:
        members = set(cycle)
        spans = (e.span for e in edges if e.caller in members and e.callee in members)
        span = min(spans, key=lambda s: (s.file, s.line, s.column), default=None)
        if span is not None:
            yield cycle, span


def infinite_recursion(rule: Rule, ctx: RuleContext) -> list[Finding]:
    return [
        _mk(rule, span, "Unconditional recursive call cycle: " + " -> ".join(cycle))
        for cycle, span in _cycle_sites(ctx, unconditional_cycles(ctx.call_graph))
    ]


def equals_hashcode(rule: Rule, ctx: RuleContext) -> list[Finding]:
    findings = []
    for cls in ctx.unit.classes:
        names = {m.name for m in cls.methods if not m.is_constructor}
        has_equals = "equals" in names
        has_hashcode = "hashcode" in names
        if has_equals != has_hashcode:
            missing = "hashcode" if has_equals else "equals"
            findings.append(
                _mk(rule, cls.span, f"class {cls.name} defines {'equals' if has_equals else 'hashcode'} without {missing}")
            )
    return findings


def ignored_return_value(rule: Rule, ctx: RuleContext) -> list[Finding]:
    findings = []
    for node in ctx.res.nodes_of(ast.ExprStmt):
        if isinstance(node.expr, ast.Call):
            target = ctx.res.call_targets.get(node.expr.uid)
            if target is not None and target.must_check:
                findings.append(
                    _mk(rule, node.span, f"return value of {node.expr.name}() is ignored but must be checked")
                )
    return findings


def unconditional_wait(rule: Rule, ctx: RuleContext) -> list[Finding]:
    findings = []
    for sync in ctx.res.nodes_of(ast.Synchronized):
        for node in ast.walk(sync.body):
            if isinstance(node, ast.Call) and node.name == "wait":
                target = ctx.res.call_targets.get(node.uid)
                if target is None or target.id != "builtin:Thread.wait":
                    continue
                conditional = False
                cur = node
                while cur is not sync.body:
                    parent = ctx.res.parents.get(cur.uid)
                    if parent is None:
                        break
                    if isinstance(parent, (ast.If, ast.While)):
                        conditional = True
                        break
                    cur = parent
                if not conditional:
                    findings.append(_mk(rule, node.span, "wait() is not guarded by a condition inside synchronized"))
    return findings


def _monitor_key(ctx: RuleContext, expr: ast.Expr):
    if isinstance(expr, ast.Name):
        sym = ctx.res.name_targets.get(expr.uid)
        if sym is not None:
            return ("sym", sym.decl_uid, sym.name)
    if isinstance(expr, ast.FieldAccess):
        sym = ctx.res.field_targets.get(expr.uid)
        if sym is not None:
            return ("sym", sym.decl_uid, sym.name)
    from ..frontend.printer import expr_text

    return ("text", 0, expr_text(expr))


def deadlock_order(rule: Rule, ctx: RuleContext) -> list[Finding]:
    ordered: dict[tuple, list] = {}
    for outer in ctx.res.nodes_of(ast.Synchronized):
        for inner in ast.walk(outer.body):
            if isinstance(inner, ast.Synchronized):
                a = _monitor_key(ctx, outer.monitor)
                b = _monitor_key(ctx, inner.monitor)
                if a != b:
                    ordered.setdefault((a, b), []).append(outer.span)
    findings = []
    reported = set()
    for (a, b), spans in sorted(ordered.items(), key=lambda kv: str(kv[0])):
        if (b, a) in ordered and frozenset((a, b)) not in reported:
            reported.add(frozenset((a, b)))
            span = sorted(spans + ordered[(b, a)], key=lambda s: (s.file, s.line, s.column))[0]
            findings.append(
                _mk(rule, span, f"locks on '{a[2]}' and '{b[2]}' are taken in both orders (possible deadlock)")
            )
    return findings


def string_equality(rule: Rule, ctx: RuleContext) -> list[Finding]:
    findings = []
    for node in ctx.res.nodes_of(ast.Binary):
        if node.op in ("==", "!="):
            left_t = ctx.res.types.get(node.left.uid)
            right_t = ctx.res.types.get(node.right.uid)
            if isinstance(left_t, ty.StringType) and isinstance(right_t, ty.StringType):
                findings.append(
                    _mk(rule, node.span, f"'{node.op}' compares String references; use equals-style comparison")
                )
    return findings


def unused_local(rule: Rule, ctx: RuleContext) -> list[Finding]:
    findings = []
    for sym in ctx.res.symbols:
        if sym.kind == "local" and not sym.is_builtin and sym.usage_count == 0:
            findings.append(_mk(rule, sym.span, f"local variable '{sym.name}' is never read"))
    return findings


def stream_not_closed(rule: Rule, ctx: RuleContext) -> list[Finding]:
    findings = []
    for target, node in _assigned_calls(ctx, "open"):
        method = ctx.method_of(node)
        if method is None:
            continue
        close_stmts = []
        for sub in ast.walk(method.body):
            if (
                isinstance(sub, ast.Call)
                and sub.name == "close"
                and isinstance(sub.receiver, ast.Name)
                and ctx.res.name_targets.get(sub.receiver.uid) is target
            ):
                close_stmts.append(sub)
        if not close_stmts:
            findings.append(
                _mk(rule, node.span, f"stream '{target.name}' from open() is never closed")
            )
            continue
        if _path_avoids_all(ctx, method, close_stmts):
            findings.append(
                _mk(rule, node.span, f"stream '{target.name}' is not closed on every path to exit")
            )
    return findings


def _path_avoids_all(ctx: RuleContext, method: ast.MethodDecl, calls: list[ast.Call]) -> bool:
    """Whether some entry->exit CFG path misses every one of the given calls."""
    from .. import cfg as cfgmod

    cls = ctx.res.parents.get(method.uid)
    if not isinstance(cls, ast.ClassDecl):
        return False
    method_id = cfgmod.method_identity(cls.name, method)
    graph = ctx.cfgs.cfgs.get(method_id)
    if graph is None:
        return False
    blocked = set()
    for call in calls:
        cur: ast.Node | None = call
        while cur is not None and cur.uid not in graph.stmt_iids:
            cur = ctx.res.parents.get(cur.uid)
        if cur is None:
            continue
        blocked.add(graph.block_of_instr(graph.stmt_iids[cur.uid]))
    adjacency: dict[int, list[int]] = {}
    for e in graph.edges:
        adjacency.setdefault(e.src, []).append(e.dst)
    stack = [graph.entry]
    seen = set()
    while stack:
        bid = stack.pop()
        if bid in seen or bid in blocked:
            continue
        if bid == graph.exit:
            return True
        seen.add(bid)
        stack.extend(adjacency.get(bid, ()))
    return False


def circular_dependency(rule: Rule, ctx: RuleContext) -> list[Finding]:
    return [
        _mk(
            rule,
            span,
            "constructors form a dependency cycle: "
            f"{' -> '.join(m.split('.')[0] for m in cycle)} (refactoring optional)",
        )
        for cycle, span in _cycle_sites(ctx, constructor_cycles(ctx.call_graph))
    ]


def redundant_null_check(rule: Rule, ctx: RuleContext) -> list[Finding]:
    findings = []
    for cls in ctx.unit.classes:
        for method in cls.methods:
            state: dict[int, str] = {}
            for node in ast.walk(method.body):
                if isinstance(node, ast.LocalDecl) and node.initializer is not None:
                    sym = ctx.res.decl_symbols.get(node.uid)
                    if sym is not None:
                        state[id(sym)] = "new" if isinstance(node.initializer, ast.New) else "other"
                elif isinstance(node, ast.Binary) and node.op == "=" and isinstance(node.left, ast.Name):
                    sym = ctx.res.name_targets.get(node.left.uid)
                    if sym is not None:
                        state[id(sym)] = "new" if isinstance(node.right, ast.New) else "other"
                elif isinstance(node, ast.Binary) and node.op in ("==", "!="):
                    for side, other in ((node.left, node.right), (node.right, node.left)):
                        if isinstance(side, ast.Name) and isinstance(other, ast.Null):
                            sym = ctx.res.name_targets.get(side.uid)
                            if sym is not None and state.get(id(sym)) == "new":
                                findings.append(
                                    _mk(
                                        rule,
                                        node.span,
                                        f"redundant null check of '{sym.name}', which is known to be non-null",
                                    )
                                )
    return findings


def static_field_could_be_final(rule: Rule, ctx: RuleContext) -> list[Finding]:
    findings = []
    for sym in ctx.res.symbols:
        if (
            sym.kind == "field"
            and not sym.is_builtin
            and sym.static
            and not sym.final
            and sym.write_count == 0
        ):
            findings.append(
                _mk(rule, sym.span, f"static field '{sym.name}' is never reassigned and should be final")
            )
    return findings


def empty_block(rule: Rule, ctx: RuleContext) -> list[Finding]:
    findings = []
    for node in ctx.res.nodes_of(ast.If, ast.While, ast.Try, ast.Switch):
        if isinstance(node, ast.If):
            if not node.then.stmts:
                findings.append(_mk(rule, node.then.span, "empty if body"))
            if isinstance(node.els, ast.Block) and not node.els.stmts:
                findings.append(_mk(rule, node.els.span, "empty else body"))
        elif isinstance(node, ast.While):
            if not node.body.stmts:
                findings.append(_mk(rule, node.body.span, "empty while body"))
        elif isinstance(node, ast.Try):
            if not node.body.stmts:
                findings.append(_mk(rule, node.body.span, "empty try body"))
            for catch in node.catches:
                if not catch.body.stmts:
                    findings.append(_mk(rule, catch.body.span, "empty catch body"))
            if node.finally_block is not None and not node.finally_block.stmts:
                findings.append(_mk(rule, node.finally_block.span, "empty finally body"))
        elif isinstance(node, ast.Switch):
            if not node.cases:
                findings.append(_mk(rule, node.span, "switch has no cases"))
    return findings


_LOWER_CAMEL = re.compile(r"^[a-z][A-Za-z0-9]*$")
_UPPER_CAMEL = re.compile(r"^[A-Z][A-Za-z0-9]*$")

# Documented convention thresholds: method names longer than 16 characters
# are flagged as unwieldy; parameter names must be at least 4 characters and
# must not use single-letter type prefixes (pFoo).
MAX_METHOD_NAME = 16
MIN_PARAM_NAME = 4


def method_naming(rule: Rule, ctx: RuleContext) -> list[Finding]:
    findings = []
    for cls in ctx.unit.classes:
        for method in cls.methods:
            if method.is_constructor:
                continue
            if not _LOWER_CAMEL.match(method.name):
                findings.append(
                    _mk(rule, method.span, f"method name '{method.name}' is not lowerCamelCase")
                )
            elif len(method.name) > MAX_METHOD_NAME:
                findings.append(
                    _mk(rule, method.span, f"method name '{method.name}' is longer than {MAX_METHOD_NAME} characters")
                )
    return findings


def parameter_naming(rule: Rule, ctx: RuleContext) -> list[Finding]:
    findings = []
    for cls in ctx.unit.classes:
        for method in cls.methods:
            for param in method.params:
                name = param.name
                if not _LOWER_CAMEL.match(name):
                    findings.append(
                        _mk(rule, param.span, f"parameter name '{name}' is not lowerCamelCase")
                    )
                elif len(name) < MIN_PARAM_NAME:
                    findings.append(
                        _mk(rule, param.span, f"parameter name '{name}' is shorter than {MIN_PARAM_NAME} characters")
                    )
                elif len(name) >= 2 and name[0].islower() and name[1].isupper():
                    findings.append(
                        _mk(rule, param.span, f"parameter name '{name}' uses a type-prefix style")
                    )
    return findings


def class_naming(rule: Rule, ctx: RuleContext) -> list[Finding]:
    findings = []
    for cls in ctx.unit.classes:
        if not _UPPER_CAMEL.match(cls.name):
            findings.append(_mk(rule, cls.span, f"class name '{cls.name}' is not UpperCamelCase"))
    return findings


def no_package(rule: Rule, ctx: RuleContext) -> list[Finding]:
    if ctx.unit.package_name is None:
        return [_mk(rule, ctx.unit.span, "unit has no package declaration")]
    return []


def system_println(rule: Rule, ctx: RuleContext) -> list[Finding]:
    findings = []
    for node in ctx.res.nodes_of(ast.Call):
        if node.receiver is None and node.name == "println":
            target = ctx.res.call_targets.get(node.uid)
            if target is not None and target.id == "builtin:println":
                findings.append(_mk(rule, node.span, "println call in production code"))
    return findings


def do_not_use_threads(rule: Rule, ctx: RuleContext) -> list[Finding]:
    return [
        _mk(rule, cls.span, f"class {cls.name} extends Thread directly")
        for cls in ctx.unit.classes
        if cls.is_builtin_thread_subclass
    ]


def method_argument_could_be_final(rule: Rule, ctx: RuleContext) -> list[Finding]:
    findings = []
    for cls in ctx.unit.classes:
        for method in cls.methods:
            for param in method.params:
                sym = ctx.res.decl_symbols.get(param.uid)
                if sym is None or param.final:
                    continue
                if sym.write_count == 0:
                    findings.append(
                        _mk(rule, param.span, f"parameter '{param.name}' is never assigned and could be final")
                    )
    return findings


def unreachable_code(rule: Rule, ctx: RuleContext) -> list[Finding]:
    findings = []
    for method_id in sorted(ctx.cfgs.cfgs):
        graph = ctx.cfgs.cfgs[method_id]
        if graph.synthetic:
            continue
        for block in unreachable_nodes(graph):
            if not block.instructions:
                continue
            span = graph.instr_spans[block.instructions[0]]
            findings.append(_mk(rule, span, f"code in {method_id} cannot be reached"))
    return findings


# --- catalog ---------------------------------------------------------------------

RULES: tuple[Rule, ...] = (
    Rule("NP_DEREFERENCE_OF_READLINE_VALUE", "dodgy", 3, "normal", 15, "NP",
         "readLine() results may be null and must be checked before use", np_dereference),
    Rule("InfiniteRecursion", "correctness", 1, "high", 2, "IL",
         "call cycles with no exit condition overflow the stack", infinite_recursion),
    Rule("EqualsHashcodeMismatch", "bad_practice", 2, "high", 7, "HE",
         "equals and hashcode must be declared together", equals_hashcode),
    Rule("IgnoredReturnValue", "correctness", 2, "normal", 8, "RV",
         "results of value-must-be-checked calls are discarded", ignored_return_value),
    Rule("UnconditionalWait", "multithreaded_correctness", 2, "normal", 7, "UW",
         "wait() inside synchronized without a guarding condition", unconditional_wait),
    Rule("DeadlockOrder", "multithreaded_correctness", 1, "low", 3, "DL",
         "nested locks taken in opposite orders", deadlock_order),
    Rule("StringEqualityOperator", "correctness", 2, "high", 6, "ES",
         "== or != used on String operands", string_equality),
    Rule("UnusedLocalVariable", "dodgy", 4, "high", 16, "UL",
         "local variable is declared but never read", unused_local),
    Rule("StreamNotClosed", "experimental", 2, "normal", 9, "OS",
         "open() streams must be closed on every path", stream_not_closed),
    Rule("CircularDependency", "dodgy", 3, "normal", 12, "CD",
         "constructors instantiate each other in a cycle", circular_dependency),
    Rule("RedundantNullCheck", "dodgy", 5, "low", 20, "RCN",
         "null check of a value that is known to be non-null", redundant_null_check),
    Rule("StaticFieldCouldBeFinal", "correctness", 1, "high", 4, "MS",
         "static field never reassigned after initialization", static_field_could_be_final),
    Rule("EmptyBlock", "bad_practice", 4, "high", 17, "EB",
         "empty try/catch/finally/switch/if/while body", empty_block),
    Rule("MethodNamingConventions", "bad_practice", 4, "high", 18, "NM",
         "method names use lowerCamelCase up to 16 characters", method_naming),
    Rule("ParameterNameConvention", "bad_practice", 4, "high", 18, "NM",
         "parameter names use lowerCamelCase, length >= 4, no type prefixes", parameter_naming),
    Rule("ClassNamingConvention", "bad_practice", 4, "high", 18, "NM",
         "class names use UpperCamelCase", class_naming),
    Rule("NoPackage", "bad_practice", 4, "high", 19, "PKG",
         "compilation unit lacks a package declaration", no_package),
    Rule("SystemPrintln", "performance", 4, "high", 18, "SP",
         "println calls left in code", system_println),
    Rule("DoNotUseThreads", "multithreaded_correctness", 3, "normal", 13, "THR",
         "classes should not extend Thread directly", do_not_use_threads),
    Rule("MethodArgumentCouldBeFinal", "performance", 5, "high", 20, "FIN",
         "parameters never assigned could be declared final", method_argument_could_be_final),
    Rule("UnreachableCode", "dodgy", 2, "high", 8, "UC",
         "statements that no control path reaches", unreachable_code),
)

_BY_ID = {rule.id: rule for rule in RULES}


def rule_by_id(rule_id: str) -> Rule | None:
    return _BY_ID.get(rule_id)


def run_rules(
    unit: ast.CompilationUnit,
    res: Resolution,
    call_graph: CallGraph,
    cfgs: UnitCfgs,
    ruleset: RuleSet | None = None,
) -> list[Finding]:
    """Run every enabled rule; findings sorted by (file, line, rule_id, column)."""
    ruleset = ruleset or RuleSet()
    ctx = RuleContext(unit=unit, res=res, call_graph=call_graph, cfgs=cfgs)
    findings: list[Finding] = []
    for rule in RULES:
        if not ruleset.enabled(rule.id):
            continue
        produced = rule.detector(rule, ctx)
        override = ruleset.entry(rule.id).priority_override
        if override is not None:
            produced = [replace(f, priority=override) for f in produced]
        findings.extend(produced)
    findings.sort(key=Finding.sort_key)
    return findings

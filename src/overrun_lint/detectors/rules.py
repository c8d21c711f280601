"""The bug-pattern catalog and the rule engine driver."""

from __future__ import annotations

import re
from functools import cached_property, partial

from ..records import record
from ..boundcheck import BoundFinding
from ..frontend import ast
from ..semantics import types as ty
from ..semantics.callgraph import CallGraph, constructor_cycles, unconditional_cycles
from ..semantics.resolver import BUILTINS, Builtin, Resolution, Symbol
from ..cfg import TRUE_BRANCH, Edge, UnitCfgs, call_blocks, forward, method_identity, reach, unreachable_nodes
from .model import Finding, Rule, RuleSet


@record
class RuleContext:
    unit: ast.CompilationUnit
    res: Resolution
    call_graph: CallGraph
    cfgs: UnitCfgs

    @cached_property
    def nullness(self) -> Nullness:
        """The null facts that both null rules read, solved on first read."""
        return Nullness(self)


# --- individual detectors ------------------------------------------------------


_READLINE, _OPEN, _PRINTLN = (BUILTINS[None, name] for name in ("readLine", "open", "println"))
_WAIT, _CLOSE = BUILTINS["Thread", "wait"], BUILTINS["Stream", "close"]


def _assigned_calls(ctx: RuleContext, builtin: Builtin):
    """(symbol, statement) for each local declaration or plain assignment
    whose value is a call of the builtin, in pre-order."""
    for node in ctx.res.nodes_of(ast.LocalDecl, ast.Binary):
        if isinstance(node, ast.LocalDecl):
            rhs = node.initializer
            target = ctx.res.decl_symbols.get(node.uid)
        elif node.op == "=" and isinstance(node.left, ast.Name):
            rhs = node.right
            target = ctx.res.name_targets.get(node.left.uid)
        else:
            continue
        if target is not None and isinstance(rhs, ast.Call) and ctx.res.builtin_of(rhs) is builtin:
            yield target, node


# --- nullness --------------------------------------------------------------------

# A symbol's fact at a point of a method, keyed by id(symbol), where None
# or no entry is unknown.  READLINE is a readLine() value, which may be null.
NULL, NON_NULL, READLINE = "null", "non-null", "readLine"
Facts = dict[int, str | None]
_TRACKED = ("local", "param")  # the symbol kinds that have null facts

# What the instruction of each statement evaluates; a local declaration
# also stores, and a for loop's update is an instruction of its own.
_EVALUATES = {
    ast.ExprStmt: "expr", ast.Return: "value", ast.If: "cond", ast.While: "cond", ast.For: "cond",
    ast.Switch: "subject", ast.Assert: "condition", ast.Synchronized: "monitor", ast.LocalDecl: "initializer",
}


def _join(a: Facts, b: Facts) -> Facts:
    """Equal facts stay, a readLine value wins over any other, and
    anything else becomes unknown."""
    return {
        key: fact if fact == other else READLINE if READLINE in (fact, other) else None
        for key in a.keys() | b.keys()
        for fact, other in [(a.get(key), b.get(key))]
    }


class Nullness:
    """Null facts by one forward dataflow over the CFG of each method with a
    null literal or a readLine() call.  derefs: each call receiver and
    argument (a String has no fields), with its fact when it runs; checks:
    each comparison of a name with null, with its symbol and fact.  Only
    locals and parameters have facts: a field may change in any call."""

    def __init__(self, ctx: RuleContext):
        self.res = res = ctx.res
        self.derefs: dict[int, tuple[ast.Expr, str | None]] = {}
        self.checks: dict[int, tuple[ast.Binary, Symbol, str | None]] = {}
        sites = (*res.nodes_of(ast.Null), *(c for c in res.nodes_of(ast.Call) if res.builtin_of(c) is _READLINE))
        for method in {m.uid: m for m in map(res.method_of, sites) if m is not None}.values():
            graph = ctx.cfgs.cfgs[method_identity(res.parent(method).name, method)]
            at = {graph.stmt_iids[n.uid]: n for n in res.subtree(method.body) if n.uid in graph.stmt_iids}
            conds = {graph.instr_blocks[i]: n.cond for i, n in at.items() if isinstance(n, (ast.If, ast.While, ast.For))}
            forward(graph, {}, partial(self._step, at, graph.skippable_iids), partial(self._refine, conds), _join)

    def _step(self, at: dict[int, ast.Node], skippable: set[int], iid: int, before: Facts) -> Facts:
        """The facts after instruction iid; joined with those before it
        where a path may pass it without running it (an assert check, a
        catch body)."""
        node, facts = at.get(iid), dict(before)
        field = _EVALUATES.get(type(node))
        expr = node if isinstance(node, ast.Expr) else getattr(node, field) if field else None
        value = None if expr is None else self._eval(expr, facts)
        if isinstance(node, ast.LocalDecl):
            self._store(self.res.decl_symbols.get(node.uid), value, facts)
        return _join(before, facts) if iid in skippable else facts

    @staticmethod
    def _store(sym: Symbol | None, value: str | None, facts: Facts) -> None:
        if sym is not None and sym.kind in _TRACKED:
            facts[id(sym)] = value

    def _refine(self, conds: dict[int, ast.Expr | None], edge: Edge, facts: Facts) -> Facts:
        cond = conds.get(edge.src)
        return facts if cond is None else self._assume(cond, facts, edge.kind == TRUE_BRANCH)

    def _eval(self, expr: ast.Expr, facts: Facts) -> str | None:
        """Evaluate expr on facts, in place and in Java's order, recording
        each dereference and null check; the fact of its value."""
        res = self.res
        if isinstance(expr, ast.Name):
            return facts.get(id(res.name_targets.get(expr.uid)))
        if isinstance(expr, ast.Null):
            return NULL
        if isinstance(expr, ast.Call):
            for part in expr.args if expr.receiver is None else (expr.receiver, *expr.args):
                self.derefs[part.uid] = (part, self._eval(part, facts))
            return READLINE if res.builtin_of(expr) is _READLINE else None
        if isinstance(expr, ast.Binary) and expr.op in ("&&", "||"):
            self._eval(expr.left, facts)
            rest = self._assume(expr.left, facts, expr.op == "&&")  # where the right operand runs
            self._eval(expr.right, rest)
            facts.update(_join(facts, rest))  # every key of facts
            return None
        value = None
        for child in ast.child_nodes(expr):
            value = self._eval(child, facts)
        if isinstance(expr, ast.Binary) and expr.op == "=":
            if isinstance(expr.left, ast.Name):
                self._store(res.name_targets.get(expr.left.uid), value, facts)
            return value
        if (sym := self._tested(expr)) is not None:
            self.checks[expr.uid] = (expr, sym, facts.get(id(sym)))
        return NON_NULL if isinstance(expr, (ast.New, ast.NewArray)) else None

    def _tested(self, expr: ast.Expr) -> Symbol | None:
        """The symbol that expr compares with null: x in `x == null`,
        `null != x` or `(x = e) != null`."""
        if not (isinstance(expr, ast.Binary) and expr.op in ("==", "!=")):
            return None
        side, other = (expr.right, expr.left) if isinstance(expr.left, ast.Null) else (expr.left, expr.right)
        if isinstance(side, ast.Binary) and side.op == "=":
            side = side.left
        if isinstance(other, ast.Null) and isinstance(side, ast.Name):
            return self.res.name_targets.get(side.uid)
        return None

    def _assume(self, cond: ast.Expr, facts: Facts, truth: bool) -> Facts:
        """New facts for the paths where cond, just run, came out truth.  A
        readLine value stays one where it is null."""
        if isinstance(cond, ast.Unary) and cond.op == "!":
            return self._assume(cond.operand, facts, not truth)
        if isinstance(cond, ast.Binary) and cond.op in ("&&", "||"):
            decides = cond.op == "||"  # the left value that decides alone
            both = self._assume(cond.right, self._assume(cond.left, facts, not decides), truth)
            return _join(self._assume(cond.left, facts, decides), both) if truth == decides else both
        facts = dict(facts)
        if (sym := self._tested(cond)) is not None:
            if (cond.op == "==") != truth:
                self._store(sym, NON_NULL, facts)
            elif facts.get(id(sym)) != READLINE:
                self._store(sym, NULL, facts)
        return facts


def np_dereference(rule: Rule, ctx: RuleContext) -> list[Finding]:
    findings = []
    for use, fact in ctx.nullness.derefs.values():
        if fact == READLINE:
            what = f"'{use.identifier}'" if isinstance(use, ast.Name) else "readLine()"
            findings.append(
                rule.finding(use.span, f"Dereference of the result of readLine() via {what} without a null check")
            )
    return findings


def _cycle_sites(ctx: RuleContext, cycles: list[list[str]]):
    """(cycle, earliest call site on an edge inside it) for each cycle that has one."""
    edges = ctx.call_graph.edges
    for cycle in cycles:
        members = set(cycle)
        spans = (e.site.span for e in edges if e.caller in members and e.callee in members)
        span = min(spans, key=lambda s: (s.file, s.line, s.column), default=None)
        if span is not None:
            yield cycle, span


def infinite_recursion(rule: Rule, ctx: RuleContext) -> list[Finding]:
    def recurses(method: str, calls) -> bool:
        # Whether every path through the method makes one of the calls (its
        # edges into the cycle) that always runs with its block and whose
        # every target is in the cycle, and some path does make one.
        graph = ctx.cfgs.cfgs[method]
        inside = {e.callee for e in calls}
        sites = (e.site for e in calls if all(t.id in inside for t in ctx.res.targets(e.site)))
        blocked = call_blocks(graph, sites, ctx.res.parent)
        reached = reach(graph, blocked=blocked)
        return graph.exit not in reached and not blocked.isdisjoint(reached)

    return [
        rule.finding(span, "Unconditional recursive call cycle: " + " -> ".join(cycle))
        for cycle, span in _cycle_sites(ctx, unconditional_cycles(ctx.call_graph, recurses))
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
                rule.finding(cls.span, f"class {cls.name} defines {'equals' if has_equals else 'hashcode'} without {missing}")
            )
    return findings


def ignored_return_value(rule: Rule, ctx: RuleContext) -> list[Finding]:
    findings = []
    for node in ctx.res.nodes_of(ast.ExprStmt):
        if isinstance(node.expr, ast.Call):
            if ctx.res.call_targets[node.expr.uid].must_check:
                findings.append(
                    rule.finding(node.span, f"return value of {node.expr.name}() is ignored but must be checked")
                )
    return findings


def unconditional_wait(rule: Rule, ctx: RuleContext) -> list[Finding]:
    findings = []
    for sync in ctx.res.nodes_of(ast.Synchronized):
        for node in ctx.res.subtree(sync.body):
            if ctx.res.builtin_of(node) is _WAIT:
                # Conditions come innermost first: if the first lies outside
                # the synchronized body, so do the rest.
                inner = next(ctx.res.enclosing_conditions(node), None)
                if inner is None or not ctx.res.is_within(inner[0], sync.body):
                    findings.append(rule.finding(node.span, "wait() is not guarded by a condition inside synchronized"))
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
        for inner in ctx.res.subtree(outer.body):
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
                rule.finding(span, f"locks on '{a[2]}' and '{b[2]}' are taken in both orders (possible deadlock)")
            )
    return findings


def string_equality(rule: Rule, ctx: RuleContext) -> list[Finding]:
    findings = []
    for node in ctx.res.nodes_of(ast.Binary):
        if node.op in ("==", "!="):
            if ctx.res.types[node.left.uid] is ty.STRING and ctx.res.types[node.right.uid] is ty.STRING:
                findings.append(
                    rule.finding(node.span, f"'{node.op}' compares String references; use equals-style comparison")
                )
    return findings


def unused_local(rule: Rule, ctx: RuleContext) -> list[Finding]:
    findings = []
    for sym in ctx.res.symbols:
        if sym.kind == "local" and not sym.is_builtin and sym.usage_count == 0:
            findings.append(rule.finding(sym.span, f"local variable '{sym.name}' is never read"))
    return findings


def stream_not_closed(rule: Rule, ctx: RuleContext) -> list[Finding]:
    findings = []
    for target, node in _assigned_calls(ctx, _OPEN):
        method = ctx.res.method_of(node)
        if method is None:
            continue
        close_stmts = []
        for sub in ctx.res.subtree(method.body):
            if (
                ctx.res.builtin_of(sub) is _CLOSE
                and isinstance(sub.receiver, ast.Name)
                and ctx.res.name_targets.get(sub.receiver.uid) is target
            ):
                close_stmts.append(sub)
        if not close_stmts:
            findings.append(
                rule.finding(node.span, f"stream '{target.name}' from open() is never closed")
            )
            continue
        graph = ctx.cfgs.cfgs.get(method_identity(ctx.res.parent(method).name, method))
        if graph is None:
            continue
        if graph.exit in reach(graph, blocked=call_blocks(graph, close_stmts, ctx.res.parent)):
            findings.append(
                rule.finding(node.span, f"stream '{target.name}' is not closed on every path to exit")
            )
    return findings


def circular_dependency(rule: Rule, ctx: RuleContext) -> list[Finding]:
    return [
        rule.finding(
            span,
            "constructors form a dependency cycle: "
            f"{' -> '.join(m.split('.')[0] for m in cycle)} (refactoring optional)",
        )
        for cycle, span in _cycle_sites(ctx, constructor_cycles(ctx.call_graph))
    ]


def redundant_null_check(rule: Rule, ctx: RuleContext) -> list[Finding]:
    return [
        rule.finding(node.span, f"redundant null check of '{sym.name}', which is known to be non-null")
        for node, sym, fact in ctx.nullness.checks.values()
        if fact == NON_NULL
    ]


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
                rule.finding(sym.span, f"static field '{sym.name}' is never reassigned and should be final")
            )
    return findings


def empty_block(rule: Rule, ctx: RuleContext) -> list[Finding]:
    findings = []
    for node in ctx.res.nodes_of(ast.If, ast.While, ast.Try, ast.Switch):
        if isinstance(node, ast.If):
            if not node.then.stmts:
                findings.append(rule.finding(node.then.span, "empty if body"))
            if isinstance(node.els, ast.Block) and not node.els.stmts:
                findings.append(rule.finding(node.els.span, "empty else body"))
        elif isinstance(node, ast.While):
            if not node.body.stmts:
                findings.append(rule.finding(node.body.span, "empty while body"))
        elif isinstance(node, ast.Try):
            if not node.body.stmts:
                findings.append(rule.finding(node.body.span, "empty try body"))
            for catch in node.catches:
                if not catch.body.stmts:
                    findings.append(rule.finding(catch.body.span, "empty catch body"))
            if node.finally_block is not None and not node.finally_block.stmts:
                findings.append(rule.finding(node.finally_block.span, "empty finally body"))
        elif isinstance(node, ast.Switch):
            if not node.cases:
                findings.append(rule.finding(node.span, "switch has no cases"))
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
                    rule.finding(method.span, f"method name '{method.name}' is not lowerCamelCase")
                )
            elif len(method.name) > MAX_METHOD_NAME:
                findings.append(
                    rule.finding(method.span, f"method name '{method.name}' is longer than {MAX_METHOD_NAME} characters")
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
                        rule.finding(param.span, f"parameter name '{name}' is not lowerCamelCase")
                    )
                elif len(name) < MIN_PARAM_NAME:
                    findings.append(
                        rule.finding(param.span, f"parameter name '{name}' is shorter than {MIN_PARAM_NAME} characters")
                    )
                elif len(name) >= 2 and name[0].islower() and name[1].isupper():
                    findings.append(
                        rule.finding(param.span, f"parameter name '{name}' uses a type-prefix style")
                    )
    return findings


def class_naming(rule: Rule, ctx: RuleContext) -> list[Finding]:
    findings = []
    for cls in ctx.unit.classes:
        if not _UPPER_CAMEL.match(cls.name):
            findings.append(rule.finding(cls.span, f"class name '{cls.name}' is not UpperCamelCase"))
    return findings


def no_package(rule: Rule, ctx: RuleContext) -> list[Finding]:
    if ctx.unit.package_name is None:
        return [rule.finding(ctx.unit.span, "unit has no package declaration")]
    return []


def system_println(rule: Rule, ctx: RuleContext) -> list[Finding]:
    findings = []
    for node in ctx.res.nodes_of(ast.Call):
        if ctx.res.builtin_of(node) is _PRINTLN:
            findings.append(rule.finding(node.span, "println call in production code"))
    return findings


def do_not_use_threads(rule: Rule, ctx: RuleContext) -> list[Finding]:
    return [
        rule.finding(cls.span, f"class {cls.name} extends Thread directly")
        for cls in ctx.unit.classes
        if cls.extends == "Thread"
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
                        rule.finding(param.span, f"parameter '{param.name}' is never assigned and could be final")
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
            findings.append(rule.finding(span, f"code in {method_id} cannot be reached"))
    return findings


# --- catalog ---------------------------------------------------------------------

RULES: tuple[Rule, ...] = (
    Rule("NP_DEREFERENCE_OF_READLINE_VALUE", "dodgy", 3, "normal", 15, "NP", np_dereference),
    Rule("InfiniteRecursion", "correctness", 1, "high", 2, "IL", infinite_recursion),
    Rule("EqualsHashcodeMismatch", "bad_practice", 2, "high", 7, "HE", equals_hashcode),
    Rule("IgnoredReturnValue", "correctness", 2, "normal", 8, "RV", ignored_return_value),
    Rule("UnconditionalWait", "multithreaded_correctness", 2, "normal", 7, "UW",
         unconditional_wait),
    Rule("DeadlockOrder", "multithreaded_correctness", 1, "low", 3, "DL", deadlock_order),
    Rule("StringEqualityOperator", "correctness", 2, "high", 6, "ES", string_equality),
    Rule("UnusedLocalVariable", "dodgy", 4, "high", 16, "UL", unused_local),
    Rule("StreamNotClosed", "experimental", 2, "normal", 9, "OS", stream_not_closed),
    Rule("CircularDependency", "dodgy", 3, "normal", 12, "CD", circular_dependency),
    Rule("RedundantNullCheck", "dodgy", 5, "low", 20, "RCN", redundant_null_check),
    Rule("StaticFieldCouldBeFinal", "correctness", 1, "high", 4, "MS", static_field_could_be_final),
    Rule("EmptyBlock", "bad_practice", 4, "high", 17, "EB", empty_block),
    Rule("MethodNamingConventions", "bad_practice", 4, "high", 18, "NM", method_naming),
    Rule("ParameterNameConvention", "bad_practice", 4, "high", 18, "NM", parameter_naming),
    Rule("ClassNamingConvention", "bad_practice", 4, "high", 18, "NM", class_naming),
    Rule("NoPackage", "bad_practice", 4, "high", 19, "PKG", no_package),
    Rule("SystemPrintln", "performance", 4, "high", 18, "SP", system_println),
    Rule("DoNotUseThreads", "multithreaded_correctness", 3, "normal", 13, "THR",
         do_not_use_threads),
    Rule("MethodArgumentCouldBeFinal", "performance", 5, "high", 20, "FIN",
         method_argument_could_be_final),
    Rule("UnreachableCode", "dodgy", 2, "high", 8, "UC", unreachable_code),
)

# The bound checker's findings, by BoundFinding.kind: security findings that
# boundcheck reports, with no detector here.
BOUND_RULES: dict[str, Rule] = {
    "index_out_of_legal_range": Rule("BoundIndexOutOfLegalRange", "security", 1, "high", 3, "BC"),
    "off_by_one_loop": Rule("BoundOffByOneLoop", "security", 2, "high", 5, "BC"),
    "unvalidated_index_source": Rule("BoundUnvalidatedIndexSource", "security", 2, "normal", 6, "BC"),
    "variable_limit_unchecked": Rule("BoundVariableLimitUnchecked", "security", 2, "normal", 7, "BC"),
    "zero_length_possible": Rule("BoundZeroLengthPossible", "security", 3, "low", 10, "BC"),
}

_BY_ID = {rule.id: rule for rule in (*RULES, *BOUND_RULES.values())}


def rule_by_id(rule_id: str) -> Rule | None:
    return _BY_ID.get(rule_id)


def bound_finding_to_finding(bound: BoundFinding) -> Finding:
    return BOUND_RULES[bound.kind].finding(bound.span, bound.detail)


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
        if ruleset.enabled(rule.id):
            findings.extend(rule.detector(ruleset.effective(rule), ctx))
    findings.sort(key=Finding.sort_key)
    return findings

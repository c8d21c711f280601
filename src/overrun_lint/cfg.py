"""Per-method control-flow graphs, cyclomatic complexity, and reachability.

Instruction ids are unit-unique integers assigned one per simple statement
and one per branching condition, and an assert has two, its check and its
failure; they key the interpreter's execution trace.
Basic blocks end at decisions; try/catch/finally sections chain by
fallthrough only, so exception handling never adds decision nodes.

Data layout.  A unit's graphs share one `CfgTable` of flat columns, so no
block, edge or instruction is an object of its own.  Block ids are unit-wide
and dense: a graph's blocks are a `range` of them, its entry first and its
exit second, and its instructions are a `range` of ids too.  A block's
instructions are one run of ids, `range(first[b], stop[b])` (a block takes
instructions only while it is the builder's current block, and it never
becomes current again).  Block b's out-edges are the entries `out[b]` to
`out[b + 1]` of the edge columns `dst` and `key`, in the order they were
added; `finish` writes them once per graph.  Indexed by instruction id,
`block_of` gives the block and `skippable` is 1 for an instruction that a
path through its block can pass without running it.

This module decides every control-flow fact the other modules read: each
block's out-edges and the decision blocks, the complexity counts derived
from them, the one path search (`reach`: the blocks that paths from a
block reach, where a path stops at a blocked block), which calls run
whenever their block runs (`call_blocks`), the solution of a forward
dataflow problem (the null rules' facts), and the two string formats that
name control flow -- method ids (`Class.name/arity`, with `<init>` for
constructors and `<clinit>` for static initializers) and branch keys
(`true-branch`, `switch-case#case2`, ...), which the resolver, the
interpreter's trace and coverage all share.
"""

from __future__ import annotations

import heapq
from array import array
from collections.abc import Callable, Collection, Iterable, Iterator
from itertools import accumulate
from typing import TypeVar

from .records import record
from .frontend import ast
from .frontend.lexer import SourceSpan

FALLTHROUGH = "fallthrough"
TRUE_BRANCH = "true-branch"
FALSE_BRANCH = "false-branch"
SWITCH_CASE = "switch-case"
LOOP_BACK = "loop-back"
NO_MATCH = "nomatch"  # a switch without a default leaves through this edge

CTOR = "<init>"
CLINIT = "<clinit>"


def method_id(owner: str, name: str, arity: int) -> str:
    return f"{owner}.{name}/{arity}"


def method_identity(class_name: str, method: ast.MethodDecl) -> str:
    return method_id(class_name, CTOR if method.is_constructor else method.name, method.arity)


def default_ctor_id(class_name: str) -> str:
    """The id of the constructor a class without one gets."""
    return method_id(class_name, CTOR, 0)


def clinit_id(class_name: str) -> str:
    return method_id(class_name, CLINIT, 0)


def is_constructor_id(mid: str) -> bool:
    return f".{CTOR}/" in mid


def method_owner(mid: str) -> str:
    return mid.split(".", 1)[0]


def display_method(mid: str) -> str:
    """How the complexity table names a method."""
    cls, rest = mid.split(".", 1)
    name, _arity = rest.rsplit("/", 1)
    if name == CLINIT:
        return f"{cls}.static {{...}}"
    if name == CTOR:
        return f"{cls}.{cls}()"
    return f"{cls}.{name}()"


def branch_key(kind: str, label: str = "") -> str:
    """The trace's name for an edge out of a decision."""
    return f"{kind}#{label}" if label else kind


def assert_failure(check: int) -> int:
    """The instruction id of the failure of the assert whose check is the
    instruction check: the next id."""
    return check + 1


def case_label(index: int, case: ast.SwitchCase) -> str:
    """The label of a switch's edge to its case number index."""
    return "default" if case.label is None else f"case{index}"


class CfgTable:
    """The columns of a unit's blocks, edges and instructions (see the
    module docstring)."""

    __slots__ = ("first", "stop", "out", "dst", "key", "block_of", "skippable", "instr_spans", "stmt_iids")

    def __init__(self):
        self.first, self.stop = array("i"), array("i")  # per block; -1 for one with no instruction
        self.out = array("i", [0])  # per block, plus one
        self.dst, self.key = array("i"), []  # per edge
        self.block_of, self.skippable = array("i"), bytearray()  # per instruction
        self.instr_spans: dict[int, SourceSpan] = {}
        self.stmt_iids: dict[int, int] = {}  # ast uid -> iid

    def add_edges(self, src: list[int], dst: list[int], key: list[str]) -> None:
        """Index the edges src -> dst, with their keys, as the out-edges of
        the blocks added since the last call."""
        out = self.out
        base = len(out) - 1
        degree = [0] * (len(self.first) - base)
        for s in src:
            degree[s - base] += 1
        out[-1:] = array("i", accumulate(degree, initial=out[-1]))  # the last offset, then one a block
        order = sorted(range(len(src)), key=src.__getitem__)  # stable: each block's edges keep their order
        self.dst.extend(map(dst.__getitem__, order))
        self.key.extend(map(key.__getitem__, order))


@record(slots=True)
class ControlFlowGraph:
    method: str
    table: CfgTable
    blocks: range  # block ids
    iids: range  # instruction ids
    entry: int
    exit: int
    implicit_return_iid: int | None = None
    synthetic: bool = False  # implicit ctor / static initializer

    @property
    def N(self) -> int:
        return len(self.blocks)

    @property
    def E(self) -> int:
        out = self.table.out
        return out[self.blocks.stop] - out[self.blocks.start]

    def instructions(self, bid: int) -> range:
        return range(self.table.first[bid], self.table.stop[bid])

    def out_edges(self, bid: int) -> Iterator[tuple[int, str]]:
        """Block bid's out-edges as (target block, branch key), in the order
        they were added."""
        t = self.table
        lo, hi = t.out[bid], t.out[bid + 1]
        return zip(t.dst[lo:hi], t.key[lo:hi])

    @property
    def decisions(self) -> list[int]:
        """The blocks with two or more out-edges, in block order."""
        out = self.table.out
        return [b for b in self.blocks if out[b + 1] - out[b] >= 2]

    @property
    def D(self) -> int:
        return len(self.decisions)

    @property
    def B(self) -> int:
        out = self.table.out
        return sum(out[b + 1] - out[b] for b in self.decisions)


def complexity_en(cfg: ControlFlowGraph) -> int:
    """Cyclomatic complexity from edge and node counts."""
    return cfg.E - cfg.N + 2


def complexity_bd(cfg: ControlFlowGraph) -> int:
    """Cyclomatic complexity from branch and decision-point counts."""
    return cfg.B - cfg.D + 1


def reach(cfg: ControlFlowGraph, start: int | None = None, blocked: Collection[int] = ()) -> set[int]:
    """The blocks that paths from start (entry by default) reach, start
    included.  A path stops at a blocked block: the block is reached, but
    nothing past it is reached through it."""
    out, dst = cfg.table.out, cfg.table.dst
    start = cfg.entry if start is None else start
    reached = {start}
    frontier = [] if start in blocked else [start]
    while frontier:
        bid = frontier.pop()
        for target in dst[out[bid] : out[bid + 1]]:
            if target not in reached:
                reached.add(target)
                if target not in blocked:
                    frontier.append(target)
    return reached


def call_blocks(
    cfg: ControlFlowGraph, calls: Iterable[ast.Node], parent: Callable[[ast.Node], ast.Node | None]
) -> set[int]:
    """The blocks of those calls of cfg's method that run whenever their
    block runs.  A call runs with the statement it lies in, found by
    climbing parent links, unless it lies in the right operand of && or ||,
    which runs only when the left operand does not decide, or the
    statement's instruction is skippable: an assert check, or part of a
    catch body."""
    t = cfg.table
    stmt_iids = t.stmt_iids
    blocks = set()
    for node in calls:
        while node is not None and node.uid not in stmt_iids:
            up = parent(node)
            node = None if isinstance(up, ast.Binary) and up.op in ("&&", "||") and node is up.right else up
        if node is not None:
            iid = stmt_iids[node.uid]
            if not t.skippable[iid]:
                blocks.add(t.block_of[iid])
    return blocks


State = TypeVar("State")


def forward(
    cfg: ControlFlowGraph, start: State, step: Callable[[int, State], State],
    refine: Callable[[int, str, State], State], join: Callable[[State, State], State],
) -> dict[int, State]:
    """The state on entry to each block that entry reaches, by Kildall's
    worklist method: step runs an instruction, refine(source block, branch
    key, state) gives what an edge passes on, and join(old, new) merges
    states, which must stop rising after finitely many joins.  A block runs
    again whenever its entry state changes, so the last step of an
    instruction sees its final state."""
    t = cfg.table
    first, stop, out, dst, key = t.first, t.stop, t.out, t.dst, t.key
    states = {cfg.entry: start}
    pending = [cfg.entry]  # a heap: the lowest block id, roughly source order, first
    while pending:
        bid = heapq.heappop(pending)
        state = states[bid]
        for iid in range(first[bid], stop[bid]):
            state = step(iid, state)
        for e in range(out[bid], out[bid + 1]):
            target = dst[e]
            new = refine(bid, key[e], state)
            old = states.get(target)
            new = new if old is None else join(old, new)
            if new != old:
                states[target] = new
                if target not in pending:
                    heapq.heappush(pending, target)
    return states


def unreachable_nodes(cfg: ControlFlowGraph) -> list[int]:
    """Blocks with no path from entry; none, without a scan, where the
    search reached as many blocks as the graph has."""
    reached = reach(cfg)
    return [] if len(reached) == cfg.N else [b for b in cfg.blocks if b not in reached]


class _Builder:
    """One graph: its blocks and instructions go straight into the table,
    and its edges are kept here until finish indexes them."""

    def __init__(self, table: CfgTable, mid: str):
        self.table = table
        self.mid = mid
        self.src: list[int] = []
        self.dst: list[int] = []
        self.key: list[str] = []
        self.first_iid = len(table.block_of)
        self._catch_depth = 0
        self.entry = self.new_block()
        self.exit = self.new_block()
        self.cur: int | None = self.new_block()
        self.edge(self.entry, self.cur, FALLTHROUGH)

    def new_block(self) -> int:
        self.table.first.append(-1)
        self.table.stop.append(-1)
        return len(self.table.first) - 1

    def edge(self, src: int, dst: int, key: str) -> None:
        self.src.append(src)
        self.dst.append(dst)
        self.key.append(key)

    def ensure_cur(self) -> int:
        if self.cur is None:
            self.cur = self.new_block()  # unreachable continuation
        return self.cur

    def fall_into_new_block(self) -> None:
        """Make a fresh block current, which the current one, if any, falls into."""
        entry = self.new_block()
        if self.cur is not None:
            self.edge(self.cur, entry, FALLTHROUGH)
        self.cur = entry

    def decide(self, block: int, truth: bool | None, taken: int, otherwise: int) -> None:
        """A decision's edges, the true one first; a literal condition keeps
        only the edge it takes."""
        if truth is not False:
            self.edge(block, taken, TRUE_BRANCH)
        if not truth:
            self.edge(block, otherwise, FALSE_BRANCH)

    def place(self, span: SourceSpan) -> int:
        """A fresh instruction id at the end of the current block."""
        t = self.table
        iid = len(t.block_of)
        block = self.ensure_cur()
        if t.first[block] < 0:
            t.first[block] = iid
        t.stop[block] = iid + 1
        t.block_of.append(block)
        t.skippable.append(self._catch_depth > 0)
        t.instr_spans[iid] = span
        return iid

    def instr(self, node: ast.Node, span: SourceSpan | None = None) -> int:
        iid = self.place(span or node.span)
        self.table.stmt_iids[node.uid] = iid
        return iid

    # -- statement dispatch -------------------------------------------------

    def stmts(self, stmts: list[ast.Stmt]) -> None:
        handlers = self._STMTS
        for stmt in stmts:
            handlers[type(stmt)](self, stmt)

    def _return(self, stmt: ast.Return) -> None:
        self.instr(stmt)
        self.edge(self.cur, self.exit, FALLTHROUGH)
        self.cur = None

    def _for(self, stmt: ast.For) -> None:
        if stmt.init is not None:
            self.instr(stmt.init)
        self._loop(stmt, stmt.cond, stmt.body, update=stmt.update)

    def _synchronized(self, stmt: ast.Synchronized) -> None:
        self.instr(stmt)
        self.stmts(stmt.body.stmts)

    def _if(self, stmt: ast.If) -> None:
        self.ensure_cur()
        self.instr(stmt, stmt.cond.span)
        cond_block = self.cur
        then_entry = self.new_block()
        else_entry = self.new_block() if stmt.els is not None else None
        join = self.new_block()
        otherwise = join if else_entry is None else else_entry
        self.decide(cond_block, ast.literal_truth(stmt.cond), then_entry, otherwise)
        self.cur = then_entry
        self.stmts(stmt.then.stmts)
        if self.cur is not None:
            self.edge(self.cur, join, FALLTHROUGH)
        if stmt.els is not None:
            self.cur = else_entry
            self.stmts((stmt.els,))
            if self.cur is not None:
                self.edge(self.cur, join, FALLTHROUGH)
        self.cur = join

    def _assert(self, stmt: ast.Assert) -> None:
        # A decision on whether the assertion fails: the check ends its
        # block, its true edge leads to the failure, placed right after it
        # at the same span, and both reach the join.  No literal prunes an
        # edge: --ea decides whether the check runs at all.
        self.table.skippable[self.instr(stmt)] = 1
        check = self.cur
        failure = self.new_block()
        join = self.new_block()
        self.edge(check, failure, TRUE_BRANCH)
        self.edge(check, join, FALSE_BRANCH)
        self.cur = failure
        self.place(stmt.span)
        self.edge(failure, join, FALLTHROUGH)
        self.cur = join

    def _loop(
        self,
        stmt: ast.Stmt,
        cond: ast.Expr | None,
        body: ast.Block,
        update: ast.Expr | None,
    ) -> None:
        self.ensure_cur()
        cond_block = self.new_block()
        self.edge(self.cur, cond_block, FALLTHROUGH)
        self.cur = cond_block
        self.instr(stmt, cond.span if cond is not None else stmt.span)
        truth = True if cond is None else ast.literal_truth(cond)
        body_entry = self.new_block()
        after = self.new_block()
        self.decide(cond_block, truth, body_entry, after)
        self.cur = body_entry
        self.stmts(body.stmts)
        if update is not None:
            self.ensure_cur()
            self.instr(update)
        if self.cur is not None:
            self.edge(self.cur, cond_block, LOOP_BACK)
        self.cur = after

    def _switch(self, stmt: ast.Switch) -> None:
        self.ensure_cur()
        self.instr(stmt, stmt.subject.span)
        subject_block = self.cur
        after = self.new_block()
        has_default = any(c.label is None for c in stmt.cases)
        for i, case in enumerate(stmt.cases):
            entry = self.new_block()
            self.edge(subject_block, entry, branch_key(SWITCH_CASE, case_label(i, case)))
            self.cur = entry
            self.stmts(case.body)
            if self.cur is not None:
                self.edge(self.cur, after, FALLTHROUGH)
        if not has_default:
            self.edge(subject_block, after, branch_key(SWITCH_CASE, NO_MATCH))
        self.cur = after

    def _try(self, stmt: ast.Try) -> None:
        self.stmts(stmt.body.stmts)
        for catch in stmt.catches:
            self.fall_into_new_block()
            self._catch_depth += 1
            self.stmts(catch.body.stmts)
            self._catch_depth -= 1
        if stmt.finally_block is not None:
            self.fall_into_new_block()
            self.stmts(stmt.finally_block.stmts)

    _STMTS = {
        ast.Block: lambda self, stmt: self.stmts(stmt.stmts),
        ast.ExprStmt: instr,
        ast.LocalDecl: instr,
        ast.Empty: instr,
        ast.Return: _return,
        ast.If: _if,
        ast.While: lambda self, stmt: self._loop(stmt, stmt.cond, stmt.body, update=None),
        ast.For: _for,
        ast.Switch: _switch,
        ast.Try: _try,
        ast.Assert: _assert,
        ast.Synchronized: _synchronized,
    }

    # -- finish ---------------------------------------------------------------

    def finish(self, terminal_span: SourceSpan | None) -> ControlFlowGraph:
        """Close the graph.  A method's ends in an implicit return at
        terminal_span; a synthetic constructor's or static initializer's,
        given None, ends in none."""
        implicit = None
        synthetic = terminal_span is None
        if self.cur is not None:
            if not synthetic:
                # Implicit return instruction: every method executes at least
                # one instruction, so method coverage is observable.
                implicit = self.place(terminal_span)
            self.edge(self.cur, self.exit, FALLTHROUGH)
        self._prune_empty_orphans()
        t = self.table
        t.add_edges(self.src, self.dst, self.key)
        blocks = range(self.entry, len(t.first))
        iids = range(self.first_iid, len(t.block_of))
        return ControlFlowGraph(self.mid, t, blocks, iids, self.entry, self.exit, implicit, synthetic)

    def _prune_empty_orphans(self) -> None:
        # Instruction-free blocks that nothing reaches carry no information;
        # dropping them keeps one node and one out-edge per removal, which
        # leaves E - N + 2 unchanged.  The blocks kept are numbered densely
        # again, in order.
        t = self.table
        lo = self.exit + 1
        empty = {b for b, first in enumerate(t.first[lo:], lo) if first < 0}
        doomed: set[int] = set()
        while empty:
            incoming = {dst for src, dst in zip(self.src, self.dst) if src not in doomed}
            more = empty - incoming
            if not more:
                break
            doomed |= more
            empty -= more
        if not doomed:
            return
        kept = [b for b in range(self.entry, len(t.first)) if b not in doomed]
        new = dict(zip(kept, range(self.entry, self.entry + len(kept))))
        t.first[self.entry :] = array("i", [t.first[b] for b in kept])
        t.stop[self.entry :] = array("i", [t.stop[b] for b in kept])
        edges = [e for e, src in enumerate(self.src) if src in new]
        self.src = [new[self.src[e]] for e in edges]
        self.dst = [new[self.dst[e]] for e in edges]
        self.key = [self.key[e] for e in edges]
        for iid in range(self.first_iid, len(t.block_of)):
            t.block_of[iid] = new[t.block_of[iid]]


@record(slots=True)
class UnitCfgs:
    """All CFGs of a unit, over one table."""

    cfgs: dict[str, ControlFlowGraph]
    table: CfgTable

    @property
    def stmt_iids(self) -> dict[int, int]:
        """ast uid -> iid, over all methods."""
        return self.table.stmt_iids

    @property
    def instr_spans(self) -> dict[int, SourceSpan]:
        return self.table.instr_spans


def build_cfg(method: ast.MethodDecl, class_name: str = "?", table: CfgTable | None = None) -> ControlFlowGraph:
    """CFG for a single method body, added to table (a fresh one by default)."""
    builder = _Builder(CfgTable() if table is None else table, method_identity(class_name, method))
    builder.stmts(method.body.stmts)
    end_span = SourceSpan(
        method.span.file,
        method.span.end_line,
        max(1, method.span.end_column - 1),
        method.span.end_line,
        method.span.end_column,
    )
    return builder.finish(end_span)


def build_unit_cfgs(unit: ast.CompilationUnit) -> UnitCfgs:
    """CFGs for every method, plus synthetic constructors and static
    initializers so those populations count as methods."""
    table = CfgTable()
    cfgs: dict[str, ControlFlowGraph] = {}
    for cls in unit.classes:
        static_inits = [f for f in cls.fields if f.static and f.initializer is not None]
        if static_inits:
            builder = _Builder(table, clinit_id(cls.name))
            for fld in static_inits:
                builder.instr(fld)
            cfg = builder.finish(None)
            cfgs[cfg.method] = cfg
        has_ctor = any(m.is_constructor for m in cls.methods)
        if not has_ctor:
            builder = _Builder(table, default_ctor_id(cls.name))
            builder.instr(cls)
            cfg = builder.finish(None)
            cfgs[cfg.method] = cfg
        for method in cls.methods:
            cfg = build_cfg(method, cls.name, table)
            cfgs[cfg.method] = cfg
    return UnitCfgs(cfgs=cfgs, table=table)

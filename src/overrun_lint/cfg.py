"""Per-method control-flow graphs, cyclomatic complexity, and reachability.

Instruction ids are unit-unique integers assigned one per simple statement
and one per branching condition, and an assert has two, its check and its
failure; they key the interpreter's execution trace.
Basic blocks end at decisions; try/catch/finally sections chain by
fallthrough only, so exception handling never adds decision nodes.

This module decides every control-flow fact the other modules read: each
block's out-edges and the decision blocks (built once per graph, on first
read), the complexity counts derived from them, the one path search
(`reach`: the blocks that paths from a block reach, where a path stops at a
blocked block), which calls run whenever their block runs (`call_blocks`),
the solution of a forward dataflow problem (the null rules' facts), and the
two string formats that name control flow -- method ids (`Class.name/arity`,
with `<init>` for constructors and `<clinit>` for static initializers) and
branch keys (`true-branch`, `switch-case#case2`, ...), which the resolver,
the interpreter's trace and coverage all share.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Callable, Collection, Iterable, Iterator
from functools import cached_property
from typing import TypeVar

from .records import field, record
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


@record(slots=True)
class BasicBlock:
    bid: int
    instructions: list[int] = field(default_factory=list)
    is_entry: bool = False
    is_exit: bool = False


@record(slots=True)
class Edge:
    src: int
    dst: int
    kind: str
    label: str = ""  # disambiguates multiple same-kind edges (switch arms)

    @property
    def key(self) -> str:
        return branch_key(self.kind, self.label)


@record
class ControlFlowGraph:
    method: str
    blocks: list[BasicBlock] = field(default_factory=list)
    edges: list[Edge] = field(default_factory=list)
    entry: int = 0
    exit: int = 1
    instr_spans: dict[int, SourceSpan] = field(default_factory=dict)
    stmt_iids: dict[int, int] = field(default_factory=dict)  # ast uid -> iid
    instr_blocks: dict[int, int] = field(default_factory=dict)  # iid -> bid
    implicit_return_iid: int | None = None
    synthetic: bool = False  # implicit ctor / static initializer
    # Instructions that a path through their block can pass without running:
    # assert checks, which run only under --ea, and everything in a catch
    # body, which the graph chains by fallthrough but which never runs.
    skippable_iids: set[int] = field(default_factory=set)

    @property
    def N(self) -> int:
        return len(self.blocks)

    @property
    def E(self) -> int:
        return len(self.edges)

    # The out-edge table and the decisions are built on first read, which
    # comes after the graph is finished; a graph does not change after that.

    @cached_property
    def successors(self) -> dict[int, list[Edge]]:
        """Each block's out-edges, in the order they were added; a block
        with none has no entry."""
        out: dict[int, list[Edge]] = {}
        for e in self.edges:
            out.setdefault(e.src, []).append(e)
        return out

    @cached_property
    def decisions(self) -> list[BasicBlock]:
        """The blocks with two or more out-edges, in block order."""
        return [b for b in self.blocks if len(self.successors.get(b.bid, ())) >= 2]

    def out_edges(self, bid: int) -> list[Edge]:
        return self.successors.get(bid, [])

    @property
    def D(self) -> int:
        return len(self.decisions)

    @property
    def B(self) -> int:
        return sum(len(self.successors[b.bid]) for b in self.decisions)


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
    successors = cfg.successors
    start = cfg.entry if start is None else start
    reached = {start}
    frontier = [] if start in blocked else [start]
    while frontier:
        for e in successors.get(frontier.pop(), ()):
            if e.dst not in reached:
                reached.add(e.dst)
                if e.dst not in blocked:
                    frontier.append(e.dst)
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
    blocks = set()
    for node in calls:
        while node is not None and node.uid not in cfg.stmt_iids:
            up = parent(node)
            node = None if isinstance(up, ast.Binary) and up.op in ("&&", "||") and node is up.right else up
        if node is not None and cfg.stmt_iids[node.uid] not in cfg.skippable_iids:
            blocks.add(cfg.instr_blocks[cfg.stmt_iids[node.uid]])
    return blocks


State = TypeVar("State")


def forward(
    cfg: ControlFlowGraph, start: State, step: Callable[[int, State], State],
    refine: Callable[[Edge, State], State], join: Callable[[State, State], State],
) -> dict[int, State]:
    """The state on entry to each block that entry reaches, by Kildall's
    worklist method: step runs an instruction, refine gives what an edge
    passes on, and join(old, new) merges states, which must stop rising
    after finitely many joins.  A block runs again whenever its entry state
    changes, so the last step of an instruction sees its final state."""
    blocks = {b.bid: b for b in cfg.blocks}
    states = {cfg.entry: start}
    pending = [cfg.entry]  # a heap: the lowest block id, roughly source order, first
    while pending:
        bid = heapq.heappop(pending)
        state = states[bid]
        for iid in blocks[bid].instructions:
            state = step(iid, state)
        for e in cfg.out_edges(bid):
            new = refine(e, state)
            old = states.get(e.dst)
            new = new if old is None else join(old, new)
            if new != old:
                states[e.dst] = new
                if e.dst not in pending:
                    heapq.heappush(pending, e.dst)
    return states


def unreachable_nodes(cfg: ControlFlowGraph) -> list[BasicBlock]:
    """Blocks with no path from entry; none, without a scan, where the
    search reached as many blocks as the graph has."""
    reached = reach(cfg)
    return [] if len(reached) == cfg.N else [b for b in cfg.blocks if b.bid not in reached]


class _Builder:
    def __init__(self, mid: str, iids: Iterator[int]):
        self.cfg = ControlFlowGraph(method=mid)
        self.iids = iids
        self._next_bid = 0
        self._catch_depth = 0
        entry = self.new_block(is_entry=True)
        exit_block = self.new_block(is_exit=True)
        self.cfg.entry = entry.bid
        self.cfg.exit = exit_block.bid
        self.cur: BasicBlock | None = self.new_block()
        self.edge(entry.bid, self.cur.bid, FALLTHROUGH)

    def new_block(self, is_entry: bool = False, is_exit: bool = False) -> BasicBlock:
        block = BasicBlock(bid=self._next_bid, is_entry=is_entry, is_exit=is_exit)
        self._next_bid += 1
        self.cfg.blocks.append(block)
        return block

    def edge(self, src: int, dst: int, kind: str, label: str = "") -> None:
        self.cfg.edges.append(Edge(src, dst, kind, label))

    def ensure_cur(self) -> BasicBlock:
        if self.cur is None:
            self.cur = self.new_block()  # unreachable continuation
        return self.cur

    def place(self, span: SourceSpan) -> int:
        """A fresh instruction id at the end of the current block."""
        iid = next(self.iids)
        block = self.ensure_cur()
        block.instructions.append(iid)
        self.cfg.instr_blocks[iid] = block.bid
        self.cfg.instr_spans[iid] = span
        if self._catch_depth:
            self.cfg.skippable_iids.add(iid)
        return iid

    def instr(self, node: ast.Node, span: SourceSpan | None = None) -> int:
        iid = self.place(span or node.span)
        self.cfg.stmt_iids[node.uid] = iid
        return iid

    # -- statement dispatch -------------------------------------------------

    def stmts(self, stmts: list[ast.Stmt]) -> None:
        handlers = self._STMTS
        for stmt in stmts:
            handlers[type(stmt)](self, stmt)

    def _return(self, stmt: ast.Return) -> None:
        self.instr(stmt)
        self.edge(self.cur.bid, self.cfg.exit, FALLTHROUGH)
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
        truth = ast.literal_truth(stmt.cond)
        then_entry = self.new_block()
        else_entry = self.new_block() if stmt.els is not None else None
        join = self.new_block()
        if truth is None:
            self.edge(cond_block.bid, then_entry.bid, TRUE_BRANCH)
            self.edge(cond_block.bid, (else_entry or join).bid, FALSE_BRANCH)
        elif truth:
            self.edge(cond_block.bid, then_entry.bid, TRUE_BRANCH)
        else:
            self.edge(cond_block.bid, (else_entry or join).bid, FALSE_BRANCH)
        self.cur = then_entry
        self.stmts(stmt.then.stmts)
        if self.cur is not None:
            self.edge(self.cur.bid, join.bid, FALLTHROUGH)
        if stmt.els is not None:
            self.cur = else_entry
            self.stmts((stmt.els,))
            if self.cur is not None:
                self.edge(self.cur.bid, join.bid, FALLTHROUGH)
        self.cur = join

    def _assert(self, stmt: ast.Assert) -> None:
        # A decision on whether the assertion fails: the check ends its
        # block, its true edge leads to the failure, placed right after it
        # at the same span, and both reach the join.  No literal prunes an
        # edge: --ea decides whether the check runs at all.
        self.cfg.skippable_iids.add(self.instr(stmt))
        check = self.cur
        failure = self.new_block()
        join = self.new_block()
        self.edge(check.bid, failure.bid, TRUE_BRANCH)
        self.edge(check.bid, join.bid, FALSE_BRANCH)
        self.cur = failure
        self.place(stmt.span)
        self.edge(failure.bid, join.bid, FALLTHROUGH)
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
        self.edge(self.cur.bid, cond_block.bid, FALLTHROUGH)
        self.cur = cond_block
        self.instr(stmt, cond.span if cond is not None else stmt.span)
        truth = True if cond is None else ast.literal_truth(cond)
        body_entry = self.new_block()
        after = self.new_block()
        if truth is None:
            self.edge(cond_block.bid, body_entry.bid, TRUE_BRANCH)
            self.edge(cond_block.bid, after.bid, FALSE_BRANCH)
        elif truth:
            self.edge(cond_block.bid, body_entry.bid, TRUE_BRANCH)
        else:
            self.edge(cond_block.bid, after.bid, FALSE_BRANCH)
        self.cur = body_entry
        self.stmts(body.stmts)
        if update is not None:
            self.ensure_cur()
            self.instr(update)
        if self.cur is not None:
            self.edge(self.cur.bid, cond_block.bid, LOOP_BACK)
        self.cur = after

    def _switch(self, stmt: ast.Switch) -> None:
        self.ensure_cur()
        self.instr(stmt, stmt.subject.span)
        subject_block = self.cur
        after = self.new_block()
        has_default = any(c.label is None for c in stmt.cases)
        for i, case in enumerate(stmt.cases):
            entry = self.new_block()
            self.edge(subject_block.bid, entry.bid, SWITCH_CASE, case_label(i, case))
            self.cur = entry
            self.stmts(case.body)
            if self.cur is not None:
                self.edge(self.cur.bid, after.bid, FALLTHROUGH)
        if not has_default:
            self.edge(subject_block.bid, after.bid, SWITCH_CASE, NO_MATCH)
        self.cur = after

    def _try(self, stmt: ast.Try) -> None:
        self.stmts(stmt.body.stmts)
        for catch in stmt.catches:
            entry = self.new_block()
            if self.cur is not None:
                self.edge(self.cur.bid, entry.bid, FALLTHROUGH)
            self.cur = entry
            self._catch_depth += 1
            self.stmts(catch.body.stmts)
            self._catch_depth -= 1
        if stmt.finally_block is not None:
            entry = self.new_block()
            if self.cur is not None:
                self.edge(self.cur.bid, entry.bid, FALLTHROUGH)
            self.cur = entry
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

    def finish(
        self,
        terminal_span: SourceSpan | None,
        add_implicit_return: bool = True,
    ) -> ControlFlowGraph:
        if self.cur is not None:
            if add_implicit_return:
                # Implicit return instruction: every method executes at least
                # one instruction, so method coverage is observable.
                self.cfg.implicit_return_iid = self.place(
                    terminal_span or SourceSpan("<synthetic>", 1, 1, 1, 1)
                )
            self.edge(self.cur.bid, self.cfg.exit, FALLTHROUGH)
        self._prune_empty_orphans()
        return self.cfg

    def _prune_empty_orphans(self) -> None:
        # Instruction-free blocks that nothing reaches carry no information;
        # dropping them keeps one node and one out-edge per removal, which
        # leaves E - N + 2 unchanged.
        while True:
            incoming = {e.dst for e in self.cfg.edges}
            doomed = [
                b
                for b in self.cfg.blocks
                if not b.instructions
                and not b.is_entry
                and not b.is_exit
                and b.bid not in incoming
            ]
            if not doomed:
                return
            doomed_ids = {b.bid for b in doomed}
            self.cfg.blocks = [b for b in self.cfg.blocks if b.bid not in doomed_ids]
            self.cfg.edges = [e for e in self.cfg.edges if e.src not in doomed_ids]


@record
class UnitCfgs:
    """All CFGs of a unit plus unit-wide instruction metadata."""

    cfgs: dict[str, ControlFlowGraph]
    stmt_iids: dict[int, int]  # ast uid -> iid, merged over methods
    instr_spans: dict[int, SourceSpan]


def build_cfg(
    method: ast.MethodDecl,
    class_name: str = "?",
    iids: Iterator[int] | None = None,
) -> ControlFlowGraph:
    """CFG for a single method body; iids hands out its instruction ids."""
    builder = _Builder(method_identity(class_name, method), iids or itertools.count())
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
    iids = itertools.count()
    cfgs: dict[str, ControlFlowGraph] = {}
    for cls in unit.classes:
        static_inits = [f for f in cls.fields if f.static and f.initializer is not None]
        if static_inits:
            builder = _Builder(clinit_id(cls.name), iids)
            for fld in static_inits:
                builder.instr(fld)
            cfg = builder.finish(None, add_implicit_return=False)
            cfg.synthetic = True
            cfgs[cfg.method] = cfg
        has_ctor = any(m.is_constructor for m in cls.methods)
        if not has_ctor:
            builder = _Builder(default_ctor_id(cls.name), iids)
            builder.instr(cls)
            cfg = builder.finish(None, add_implicit_return=False)
            cfg.synthetic = True
            cfgs[cfg.method] = cfg
        for method in cls.methods:
            cfg = build_cfg(method, cls.name, iids)
            cfgs[cfg.method] = cfg
    stmt_iids: dict[int, int] = {}
    instr_spans: dict[int, SourceSpan] = {}
    for cfg in cfgs.values():
        stmt_iids.update(cfg.stmt_iids)
        instr_spans.update(cfg.instr_spans)
    return UnitCfgs(cfgs=cfgs, stmt_iids=stmt_iids, instr_spans=instr_spans)

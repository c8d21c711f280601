"""Coverage counters derived from an execution trace.

Six counter kinds are reported: instruction, branch, line, method, class,
complexity.  For each kind covered + missed equals the statically
enumerated population.  Line statuses follow the executed-instruction
partition: none -> no_coverage (red), some -> partial (yellow),
all -> full (green); branch statuses color decisions the same way.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import CoverageUnavailableError
from ..frontend import ast
from ..cfg import ComplexitySummary, Edge, UnitCfgs, complexity_bd
from .interpreter import RunTrace

NO_COVERAGE = "no_coverage"
PARTIAL = "partial"
FULL = "full"

STATUS_COLORS = {NO_COVERAGE: "red", PARTIAL: "yellow", FULL: "green"}

COUNTER_KINDS = ("instruction", "branch", "line", "method", "class", "complexity")


@dataclass
class CoverageCounter:
    kind: str
    covered: int
    missed: int

    @property
    def total(self) -> int:
        return self.covered + self.missed


@dataclass
class CoverageReport:
    counters: list[CoverageCounter]
    line_status: dict[int, str]
    branch_status: dict[int, str]  # decision line -> status
    per_method_covered: dict[str, int]  # covered complexity per method
    summary: ComplexitySummary

    def counter(self, kind: str) -> CoverageCounter:
        for c in self.counters:
            if c.kind == kind:
                return c
        raise KeyError(kind)


def coverage_summary(
    trace: RunTrace, unit: ast.CompilationUnit, cfgs: UnitCfgs
) -> CoverageReport:
    if not trace.coverage_enabled:
        raise CoverageUnavailableError("trace was recorded without --coverage")
    executed = trace.executed_instruction_ids

    all_iids = set(cfgs.instr_spans)
    instr_covered = len(all_iids & executed)
    counters = [CoverageCounter("instruction", instr_covered, len(all_iids) - instr_covered)]

    # One walk over every decision finds how many of its edges ran; the
    # branch counter and statuses and the complexity counter read it.
    outcomes = trace.branch_outcomes
    branch_total = 0
    branch_covered = 0
    branch_status: dict[int, str] = {}
    # method -> edges taken beyond the first at each decision that ran
    extra_taken: dict[str, int] = {}
    for method_id, cfg in cfgs.cfgs.items():
        blocks = {b.bid: b for b in cfg.blocks}
        out_edges: dict[int, list[Edge]] = {}
        for e in cfg.edges:
            out_edges.setdefault(e.src, []).append(e)
        extra = 0
        for bid in cfg.decision_blocks():
            instructions = blocks[bid].instructions
            if not instructions:
                continue
            cond_iid = instructions[-1]
            edges = out_edges[bid]
            taken = sum(1 for e in edges if outcomes.get((cond_iid, e.key), 0) > 0)
            extra += taken - 1 if taken else 0
            branch_total += len(edges)
            branch_covered += taken
            line = cfg.instr_spans[cond_iid].line
            if taken == 0:
                branch_status[line] = NO_COVERAGE
            elif taken < len(edges):
                branch_status[line] = PARTIAL
            else:
                branch_status[line] = FULL
        extra_taken[method_id] = extra
    counters.append(CoverageCounter("branch", branch_covered, branch_total - branch_covered))

    # lines
    line_iids: dict[int, set[int]] = {}
    for iid, span in cfgs.instr_spans.items():
        line_iids.setdefault(span.line, set()).add(iid)
    line_status: dict[int, str] = {}
    lines_covered = 0
    for line, iids in sorted(line_iids.items()):
        hit = len(iids & executed)
        if hit == 0:
            line_status[line] = NO_COVERAGE
        elif hit < len(iids):
            line_status[line] = PARTIAL
            lines_covered += 1
        else:
            line_status[line] = FULL
            lines_covered += 1
    counters.append(CoverageCounter("line", lines_covered, len(line_iids) - lines_covered))

    # methods: covered when at least one of their instructions executed
    method_covered: set[str] = set()
    for cfg in cfgs.cfgs.values():
        if any(iid in executed for iid in cfg.instruction_ids()):
            method_covered.add(cfg.method)
    counters.append(
        CoverageCounter("method", len(method_covered), len(cfgs.cfgs) - len(method_covered))
    )

    # classes: covered when at least one method (ctor/static-init included) ran
    class_names = [cls.name for cls in unit.classes]
    classes_covered = sum(
        1
        for name in class_names
        if any(m.split(".", 1)[0] == name for m in method_covered)
    )
    counters.append(
        CoverageCounter("class", classes_covered, len(class_names) - classes_covered)
    )

    # complexity: covered complexity from the taken-branch subgraph
    per_method_covered: dict[str, int] = {}
    complexity_covered = 0
    complexity_total = 0
    for method_id, cfg in cfgs.cfgs.items():
        v = complexity_bd(cfg)
        complexity_total += v
        if method_id not in method_covered:
            per_method_covered[method_id] = 0
            continue
        covered_v = min(v, extra_taken[method_id] + 1)
        per_method_covered[method_id] = covered_v
        complexity_covered += covered_v
    counters.append(
        CoverageCounter("complexity", complexity_covered, complexity_total - complexity_covered)
    )

    summary = ComplexitySummary.build(unit, cfgs, per_method_covered)
    return CoverageReport(
        counters=counters,
        line_status=line_status,
        branch_status=branch_status,
        per_method_covered=per_method_covered,
        summary=summary,
    )

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
from ..cfg import UnitCfgs, complexity_bd, method_owner
from .interpreter import RunTrace

NO_COVERAGE = "no_coverage"
PARTIAL = "partial"
FULL = "full"

STATUS_COLORS = {NO_COVERAGE: "red", PARTIAL: "yellow", FULL: "green"}

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

    def counter(self, kind: str) -> CoverageCounter:
        for c in self.counters:
            if c.kind == kind:
                return c
        raise KeyError(kind)


def _status(hit: int, total: int) -> str:
    return NO_COVERAGE if hit == 0 else PARTIAL if hit < total else FULL


def coverage_summary(
    trace: RunTrace, unit: ast.CompilationUnit, cfgs: UnitCfgs
) -> CoverageReport:
    if not trace.coverage_enabled:
        raise CoverageUnavailableError("trace was recorded without --coverage")
    executed = trace.executed_instruction_ids
    outcomes = trace.branch_outcomes

    # One walk over the methods.  A method is covered when one of its
    # instructions ran.  A decision's branches are its out-edges, each
    # covered when it ran; every branch taken beyond the first at a
    # decision covers one more unit of the method's complexity.
    instr_total = instr_covered = 0
    branch_total = branch_covered = 0
    complexity_total = complexity_covered = 0
    methods_covered = 0
    branch_status: dict[int, str] = {}
    per_method_covered: dict[str, int] = {}
    owners_run: set[str] = set()
    for mid, cfg in cfgs.cfgs.items():
        ran = len(executed.intersection(cfg.instr_blocks))
        instr_total += len(cfg.instr_blocks)
        instr_covered += ran
        extra = 0
        for block in cfg.decisions:
            edges = cfg.successors[block.bid]
            cond_iid = block.instructions[-1]  # the decision's condition
            taken = sum(1 for e in edges if outcomes.get((cond_iid, e.key), 0) > 0)
            extra += taken - 1 if taken else 0
            branch_total += len(edges)
            branch_covered += taken
            branch_status[cfg.instr_spans[cond_iid].line] = _status(taken, len(edges))
        v = complexity_bd(cfg)
        covered_v = min(v, extra + 1) if ran else 0
        per_method_covered[mid] = covered_v
        complexity_total += v
        complexity_covered += covered_v
        if ran:
            methods_covered += 1
            owners_run.add(method_owner(mid))

    line_iids: dict[int, set[int]] = {}
    for iid, span in cfgs.instr_spans.items():
        line_iids.setdefault(span.line, set()).add(iid)
    line_status = {
        line: _status(len(iids & executed), len(iids)) for line, iids in sorted(line_iids.items())
    }
    lines_covered = sum(1 for status in line_status.values() if status != NO_COVERAGE)
    # A class is covered when one of its methods, ctor/static-init included, ran.
    class_names = [cls.name for cls in unit.classes]
    classes_covered = sum(1 for name in class_names if name in owners_run)

    counters = [
        CoverageCounter("instruction", instr_covered, instr_total - instr_covered),
        CoverageCounter("branch", branch_covered, branch_total - branch_covered),
        CoverageCounter("line", lines_covered, len(line_iids) - lines_covered),
        CoverageCounter("method", methods_covered, len(cfgs.cfgs) - methods_covered),
        CoverageCounter("class", classes_covered, len(class_names) - classes_covered),
        CoverageCounter("complexity", complexity_covered, complexity_total - complexity_covered),
    ]
    return CoverageReport(
        counters=counters,
        line_status=line_status,
        branch_status=branch_status,
        per_method_covered=per_method_covered,
    )

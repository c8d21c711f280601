"""End-to-end wiring: the one route from source text to an analysis.

analyze_source parses and resolves; every other phase is built on demand
by the reader that needs it, so each command pays only for what it reads:

- the call graph, only inside findings() (the rules are its one reader);
- the CFGs, on the first read of AnalyzedUnit.cfgs (rules, metrics, run),
  then kept, because trace instruction ids refer to that one UnitCfgs.

boundcheck and cpd read neither; metrics and run read no call graph.
The call graph, the rules, the bound checker and the interpreter are
imported by the method that runs them, so a command also loads only the
modules it runs.
"""

from __future__ import annotations

from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import read_text
from .records import record
from .frontend.parser import parse_source
from .semantics.resolver import build_symbol_table
from .cfg import build_unit_cfgs

if TYPE_CHECKING:
    from .boundcheck import BoundFinding
    from .cfg import UnitCfgs
    from .detectors.model import Finding, RuleSet
    from .frontend import ast
    from .runtime.interpreter import RunOptions, RunTrace
    from .semantics.resolver import Resolution


@record
class AnalyzedUnit:
    unit: ast.CompilationUnit
    res: Resolution

    @property
    def file(self) -> str:
        return self.unit.file

    @property
    def source(self) -> str:
        return self.unit.source

    @cached_property
    def cfgs(self) -> UnitCfgs:
        return build_unit_cfgs(self.unit)

    def findings(self, ruleset: RuleSet | None = None) -> list[Finding]:
        from .detectors.rules import run_rules
        from .semantics.callgraph import build_call_graph

        call_graph = build_call_graph(self.unit, self.res)
        return run_rules(self.unit, self.res, call_graph, self.cfgs, ruleset)

    def bound_findings(self) -> list[BoundFinding]:
        from .boundcheck import run_bound_check

        return run_bound_check(self.unit, self.res)


def analyze_source(source: str, file: str = "<memory>") -> AnalyzedUnit:
    unit = parse_source(source, file)
    return AnalyzedUnit(unit=unit, res=build_symbol_table(unit))


def analyze_path(path: str | Path) -> AnalyzedUnit:
    return analyze_source(read_text(path), str(Path(path)))


def run_source(
    source: str, file: str = "<memory>", options: RunOptions | None = None
) -> tuple[RunTrace, AnalyzedUnit]:
    """Resolve and execute; returns the trace and the analysis (whose CFGs
    the trace ids refer to)."""
    from .runtime.interpreter import RunOptions, execute

    analyzed = analyze_source(source, file)
    trace = execute(analyzed.unit, options or RunOptions(), analyzed.res, analyzed.cfgs)
    return trace, analyzed

"""overrun-lint: static and dynamic analysis for SL sources.

The toolchain parses SL programs into an AST, resolves scopes and types,
builds per-method control-flow graphs, and feeds them to a configurable
bug-pattern rule engine, an array bound checker, a token-based clone
detector, and a coverage-tracing interpreter.  Results merge into XML, TXT,
CSV, or HTML reports.
"""

__version__ = "0.1.0"

from .frontend import parse, parse_source, pretty_print, tokenize
from .semantics import build_call_graph, build_symbol_table, type_of
from .cfg import (
    build_cfg,
    build_unit_cfgs,
    complexity_bd,
    complexity_en,
    reachability,
    unreachable_nodes,
)
from .boundcheck import check_loops, find_arrays, run_bound_check, track_index_vars
from .detectors import classify, find_duplicates, load_ruleset, run_rules
from .runtime import (
    RunOptions,
    add_wrapped,
    coverage_summary,
    execute,
    stack_overwrite_demo,
)
from .reporting import annotate_source, coverage_percent, efficiency_rate, emit_report
from .pipeline import analyze_path, analyze_source, run_source

__all__ = [
    "__version__",
    "tokenize",
    "parse",
    "parse_source",
    "pretty_print",
    "build_symbol_table",
    "type_of",
    "build_call_graph",
    "build_cfg",
    "build_unit_cfgs",
    "complexity_en",
    "complexity_bd",
    "reachability",
    "unreachable_nodes",
    "find_arrays",
    "track_index_vars",
    "check_loops",
    "run_bound_check",
    "load_ruleset",
    "run_rules",
    "classify",
    "find_duplicates",
    "execute",
    "RunOptions",
    "coverage_summary",
    "add_wrapped",
    "stack_overwrite_demo",
    "coverage_percent",
    "efficiency_rate",
    "emit_report",
    "annotate_source",
    "analyze_source",
    "analyze_path",
    "run_source",
]

"""overrun-lint: static and dynamic analysis for SL sources.

The toolchain parses SL programs into an AST, resolves scopes and types,
builds per-method control-flow graphs, and feeds them to a configurable
bug-pattern rule engine, an array bound checker, a token-based clone
detector, and a coverage-tracing interpreter.  Results merge into XML, TXT,
CSV, or HTML reports.
"""

__version__ = "0.1.0"

from .lazy import lazy_exports

# Each layer is imported when one of its names is first read, so a command
# loads only the layers it runs.
__getattr__ = lazy_exports(__name__, {
    ".frontend": ("parse", "parse_source", "pretty_print", "tokenize"),
    ".semantics": ("build_call_graph", "build_symbol_table", "type_of"),
    ".cfg": (
        "build_cfg",
        "build_unit_cfgs",
        "complexity_bd",
        "complexity_en",
        "reachability",
        "unreachable_nodes",
    ),
    ".boundcheck": ("check_loops", "find_arrays", "run_bound_check", "track_index_vars"),
    ".detectors": ("classify", "find_duplicates", "load_ruleset", "run_rules"),
    ".runtime": ("RunOptions", "add_wrapped", "coverage_summary", "execute", "stack_overwrite_demo"),
    ".reporting": ("annotate_source", "coverage_percent", "efficiency_rate", "emit_report"),
    ".pipeline": ("analyze_path", "analyze_source", "run_source"),
})

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

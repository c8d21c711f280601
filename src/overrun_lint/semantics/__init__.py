from ..lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".resolver": (
        "CallTarget",
        "ClassInfo",
        "MethodInfo",
        "Resolution",
        "Scope",
        "Symbol",
        "build_symbol_table",
        "type_of",
    ),
    ".callgraph": ("CallEdge", "CallGraph", "build_call_graph"),
})

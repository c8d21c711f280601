from ..lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".interpreter": (
        "AssertionRecord",
        "Fault",
        "RunOptions",
        "RunTrace",
        "execute",
        "format_value",
        "FAULT_ARITHMETIC",
        "FAULT_ASSERTION_FAILURE",
        "FAULT_CLOSED_STREAM",
        "FAULT_MISSING_RETURN",
        "FAULT_NEGATIVE_ARRAY_SIZE",
        "FAULT_NULL_DEREFERENCE",
        "FAULT_NUMBER_FORMAT",
        "FAULT_OUT_OF_BOUNDS",
        "FAULT_OVERFLOW_WARNING",
        "FAULT_STEP_LIMIT",
    ),
    ".coverage": ("CoverageCounter", "CoverageReport", "coverage_summary"),
    ".overflow": ("StackFrameDemo", "add_wrapped", "stack_overwrite_demo"),
})

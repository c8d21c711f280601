from .interpreter import (
    AssertionRecord,
    Fault,
    RunOptions,
    RunTrace,
    execute,
    format_value,
    FAULT_ASSERTION_FAILURE,
    FAULT_MISSING_RETURN,
    FAULT_NULL_DEREFERENCE,
    FAULT_OUT_OF_BOUNDS,
    FAULT_OVERFLOW_WARNING,
    FAULT_STEP_LIMIT,
)
from .coverage import CoverageCounter, CoverageReport, coverage_summary
from .overflow import StackFrameDemo, add_wrapped, stack_overwrite_demo

__all__ = [
    "AssertionRecord",
    "Fault",
    "RunOptions",
    "RunTrace",
    "execute",
    "format_value",
    "FAULT_ASSERTION_FAILURE",
    "FAULT_MISSING_RETURN",
    "FAULT_NULL_DEREFERENCE",
    "FAULT_OUT_OF_BOUNDS",
    "FAULT_OVERFLOW_WARNING",
    "FAULT_STEP_LIMIT",
    "CoverageCounter",
    "CoverageReport",
    "coverage_summary",
    "StackFrameDemo",
    "add_wrapped",
    "stack_overwrite_demo",
]

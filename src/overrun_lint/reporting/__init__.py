from ..detectors.rules import bound_finding_to_finding
from .report import (
    PER_100,
    PER_1000,
    MetricsRow,
    Report,
    build_metrics_rows,
    coverage_percent,
    efficiency_rate,
)
from .emit import CSV_HEADER, FORMATS, emit_report, render_metrics_table
from .annotate import (
    annotate_source,
    annotation_line,
    format_review_timestamp,
    reviewed_rules_by_line,
    suppress_reviewed,
)

__all__ = [
    "PER_100",
    "PER_1000",
    "MetricsRow",
    "Report",
    "bound_finding_to_finding",
    "build_metrics_rows",
    "coverage_percent",
    "efficiency_rate",
    "CSV_HEADER",
    "FORMATS",
    "emit_report",
    "render_metrics_table",
    "annotate_source",
    "annotation_line",
    "format_review_timestamp",
    "reviewed_rules_by_line",
    "suppress_reviewed",
]

from ..lazy import lazy_exports

# The formats emit_report writes; here so the CLI can offer them without
# loading the emitter.
FORMATS = ("xml", "txt", "csv", "html")

__getattr__ = lazy_exports(__name__, {
    "..detectors.rules": ("bound_finding_to_finding",),
    ".report": (
        "PER_100",
        "PER_1000",
        "MetricsRow",
        "Report",
        "build_metrics_rows",
        "coverage_percent",
        "efficiency_rate",
    ),
    ".emit": ("CSV_HEADER", "emit_report", "render_metrics_table"),
    ".annotate": (
        "annotate_source",
        "annotation_line",
        "format_review_timestamp",
        "reviewed_rules_by_line",
        "suppress_reviewed",
    ),
})

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

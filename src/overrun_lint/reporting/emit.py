"""Report emission in XML, TXT, CSV, and HTML.

All four formats agree on finding counts and per-category totals, and are
byte-deterministic once the report timestamp is injected.

XML is written as text.  Of a finding's 13 attributes, `BUGTYPE` and
`PATTERN` depend only on its rule id, and `priority` through `triage` only
on its effective priority, rank, confidence, category and triage: each run
is escaped once per key, and a finding formats only its marker, file, line
and message.
"""

from __future__ import annotations

import io

from ..errors import OverrunLintError, split_lines
from .report import Report, coverage_percent

CSV_HEADER = ["file", "line", "rule_id", "category", "priority", "rank", "confidence", "message"]


class IoError(OverrunLintError):
    pass


def emit_report(report: Report, format: str, out: str | None = None) -> str:
    if format == "xml":
        document = _emit_xml(report)
    elif format == "txt":
        document = _emit_txt(report)
    elif format == "csv":
        document = _emit_csv(report)
    elif format == "html":
        document = _emit_html(report)
    else:
        raise OverrunLintError(f"unknown report format {format!r}")
    if out is not None:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(document)
        except OSError as err:
            raise IoError(f"cannot write report to {out}: {err}") from err
    return document


# The escaping ElementTree gives attribute values (_escape_attrib, the same
# in Python 3.10-3.13), "&" first.  A replace per character that occurs is
# about 15 times faster than a translation table on a message that holds one.
_ATTRIBUTE = (
    ("&", "&amp;"), ("<", "&lt;"), (">", "&gt;"), ('"', "&quot;"), ("\r", "&#13;"), ("\n", "&#10;"), ("\t", "&#09;")
)


def _escape(text: str) -> str:
    """text as an attribute value."""
    for char, reference in _ATTRIBUTE:
        if char in text:
            text = text.replace(char, reference)
    return text


def _attributes(attributes: dict[str, str]) -> str:
    """Attributes as ElementTree writes them: in order, each value escaped."""
    return "".join(f' {name}="{_escape(value)}"' for name, value in attributes.items())


def _leaf(tag: str, attributes: dict[str, str]) -> str:
    """An element without children as ElementTree writes it: self-closing."""
    return f"<{tag}{_attributes(attributes)} />"


def _emit_xml(report: Report) -> str:
    """The report as UTF-8 XML, the bytes ElementTree would write for the
    same tree, but without building it."""
    from ..detectors.rules import rule_by_id

    rule_runs: dict[str, str] = {}
    class_runs: dict[tuple, str] = {}
    findings = []
    for marker, finding in enumerate(report.findings, start=1):
        rule_run = rule_runs.get(finding.rule_id)
        if rule_run is None:
            rule_run = rule_runs[finding.rule_id] = _attributes(
                {"BUGTYPE": finding.rule_id, "PATTERN": rule_by_id(finding.rule_id).pattern}
            )
        key = (finding.priority, finding.rank, finding.confidence, finding.category, finding.triage)
        class_run = class_runs.get(key)
        if class_run is None:
            class_run = class_runs[key] = _attributes(
                {
                    "priority": str(finding.priority),
                    "priorityColor": finding.priority_color,
                    "RANK": str(finding.rank),
                    "rankBand": finding.rank_band,
                    "confidence": finding.confidence,
                    "category": finding.category,
                    "triage": finding.triage,
                }
            )
        span = finding.span
        findings.append(
            f'<finding markerId="{marker}"{rule_run} file="{_escape(span.file)}" '
            f'lineNumber="{span.line}"{class_run} message="{_escape(finding.message)}" />'
        )
    categories = [_leaf("category", {"name": k, "count": str(n)}) for k, n in report.category_summary.items()]
    sections = [("findings", {"count": str(len(report.findings))}, findings), ("categories", {}, categories)]
    if report.coverage is not None:
        counters = [
            _leaf("counter", {"kind": c.kind, "covered": str(c.covered), "missed": str(c.missed)})
            for c in report.coverage.counters
        ]
        sections.append(("coverage", {}, counters))
    if report.metrics_rows:
        rows = [
            _leaf(
                "element",
                {
                    "name": row.element,
                    "kind": row.kind,
                    "coverage": f"{row.percent} %",
                    "coveredComplexity": str(row.covered),
                    "missedComplexity": str(row.missed),
                    "totalComplexity": str(row.total),
                },
            )
            for row in report.metrics_rows
        ]
        sections.append(("metrics", {}, rows))
    # One join builds the document, so the findings, its largest part, are
    # copied once.
    head = {"tool": "overrun-lint", "version": report.tool_version, "generated": report.generated_at}
    parts = ["<?xml version='1.0' encoding='utf-8'?>\n<report", _attributes(head), ">"]
    for tag, attributes, children in sections:
        parts += [f"<{tag}{_attributes(attributes)}>", *children, f"</{tag}>"] if children else [_leaf(tag, attributes)]
    parts.append("</report>\n")
    document = "".join(parts)
    # ElementTree writes what UTF-8 cannot encode (a lone surrogate) as a
    # character reference.
    return document if document.isascii() else document.encode("utf-8", "xmlcharrefreplace").decode("utf-8")


def _emit_csv(report: Report) -> str:
    import csv

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for finding in report.findings:
        writer.writerow(
            [
                finding.span.file,
                finding.span.line,
                finding.rule_id,
                finding.category,
                finding.priority,
                finding.rank,
                finding.confidence,
                finding.message,
            ]
        )
    return buffer.getvalue()


def _emit_txt(report: Report) -> str:
    lines = [
        f"overrun-lint {report.tool_version} report (generated {report.generated_at})",
        f"{len(report.findings)} finding(s)",
        "",
    ]
    for finding in report.findings:
        lines.append(
            f"{finding.span.file}:{finding.span.line}:{finding.span.column}: "
            f"[P{finding.priority}/{finding.priority_color} rank {finding.rank}/"
            f"{finding.rank_band} {finding.confidence}] {finding.rule_id} "
            f"({finding.category}): {finding.message}"
        )
    if report.findings:
        lines.append("")
        lines.append("findings by category:")
        for name, count in report.category_summary.items():
            lines.append(f"  {name}: {count}")
    if report.coverage is not None:
        lines.append("")
        lines.append("coverage counters:")
        for counter in report.coverage.counters:
            pct = (
                coverage_percent(counter.covered, counter.missed)
                if counter.total
                else 0.0
            )
            lines.append(
                f"  {counter.kind}: covered {counter.covered}, missed {counter.missed} ({pct} %)"
            )
    if report.metrics_rows:
        lines.append("")
        lines.extend(render_metrics_table(report.metrics_rows))
    return "\n".join(lines) + "\n"


def render_metrics_table(rows) -> list[str]:
    header = ("Element", "Coverage", "Covered Complexity", "Missed Complexity", "Total Complexity")
    table = [header]
    for row in rows:
        indent = {"project": "", "file": "  ", "class": "    ", "method": "      "}[row.kind]
        table.append(
            (
                indent + row.element,
                f"{row.percent} %",
                str(row.covered),
                str(row.missed),
                str(row.total),
            )
        )
    widths = [max(len(r[i]) for r in table) for i in range(5)]
    out = []
    for r in table:
        out.append(
            "  ".join(cell.ljust(widths[i]) if i == 0 else cell.rjust(widths[i]) for i, cell in enumerate(r))
        )
    return out


_HTML_CSS = """\
body { font-family: sans-serif; }
table { border-collapse: collapse; }
td, th { border: 1px solid #999; padding: 2px 8px; }
tr.p1 td.prio { background: #e05050; color: white; }
tr.p2 td.prio { background: #f0a050; }
tr.p3 td.prio { background: #f0e050; }
tr.p4 td.prio { background: #70c070; }
tr.p5 td.prio { background: #7090e0; }
pre.source span.red { background: #f4c7c3; display: inline-block; width: 100%; }
pre.source span.yellow { background: #fce8b2; display: inline-block; width: 100%; }
pre.source span.green { background: #b7e1cd; display: inline-block; width: 100%; }
"""


def _emit_html(report: Report) -> str:
    import html

    parts = [
        "<!DOCTYPE html>",
        "<html><head><meta charset=\"utf-8\"/>",
        "<title>overrun-lint report</title>",
        f"<style>{_HTML_CSS}</style>",
        "</head><body>",
        f"<h1>overrun-lint {html.escape(report.tool_version)}</h1>",
        f"<p>generated {html.escape(report.generated_at)}; {len(report.findings)} finding(s)</p>",
        "<table><tr><th>file</th><th>line</th><th>priority</th><th>rank</th>"
        "<th>confidence</th><th>rule</th><th>category</th><th>message</th></tr>",
    ]
    for finding in report.findings:
        parts.append(
            f'<tr class="p{finding.priority}">'
            f"<td>{html.escape(finding.span.file)}</td>"
            f"<td>{finding.span.line}</td>"
            f'<td class="prio">{finding.priority} ({finding.priority_color})</td>'
            f"<td>{finding.rank} ({finding.rank_band.replace('_', ' ')})</td>"
            f"<td>{finding.confidence}</td>"
            f"<td>{html.escape(finding.rule_id)}</td>"
            f"<td>{html.escape(finding.category)}</td>"
            f"<td>{html.escape(finding.message)}</td></tr>"
        )
    parts.append("</table>")
    if report.coverage is not None:
        from ..runtime.coverage import STATUS_COLORS

        parts.append("<h2>Coverage</h2><table><tr><th>counter</th><th>covered</th><th>missed</th></tr>")
        for counter in report.coverage.counters:
            parts.append(
                f"<tr><td>{counter.kind}</td><td>{counter.covered}</td><td>{counter.missed}</td></tr>"
            )
        parts.append("</table>")
        for file, source in sorted(report.sources.items()):
            parts.append(f"<h3>{html.escape(file)}</h3>")
            parts.append('<pre class="source">')
            for lineno, text in enumerate(split_lines(source), start=1):
                status = report.coverage.line_status.get(lineno)
                escaped = html.escape(text) or " "
                if status is None:
                    parts.append(f"{lineno:4d}  {escaped}")
                else:
                    color = STATUS_COLORS[status]
                    parts.append(f'{lineno:4d}  <span class="{color}">{escaped}</span>')
            parts.append("</pre>")
    if report.metrics_rows:
        parts.append("<h2>Complexity</h2><table><tr><th>Element</th><th>Coverage</th>"
                     "<th>Covered Complexity</th><th>Missed Complexity</th><th>Total Complexity</th></tr>")
        for row in report.metrics_rows:
            parts.append(
                f"<tr><td>{html.escape(row.element)}</td><td>{row.percent} %</td>"
                f"<td>{row.covered}</td><td>{row.missed}</td><td>{row.total}</td></tr>"
            )
        parts.append("</table>")
    parts.append("</body></html>")
    return "\n".join(parts) + "\n"

import csv
import io
from datetime import datetime
from xml.etree import ElementTree as ET

import pytest

from overrun_lint import __version__
from overrun_lint.cli import main
from overrun_lint.errors import DomainError, SpanOutOfRangeError
from overrun_lint.frontend.lexer import SourceSpan
from overrun_lint.detectors.model import Finding, RuleSet, load_ruleset
from overrun_lint.pipeline import analyze_path, analyze_source
from overrun_lint.detectors.rules import rule_by_id
from overrun_lint.reporting.report import MetricsRow
from overrun_lint.runtime.coverage import CoverageCounter, CoverageReport
from overrun_lint.reporting import (
    PER_100,
    PER_1000,
    Report,
    annotate_source,
    annotation_line,
    coverage_percent,
    efficiency_rate,
    emit_report,
    format_review_timestamp,
    suppress_reviewed,
)


def sample_finding(line=3, rule="NP_DEREFERENCE_OF_READLINE_VALUE"):
    return Finding(
        rule_id=rule,
        category="dodgy",
        priority=3,
        rank=15,
        confidence="normal",
        message="Dereference of the result of readLine() without a null check",
        span=SourceSpan("x.sl", line, 9, line, 20),
    )


def sample_report(findings=None):
    return Report(tool_version="0.1.0", generated_at="T0", findings=findings or [])


# -- arithmetic --------------------------------------------------------------------


@pytest.mark.parametrize(
    "covered,missed,expected",
    [(11, 1, 91.7), (1, 1, 50.0), (11, 3, 78.6), (0, 2, 0.0), (5, 0, 100.0)],
)
def test_coverage_percent_values(covered, missed, expected):
    assert coverage_percent(covered, missed) == pytest.approx(expected, abs=0.05)


def test_coverage_percent_bounds():
    for covered, missed in ((1, 2), (2, 1), (7, 13), (13, 7)):
        assert 0.0 <= coverage_percent(covered, missed) <= 100.0


def test_coverage_percent_empty_population_rejected():
    with pytest.raises(DomainError):
        coverage_percent(0, 0)


@pytest.mark.parametrize(
    "warnings,loc,scale,expected",
    [(424, 1000, PER_100, 42.4), (17, 26, PER_1000, 653.8), (0, 500, PER_100, 0.0)],
)
def test_efficiency_rate_values(warnings, loc, scale, expected):
    assert efficiency_rate(warnings, loc, scale) == expected


def test_efficiency_rate_zero_loc_rejected():
    with pytest.raises(DomainError):
        efficiency_rate(1, 0, PER_100)


def test_rounding_is_half_up():
    assert coverage_percent(1, 7) == 12.5
    assert efficiency_rate(1, 16, PER_100) == 6.3  # 6.25 rounds up


# -- emission ----------------------------------------------------------------------


def test_empty_report_all_formats_valid():
    report = sample_report()
    xml = emit_report(report, "xml")
    assert ET.fromstring(xml).get("tool") == "overrun-lint"
    csv_doc = emit_report(report, "csv")
    rows = list(csv.reader(io.StringIO(csv_doc)))
    assert rows[0] == ["file", "line", "rule_id", "category", "priority", "rank", "confidence", "message"]
    assert len(rows) == 1
    assert "0 finding(s)" in emit_report(report, "txt")
    assert "<html>" in emit_report(report, "html")


def test_xml_attributes_pin_bugtype_and_rank():
    report = sample_report([sample_finding()])
    root = ET.fromstring(emit_report(report, "xml"))
    finding = root.find("findings/finding")
    assert finding.get("BUGTYPE") == "NP_DEREFERENCE_OF_READLINE_VALUE"
    assert finding.get("RANK") == "15"
    assert finding.get("PATTERN") == "NP"
    assert finding.get("lineNumber") == "3"
    assert finding.get("priority") == "3"
    assert finding.get("message")


def _elementtree_xml(report):
    """The XML report built as an ElementTree and written by it."""
    root = ET.Element("report", {"tool": "overrun-lint", "version": report.tool_version, "generated": report.generated_at})
    findings = ET.SubElement(root, "findings", {"count": str(len(report.findings))})
    for marker, f in enumerate(report.findings, start=1):
        ET.SubElement(findings, "finding", {
            "markerId": str(marker), "BUGTYPE": f.rule_id, "PATTERN": rule_by_id(f.rule_id).pattern, "file": f.span.file,
            "lineNumber": str(f.span.line), "priority": str(f.priority), "priorityColor": f.priority_color,
            "RANK": str(f.rank), "rankBand": f.rank_band, "confidence": f.confidence, "category": f.category,
            "triage": f.triage, "message": f.message,
        })
    categories = ET.SubElement(root, "categories")
    for name, count in report.category_summary.items():
        ET.SubElement(categories, "category", {"name": name, "count": str(count)})
    if report.coverage is not None:
        coverage = ET.SubElement(root, "coverage")
        for c in report.coverage.counters:
            ET.SubElement(coverage, "counter", {"kind": c.kind, "covered": str(c.covered), "missed": str(c.missed)})
    if report.metrics_rows:
        metrics = ET.SubElement(root, "metrics")
        for row in report.metrics_rows:
            ET.SubElement(metrics, "element", {
                "name": row.element, "kind": row.kind, "coverage": f"{row.percent} %",
                "coveredComplexity": str(row.covered), "missedComplexity": str(row.missed),
                "totalComplexity": str(row.total),
            })
    buffer = io.BytesIO()
    ET.ElementTree(root).write(buffer, encoding="utf-8", xml_declaration=True)
    return buffer.getvalue().decode("utf-8") + "\n"


@pytest.mark.parametrize(
    "text",
    [
        'a & b < c > d "e" \r f \n g \t h',
        "&amp; &lt; already escaped, ' kept",
        "caf\u00e9 \u65e5\u672c \U0001f600 \u2028 \x0b",
        "lone \ud800 surrogate",
        "",
    ],
)
def test_xml_writer_gives_elementtrees_bytes(text):
    finding = sample_finding()
    odd = Finding(
        rule_id=finding.rule_id, category=finding.category, priority=1, rank=1, confidence="high",
        message=text, span=SourceSpan(f"dir & {text}.sl", 7, 1, 7, 2), triage=text or "untriaged",
    )
    rows = [MetricsRow(element=text, kind="method", covered=1, missed=2)]
    coverage = CoverageReport([CoverageCounter(kind=text, covered=3, missed=0)], {}, {}, {})
    for report in (
        sample_report([finding, odd]),
        Report(tool_version=text, generated_at=text, findings=[odd], coverage=coverage, metrics_rows=rows),
        sample_report(),
    ):
        assert emit_report(report, "xml").encode("utf-8") == _elementtree_xml(report).encode("utf-8")


def _catalog_finding(rule_id, line, priority=None, triage="untriaged"):
    rule = rule_by_id(rule_id)
    return Finding(
        rule_id=rule_id, category=rule.category, priority=priority or rule.priority, rank=rule.rank,
        confidence=rule.confidence, message=f"{rule_id} <{line}>", span=SourceSpan("m.sl", line, 1, line, 2),
        triage=triage,
    )


def test_xml_writer_gives_elementtrees_bytes_across_rules_priorities_and_triage():
    # One rule under three classifications, and rules that share a pattern
    # (NM) or a classification: each finding keeps its own attributes.
    findings = [
        _catalog_finding("SystemPrintln", 1),
        _catalog_finding("SystemPrintln", 2, priority=1, triage="reviewed"),
        _catalog_finding("SystemPrintln", 3, triage="false_positive"),
        _catalog_finding("MethodNamingConventions", 4),
        _catalog_finding("ParameterNameConvention", 5),
        _catalog_finding("ClassNamingConvention", 6, priority=1, triage="reviewed"),
        _catalog_finding("NP_DEREFERENCE_OF_READLINE_VALUE", 7),
        _catalog_finding("SystemPrintln", 8),
    ]
    report = sample_report(findings)
    document = emit_report(report, "xml")
    assert document.encode("utf-8") == _elementtree_xml(report).encode("utf-8")
    attributes = [e.attrib for e in ET.fromstring(document).findall("findings/finding")]
    assert [(a["BUGTYPE"], a["priority"], a["priorityColor"], a["triage"]) for a in attributes[:3]] == [
        ("SystemPrintln", "4", "green", "untriaged"),
        ("SystemPrintln", "1", "red", "reviewed"),
        ("SystemPrintln", "4", "green", "false_positive"),
    ]


@pytest.mark.parametrize("ruleset", ["", "rule SystemPrintln priority=1\n"])
def test_xml_report_of_the_corpus_gives_elementtrees_bytes(ruleset, corpus_dir, tmp_path, capsys):
    paths = [str(p) for p in sorted(corpus_dir.glob("*.sl"))]
    argv = ["analyze", *paths, "--format", "xml", "--timestamp", "T0"]
    rules = RuleSet()
    if ruleset:
        (tmp_path / "rules").write_text(ruleset)
        argv += ["--ruleset", str(tmp_path / "rules")]
        rules = load_ruleset(ruleset)
    assert main(argv) == 1
    findings = sorted((f for path in paths for f in analyze_path(path).findings(rules)), key=Finding.sort_key)
    expected = _elementtree_xml(Report(tool_version=__version__, generated_at="T0", findings=findings))
    assert capsys.readouterr().out.encode("utf-8") == expected.encode("utf-8")
    printlns = {f.priority for f in findings if f.rule_id == "SystemPrintln"}
    assert printlns == ({1} if ruleset else {4})
    assert len({f.rule_id for f in findings}) > 5


def test_csv_row_count_matches_findings(corpus_sources):
    for name, source in corpus_sources.items():
        analyzed = analyze_source(source, name)
        findings = analyzed.findings()
        doc = emit_report(sample_report(findings), "csv")
        rows = list(csv.reader(io.StringIO(doc)))
        assert len(rows) - 1 == len(findings), name


def test_formats_agree_on_counts(corpus_sources):
    analyzed = analyze_source(corpus_sources["yang.sl"], "yang.sl")
    findings = analyzed.findings()
    report = sample_report(findings)
    xml_count = len(ET.fromstring(emit_report(report, "xml")).findall("findings/finding"))
    csv_count = len(list(csv.reader(io.StringIO(emit_report(report, "csv"))))) - 1
    txt = emit_report(report, "txt")
    html = emit_report(report, "html")
    assert xml_count == csv_count == len(findings)
    assert f"{len(findings)} finding(s)" in txt
    assert f"{len(findings)} finding(s)" in html
    # per-category totals agree
    categories = {
        e.get("name"): int(e.get("count"))
        for e in ET.fromstring(emit_report(report, "xml")).findall("categories/category")
    }
    assert categories == report.category_summary


def test_emission_injective_on_findings():
    a = sample_report([sample_finding(line=3)])
    b = sample_report([sample_finding(line=4)])
    assert emit_report(a, "csv") != emit_report(b, "csv")


def test_byte_determinism_with_injected_timestamp():
    finding = sample_finding()
    one = emit_report(sample_report([finding]), "xml")
    two = emit_report(sample_report([finding]), "xml")
    assert one == two


def test_unwritable_path_raises():
    from overrun_lint.reporting.emit import IoError

    with pytest.raises(IoError):
        emit_report(sample_report(), "txt", out="/nonexistent-dir/report.txt")


def test_html_priority_colors_and_line_classes():
    report = sample_report([sample_finding()])
    html_doc = emit_report(report, "html")
    assert 'class="p3"' in html_doc
    assert "yellow" in html_doc


# -- review annotations ----------------------------------------------------------


def test_timestamp_format_matches_reference_shape():
    when = datetime(2012, 3, 28, 12, 4)
    assert format_review_timestamp(when) == "3/28/12 12.04PM"
    assert format_review_timestamp(datetime(2011, 1, 2, 0, 5)) == "1/2/11 12.05AM"


def test_annotation_line_format():
    line = annotation_line("MethodNamingConventions", "R SINGH", "3/28/12 12.04PM")
    assert line == "//@PMD:REVIEWED: MethodNamingConventions: by R SINGH on 3/28/12 12.04PM"


SOURCE = """\
class A {
    void WRONG_NAME() {
        println(1);
    }
}
"""


def annotate(source, line, rule, reviewer="R SINGH", when="3/28/12 12.04PM"):
    finding = sample_finding(line=line, rule=rule)
    return annotate_source(source, finding, reviewer, when)


def test_annotation_inserted_above_violation():
    out = annotate(SOURCE, 2, "MethodNamingConventions")
    lines = out.splitlines()
    assert lines[1].strip() == "//@PMD:REVIEWED: MethodNamingConventions: by R SINGH on 3/28/12 12.04PM"
    assert lines[2].strip().startswith("void WRONG_NAME")
    # indentation matches the annotated line
    assert lines[1].startswith("    ")


def test_annotation_idempotent():
    once = annotate(SOURCE, 2, "MethodNamingConventions")
    twice = annotate(once, 3, "MethodNamingConventions")  # line shifted by 1
    assert once == twice


def test_annotated_source_reparses():
    from overrun_lint.frontend import parse_source

    out = annotate(SOURCE, 2, "MethodNamingConventions")
    unit = parse_source(out, "a.sl")
    assert unit.classes[0].methods[0].name == "WRONG_NAME"


def test_annotation_out_of_range():
    with pytest.raises(SpanOutOfRangeError):
        annotate(SOURCE, 99, "MethodNamingConventions")


def test_annotation_shifts_later_findings_by_one():
    analyzed = analyze_source(SOURCE, "a.sl")
    before = {(f.rule_id, f.span.line) for f in analyzed.findings()}
    annotated = annotate(SOURCE, 2, "MethodNamingConventions")
    after = {(f.rule_id, f.span.line) for f in analyze_source(annotated, "a.sl").findings()}
    expected = {(r, l + 1 if l >= 2 else l) for r, l in before}
    assert expected == after


def test_suppression_drops_only_reviewed_findings():
    analyzed = analyze_source(SOURCE, "a.sl")
    findings = analyzed.findings()
    annotated = annotate(SOURCE, 2, "MethodNamingConventions")
    analyzed2 = analyze_source(annotated, "a.sl")
    findings2 = analyzed2.findings()
    kept = suppress_reviewed(findings2, annotated)
    assert {f.rule_id for f in findings2} - {f.rule_id for f in kept} == {"MethodNamingConventions"}
    assert len(kept) == len(findings2) - 1


def test_html_line_coverage_classes_and_xml_coverage_section(corpus_sources):
    from overrun_lint.pipeline import run_source
    from overrun_lint.runtime import RunOptions, coverage_summary

    source = corpus_sources["file_check.sl"]
    trace, analyzed = run_source(
        source,
        "file_check.sl",
        RunOptions(coverage_enabled=True, file_system_stub={"C:\\base\\lars.xls": ""}),
    )
    coverage = coverage_summary(trace, analyzed.unit, analyzed.cfgs)
    report = Report(
        tool_version="0.1.0",
        generated_at="T0",
        findings=analyzed.findings(),
        coverage=coverage,
        sources={"file_check.sl": source},
    )
    html_doc = emit_report(report, "html")
    assert '<span class="green">' in html_doc  # executed lines
    assert '<span class="red">' in html_doc    # the missed then-branch
    xml_doc = emit_report(report, "xml")
    assert 'counter kind="branch"' in xml_doc
    assert 'counter kind="complexity"' in xml_doc

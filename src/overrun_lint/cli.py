"""Command-line interface.

Exit codes: 0 = no findings at/above the threshold, 1 = findings present,
2 = parse/config error or a unit that does not resolve (its first error).

Each command imports the layers it runs, and no others.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .errors import ConfigError, OverrunLintError, read_text, split_lines
from .reporting import FORMATS

if TYPE_CHECKING:
    from .detectors.model import Finding


def _default_timestamp() -> str:
    from datetime import datetime

    return datetime.now().strftime("%Y-%m-%d %H:%M:%S")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="overrun-lint")
    parser.add_argument("--version", action="version", version=f"overrun-lint {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="run the bug-pattern rules")
    analyze.add_argument("paths", nargs="+")
    analyze.add_argument("--ruleset", help="ruleset config file")
    analyze.add_argument("--format", choices=FORMATS, default="txt")
    analyze.add_argument("--out", help="write the report here instead of stdout")
    analyze.add_argument("--min-priority", type=int, default=5, metavar="N",
                         help="only findings with priority <= N (1 is highest)")
    analyze.add_argument("--honor-reviews", action="store_true",
                         help="drop findings already marked //@PMD:REVIEWED")
    analyze.add_argument("--timestamp", help="inject the report timestamp (for reproducible output)")

    bound = sub.add_parser("boundcheck", help="run the array bound-checking analysis")
    bound.add_argument("paths", nargs="+")
    bound.add_argument("--format", choices=FORMATS, default="txt")
    bound.add_argument("--out")
    bound.add_argument("--timestamp")

    run = sub.add_parser("run", help="interpret a program")
    run.add_argument("file")
    run.add_argument("--entry", help="entry point as Class.method (default: the static main)")
    run.add_argument("--ea", action="store_true", help="enable assertion checking")
    run.add_argument("--coverage", action="store_true", help="record coverage counters")
    run.add_argument("--stdin", help="file whose lines feed readLine()")
    run.add_argument("--seed", type=int, default=0, help="seed for random()")
    run.add_argument("--coverage-out", help="write coverage data as JSON")

    metrics = sub.add_parser("metrics", help="emit the complexity/coverage table")
    metrics.add_argument("paths", nargs="+")
    metrics.add_argument("--coverage-data", help="JSON written by run --coverage-out")

    cpd = sub.add_parser("cpd", help="copy-paste detection")
    cpd.add_argument("paths", nargs="+")
    cpd.add_argument("--min-tokens", type=int, default=25)

    annotate = sub.add_parser("annotate", help="insert a review annotation")
    annotate.add_argument("file")
    annotate.add_argument("--line", type=int, required=True)
    annotate.add_argument("--rule", required=True)
    annotate.add_argument("--reviewer", required=True)
    annotate.add_argument("--time", required=True, metavar="M/D/YY H.MMAM")
    annotate.add_argument("--out", help="write here instead of editing in place")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except OverrunLintError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.command == "analyze":
        return _cmd_analyze(args)
    if args.command == "boundcheck":
        return _cmd_boundcheck(args)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "metrics":
        return _cmd_metrics(args)
    if args.command == "cpd":
        return _cmd_cpd(args)
    if args.command == "annotate":
        return _cmd_annotate(args)
    raise AssertionError(args.command)


def _analyze_units(paths):
    from .pipeline import analyze_path

    return [analyze_path(path) for path in paths]


def _cmd_analyze(args) -> int:
    from .detectors.model import RuleSet, load_ruleset

    ruleset = RuleSet()
    if args.ruleset:
        ruleset = load_ruleset(read_text(args.ruleset), args.ruleset)
    units = _analyze_units(args.paths)
    findings: list[Finding] = []
    for analyzed in units:
        unit_findings = analyzed.findings(ruleset)
        if args.honor_reviews:
            from .reporting.annotate import suppress_reviewed

            unit_findings = suppress_reviewed(unit_findings, analyzed.source)
        findings.extend(unit_findings)
    findings = [f for f in findings if f.priority <= args.min_priority]
    return _emit(args, findings)


def _cmd_boundcheck(args) -> int:
    from .detectors.rules import bound_finding_to_finding

    units = _analyze_units(args.paths)
    findings: list[Finding] = []
    for analyzed in units:
        findings.extend(bound_finding_to_finding(b) for b in analyzed.bound_findings())
    return _emit(args, findings)


def _emit(args, findings: list[Finding]) -> int:
    """Sort and report the findings; exit 1 when there are any."""
    from .detectors.model import Finding
    from .reporting.emit import emit_report
    from .reporting.report import Report

    findings.sort(key=Finding.sort_key)
    report = Report(
        tool_version=__version__,
        generated_at=args.timestamp or _default_timestamp(),
        findings=findings,
    )
    document = emit_report(report, args.format, args.out)
    if args.out is None:
        sys.stdout.write(document)
    return 1 if findings else 0


def _cmd_run(args) -> int:
    from .pipeline import run_source
    from .runtime.interpreter import RunOptions

    if args.coverage_out and not args.coverage:
        raise OverrunLintError("--coverage-out needs --coverage")
    source = read_text(args.file)
    stdin_script = None
    if args.stdin:
        # Lines end at \n alone, as BufferedReader.readLine's do once
        # read_text has translated \r\n and \r.
        stdin_script = split_lines(read_text(args.stdin))
    options = RunOptions(
        entry=args.entry,
        assertions_enabled=args.ea,
        coverage_enabled=args.coverage,
        stdin_script=stdin_script,
        seed=args.seed,
    )
    trace, analyzed = run_source(source, args.file, options)
    for line in trace.stdout:
        print(line)
    for record in trace.assertion_records:
        print(
            f"assertion {record.outcome}: {record.unit_name}: {record.statement_text}"
            + (f": {record.message}" if record.message else ""),
            file=sys.stderr,
        )
    for fault in trace.faults:
        where = f"{fault.span.file}:{fault.span.line}" if fault.span else args.file
        print(f"fault: {fault.kind} at {where}: {fault.detail}", file=sys.stderr)
    if args.coverage:
        from .reporting.emit import render_metrics_table
        from .reporting.report import build_metrics_rows
        from .runtime.coverage import coverage_summary

        report = coverage_summary(trace, analyzed.unit, analyzed.cfgs)
        rows = build_metrics_rows(
            [(analyzed.unit, analyzed.cfgs)], report.per_method_covered, analyzed.file
        )
        for line in render_metrics_table(rows):
            print(line)
        if args.coverage_out:
            payload = {
                "file": analyzed.file,
                "counters": [
                    {"kind": c.kind, "covered": c.covered, "missed": c.missed}
                    for c in report.counters
                ],
                "line_status": {str(k): v for k, v in sorted(report.line_status.items())},
                "branch_status": {str(k): v for k, v in sorted(report.branch_status.items())},
                "per_method_covered": dict(sorted(report.per_method_covered.items())),
            }
            Path(args.coverage_out).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return 1 if trace.halting_fault is not None else 0


def _cmd_metrics(args) -> int:
    from .reporting.emit import render_metrics_table
    from .reporting.report import build_metrics_rows

    covered = _load_covered(args.coverage_data) if args.coverage_data else {}
    units = _analyze_units(args.paths)
    rows = build_metrics_rows([(a.unit, a.cfgs) for a in units], covered)
    for line in render_metrics_table(rows):
        print(line)
    return 0


def _load_covered(path: str) -> dict[str, int]:
    """The per-method covered counts of a `run --coverage-out` file."""
    text = read_text(path)
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as err:  # not JSON, nested too deep
        raise ConfigError(None, f"not a coverage JSON file: {err}", path) from None
    covered = payload.get("per_method_covered", {}) if isinstance(payload, dict) else None
    if not isinstance(covered, dict) or not all(type(v) is int and v >= 0 for v in covered.values()):
        raise ConfigError(None, "expected an object whose per_method_covered maps method ids to counts", path)
    return covered


def _cmd_cpd(args) -> int:
    # Clone detection reads the tokens the parser left on each unit;
    # resolution just gates validity.
    from .detectors.clones import find_duplicates

    units = _analyze_units(args.paths)
    pairs = find_duplicates([a.unit for a in units], args.min_tokens)
    for pair in pairs:
        print(
            f"{pair.token_length} duplicated tokens: "
            f"{pair.span_a.file}:{pair.span_a.line}-{pair.span_a.end_line} and "
            f"{pair.span_b.file}:{pair.span_b.line}-{pair.span_b.end_line}"
        )
    return 1 if pairs else 0


def _cmd_annotate(args) -> int:
    from .detectors.rules import rule_by_id
    from .frontend.lexer import SourceSpan
    from .reporting.annotate import annotate_source

    rule = rule_by_id(args.rule)
    if rule is None:
        raise OverrunLintError(f"unknown rule id '{args.rule}'")
    source = read_text(args.file)
    finding = rule.finding(SourceSpan(args.file, args.line, 1, args.line, 1), "")
    annotated = annotate_source(source, finding, args.reviewer, args.time)
    Path(args.out or args.file).write_text(annotated, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Review annotations: insertion above violations, and optional suppression."""

from __future__ import annotations

import re
from typing import TYPE_CHECKING

from ..errors import OverrunLintError, SpanOutOfRangeError

if TYPE_CHECKING:
    from datetime import datetime

    from ..detectors.model import Finding

REVIEW_RE = re.compile(r"^\s*//@PMD:REVIEWED:\s*(\w+):\s*by\s+(.+?)\s+on\s+(.+?)\s*$")


def format_review_timestamp(when: datetime) -> str:
    """M/D/YY H.MMAM|PM, e.g. 3/28/12 12.04PM."""
    hour = when.hour % 12 or 12
    suffix = "AM" if when.hour < 12 else "PM"
    return f"{when.month}/{when.day}/{when.year % 100:02d} {hour}.{when.minute:02d}{suffix}"


def annotation_line(rule_id: str, reviewer: str, timestamp: str) -> str:
    return f"//@PMD:REVIEWED: {rule_id}: by {reviewer} on {timestamp}"


def annotate_source(source: str, finding: Finding, reviewer: str, timestamp: str) -> str:
    """Insert a review annotation directly above the violation line.

    Re-annotating the same (line, rule) pair is a no-op; the annotated text
    still parses (annotations are ordinary comments).  A reviewer or time
    that REVIEW_RE would not read back is an error: nothing could honor it.
    """
    annotation = annotation_line(finding.rule_id, reviewer, timestamp)
    match = REVIEW_RE.match(annotation)
    if match is None or match.groups() != (finding.rule_id, reviewer, timestamp):
        raise OverrunLintError(f"reviewer {reviewer!r} and time {timestamp!r} do not read back from {annotation!r}")
    lines = source.splitlines()
    target = finding.span.line
    if target < 1 or target > len(lines):
        raise SpanOutOfRangeError(f"line {target} outside 1..{len(lines)} of {finding.span.file}")
    # Existing annotations stack directly above the target line.
    probe = target - 1
    while probe >= 1:
        match = REVIEW_RE.match(lines[probe - 1])
        if match is None:
            break
        if match.group(1) == finding.rule_id:
            return _rejoin(lines, source)
        probe -= 1
    indent = re.match(r"[ \t]*", lines[target - 1]).group(0)
    lines.insert(target - 1, indent + annotation)
    return _rejoin(lines, source)


def _rejoin(lines: list[str], original: str) -> str:
    text = "\n".join(lines)
    if original.endswith("\n"):
        text += "\n"
    return text


def reviewed_rules_by_line(source: str) -> dict[int, set[str]]:
    """Map a code line to the rule ids reviewed in annotations directly above."""
    lines = source.splitlines()
    out: dict[int, set[str]] = {}
    pending: set[str] = set()
    for lineno, text in enumerate(lines, start=1):
        match = REVIEW_RE.match(text)
        if match is not None:
            pending.add(match.group(1))
            continue
        if pending:
            out[lineno] = pending
            pending = set()
    return out


def suppress_reviewed(findings: list[Finding], source: str) -> list[Finding]:
    """Drop findings whose (line, rule) carries a review annotation."""
    reviewed = reviewed_rules_by_line(source)
    return [
        f for f in findings if f.rule_id not in reviewed.get(f.span.line, set())
    ]

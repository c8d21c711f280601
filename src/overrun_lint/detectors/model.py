"""Finding/Rule/RuleSet data model, priority and rank semantics."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from ..records import field, record
from ..errors import ConfigError, UnknownRuleError, split_lines
from ..frontend.lexer import SourceSpan

PRIORITY_COLORS = {1: "red", 2: "orange", 3: "yellow", 4: "green", 5: "blue"}

RANK_BANDS = (
    (1, 4, "scariest"),
    (5, 9, "scary"),
    (10, 14, "troubling"),
    (15, 20, "of_concern"),
)


def priority_color(priority: int) -> str:
    return PRIORITY_COLORS[priority]


def rank_band(rank: int) -> str:
    for lo, hi, band in RANK_BANDS:
        if lo <= rank <= hi:
            return band
    raise ValueError(f"rank {rank} outside 1-20")


@record
class Finding:
    rule_id: str
    category: str
    priority: int
    rank: int
    confidence: str
    message: str
    span: SourceSpan
    triage: str = "untriaged"

    @property
    def priority_color(self) -> str:
        return priority_color(self.priority)

    @property
    def rank_band(self) -> str:
        return rank_band(self.rank)

    def sort_key(self):
        return (self.span.file, self.span.line, self.rule_id, self.span.column)


# A stdlib dataclass, not a record: RuleSet.effective and perfbench/jobs.py
# derive rules from it with dataclasses.replace.
@dataclass(frozen=True)
class Rule:
    id: str
    category: str
    priority: int
    confidence: str
    rank: int
    pattern: str  # short pattern code for report attributes
    # (Rule, RuleContext) -> list[Finding]; None for a rule that boundcheck
    # reports, which no analyze run can enable or disable.
    detector: Callable | None = None

    def finding(self, span: SourceSpan, message: str) -> Finding:
        return Finding(
            rule_id=self.id,
            category=self.category,
            priority=self.priority,
            rank=self.rank,
            confidence=self.confidence,
            message=message,
            span=span,
        )


@record
class RuleSetEntry:
    enabled: bool = True
    priority_override: int | None = None


@record
class RuleSet:
    entries: dict[str, RuleSetEntry] = field(default_factory=dict)

    def entry(self, rule_id: str) -> RuleSetEntry:
        return self.entries.get(rule_id, RuleSetEntry())

    def enabled(self, rule_id: str) -> bool:
        return self.entry(rule_id).enabled

    def effective(self, rule: Rule) -> Rule:
        """The rule with this ruleset's priority applied."""
        override = self.entry(rule.id).priority_override
        return rule if override is None else replace(rule, priority=override)


@record(frozen=True)
class Classification:
    category: str
    priority: int
    priority_color: str
    rank: int
    rank_band: str
    confidence: str


def classify(rule_id: str, ruleset: RuleSet | None = None) -> Classification:
    """Effective category/priority/color/rank/band/confidence for a rule."""
    from .rules import rule_by_id  # local import to avoid a cycle

    rule = rule_by_id(rule_id)
    if rule is None:
        raise UnknownRuleError(rule_id)
    rule = (ruleset or RuleSet()).effective(rule)
    return Classification(
        category=rule.category,
        priority=rule.priority,
        priority_color=priority_color(rule.priority),
        rank=rule.rank,
        rank_band=rank_band(rule.rank),
        confidence=rule.confidence,
    )


def load_ruleset(config: str, file: str | None = None) -> RuleSet:
    """Parse the line-oriented ruleset format; errors name file, if given.

    One directive per line: ``rule <RuleId> [enabled=true|false] [priority=<1-5>]``,
    ``#`` starts a comment.  Unknown rule ids are rejected, and so are those
    of the rules boundcheck reports, which have no detector.
    """
    from .rules import rule_by_id

    ruleset = RuleSet()
    for lineno, raw in enumerate(split_lines(config), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] != "rule" or len(parts) < 2:
            raise ConfigError(lineno, f"expected 'rule <RuleId> ...', got {raw.strip()!r}", file)
        rule_id = parts[1]
        rule = rule_by_id(rule_id)
        if rule is None:
            raise ConfigError(lineno, f"unknown rule id '{rule_id}'", file)
        if rule.detector is None:
            raise ConfigError(lineno, f"rule '{rule_id}' is reported by boundcheck, which takes no ruleset", file)
        entry = ruleset.entries.setdefault(rule_id, RuleSetEntry())
        for option in parts[2:]:
            key, _, value = option.partition("=")
            if key == "enabled":
                if value not in ("true", "false"):
                    raise ConfigError(lineno, f"enabled must be true or false, got {value!r}", file)
                entry.enabled = value == "true"
            elif key == "priority":
                try:
                    priority = int(value)
                except ValueError:
                    raise ConfigError(lineno, f"priority must be an integer, got {value!r}", file)
                if not 1 <= priority <= 5:
                    raise ConfigError(lineno, f"priority {priority} outside 1-5", file)
                entry.priority_override = priority
            else:
                raise ConfigError(lineno, f"unknown option {key!r}", file)
    return ruleset

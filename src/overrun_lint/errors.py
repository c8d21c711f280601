"""Exception types shared across the toolchain."""

from __future__ import annotations


class OverrunLintError(Exception):
    """Base class for everything this package raises on purpose."""


class SpannedError(OverrunLintError):
    def __init__(self, span, message: str):
        self.span = span
        self.message = message
        super().__init__(f"{span}: {message}" if span is not None else message)


class LexError(SpannedError):
    """Unterminated string/comment or illegal character."""


class ParseError(SpannedError):
    def __init__(self, span, expected: str, found: str):
        self.expected = expected
        self.found = found
        super().__init__(span, f"expected {expected}, found {found}")


class NestingError(ParseError):
    """Input nested deeper than the parser's MAX_NESTING."""

    def __init__(self, span, limit: int):
        self.limit = limit
        SpannedError.__init__(self, span, f"nesting deeper than {limit}")


class ResolutionError(SpannedError):
    def __init__(self, span, name: str):
        self.name = name
        super().__init__(span, f"undeclared identifier '{name}'")


class DuplicateDeclaration(SpannedError):
    def __init__(self, span, name: str):
        self.name = name
        super().__init__(span, f"duplicate declaration of '{name}'")


class TypeCheckError(SpannedError):
    """Operator/operand mismatch discovered while typing expressions."""


class ConfigError(OverrunLintError):
    """A settings or data file that cannot be used, and where in it."""

    def __init__(self, line: int | None, message: str, file: str | None = None):
        self.line = line
        self.message = message
        where = ": ".join(p for p in (file, line and f"line {line}") if p)
        super().__init__(f"{where}: {message}")


class UnknownRuleError(OverrunLintError):
    def __init__(self, rule_id: str):
        self.rule_id = rule_id
        super().__init__(f"unknown rule id '{rule_id}'")


class EntryNotFoundError(OverrunLintError):
    """Requested entry point does not exist or is not runnable."""


class DomainError(OverrunLintError):
    """Input outside an operation's declared domain."""


class CoverageUnavailableError(OverrunLintError):
    """Trace was produced without coverage recording."""


class SpanOutOfRangeError(OverrunLintError):
    """Annotation target lies outside the source text."""

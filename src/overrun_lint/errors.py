"""Exception types shared across the toolchain, and the one reader of
input files, which turns text that is not UTF-8 into one of them."""

from __future__ import annotations

from os import PathLike


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
    """A source, settings or data file that cannot be used, and where in it."""

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


def read_text(path: str | PathLike[str]) -> str:
    """The text of an input file (a source, ruleset, stdin script or
    coverage data), its newlines translated as Path.read_text does.  Bytes
    that are not UTF-8 are a ConfigError naming the file and the line of the
    first bad byte."""
    with open(path, "rb") as file:
        # \r and \n never occur inside a UTF-8 sequence, so the translation
        # can come before decoding, and the line count reads the bytes.
        data = file.read().replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as err:
        line = data.count(b"\n", 0, err.start) + 1
        message = f"not UTF-8 text: cannot decode byte 0x{data[err.start]:02x}"
        raise ConfigError(line, message, str(path)) from None

"""Tokenizer for SL source files.

Token kinds: keyword, identifier, int-literal, double-literal,
string-literal, operator, punctuation, comment.  Comments are kept in the
stream so review annotations survive re-emission.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from ..errors import LexError

KEYWORDS = frozenset(
    {
        "assert",
        "boolean",
        "byte",
        "case",
        "catch",
        "class",
        "default",
        "double",
        "else",
        "extends",
        "final",
        "finally",
        "for",
        "if",
        "int",
        "new",
        "null",
        "package",
        "return",
        "static",
        "switch",
        "synchronized",
        "this",
        "true",
        "false",
        "try",
        "void",
        "while",
    }
)

# Longest-match first.
OPERATORS = (
    "&&",
    "||",
    "==",
    "!=",
    "<=",
    ">=",
    "++",
    "--",
    "=",
    "<",
    ">",
    "+",
    "-",
    "*",
    "/",
    "%",
    "!",
)

PUNCTUATION = frozenset(";,(){}[]:.")

KEYWORD = "keyword"
IDENTIFIER = "identifier"
INT_LITERAL = "int-literal"
DOUBLE_LITERAL = "double-literal"
STRING_LITERAL = "string-literal"
OPERATOR = "operator"
PUNCT = "punctuation"
COMMENT = "comment"


class SourceSpan(NamedTuple):
    file: str
    line: int
    column: int
    end_line: int
    end_column: int

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.column}"

    def covers(self, other: "SourceSpan") -> bool:
        start_ok = (self.line, self.column) <= (other.line, other.column)
        end_ok = (self.end_line, self.end_column) >= (other.end_line, other.end_column)
        return start_ok and end_ok


class Token(NamedTuple):
    kind: str
    text: str
    span: SourceSpan
    # Absolute character offsets into the original source; used for
    # whitespace-exact reconstruction and clone windows.
    offset: int
    end_offset: int


# One alternation, tried in order at each position (the scanner idiom of the
# `re` documentation).  Every character matches some group, so the matches
# tile the source.  Numbers take decimal digits only (\d is str.isdecimal);
# \w is str.isalnum() or "_", as the rest of an identifier needs.  "ident"
# takes the words that start with an ASCII letter or "_"; "word" takes the
# others, which are identifiers when the first character isalpha() (no
# keyword is among them) and an illegal character otherwise.  A block
# comment may run to the end of the input, and "open_string" takes a string
# that ends at a line end, the end of the input or a bad escape.
_SCANNER = re.compile(
    "|".join(
        f"(?P<{name}>{pattern})"
        for name, pattern in (
            ("space", r"[ \t\r\n]+"),
            ("punctuation", f"[{re.escape(''.join(sorted(PUNCTUATION)))}]"),
            ("ident", r"[A-Za-z_]\w*"),
            ("number", r"\d+(?:\.\d+)?"),
            ("word", r"\w+"),
            ("line_comment", r"//[^\n]*"),
            ("block_comment", r"/\*(?s:.*?)(?:\*/|\Z)"),
            ("operator", "|".join(map(re.escape, OPERATORS))),
            ("string", r'"(?:[^"\\\n]|\\["\\])*"'),
            ("open_string", r'"(?:[^"\\\n]|\\["\\])*'),
            ("illegal", r"(?s:.)"),
        )
    )
)
_KINDS = {
    "punctuation": PUNCT,
    "operator": OPERATOR,
    "string": STRING_LITERAL,
    "line_comment": COMMENT,
}


def tokenize(source: str, file: str = "<memory>") -> list[Token]:
    """Split source into tokens, comments included, whitespace dropped."""
    tokens: list[Token] = []
    append = tokens.append
    line = 1
    line_start = 0  # offset of the first character of `line`
    for m in _SCANNER.finditer(source):
        group = m.lastgroup
        text = m.group()
        if group == "space":
            if "\n" in text:
                line += text.count("\n")
                line_start = m.start() + text.rindex("\n") + 1
            continue
        start, end = m.span()
        first_line, column = line, start - line_start + 1
        if group == "ident":
            kind = KEYWORD if text in KEYWORDS else IDENTIFIER
        elif group in _KINDS:
            kind = _KINDS[group]
        elif group == "number":
            kind = DOUBLE_LITERAL if "." in text else INT_LITERAL
        elif group == "block_comment":
            if "\n" in text:
                line += text.count("\n")
                line_start = start + text.rindex("\n") + 1
            # "/*/" ends in "*/" but is not closed
            if not text[2:].endswith("*/"):
                span = SourceSpan(file, first_line, column, line, end - line_start + 1)
                raise LexError(span, "unterminated block comment")
            kind = COMMENT
        elif group == "open_string":
            if end == len(source) or source[end] == "\n":
                span = SourceSpan(file, line, column, line, column + end - start)
                raise LexError(span, "unterminated string literal")
            span = SourceSpan(file, line, column, line, column + end + 1 - start)
            raise LexError(span, f"unsupported escape '\\{source[end + 1 : end + 2]}'")
        elif group == "word" and text[0].isalpha():
            kind = IDENTIFIER
        else:
            raise LexError(SourceSpan(file, line, column, line, column), f"illegal character {text[0]!r}")
        append(Token(kind, text, SourceSpan(file, first_line, column, line, end - line_start + 1), start, end))
    return tokens


def string_literal_value(text: str) -> str:
    """Decode a string-literal lexeme (quotes and escapes) to its value."""
    body = text[1:-1]
    out = []
    i = 0
    while i < len(body):
        if body[i] == "\\":
            out.append(body[i + 1])
            i += 2
        else:
            out.append(body[i])
            i += 1
    return "".join(out)

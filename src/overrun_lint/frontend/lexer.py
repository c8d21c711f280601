"""Tokenizer for SL source files.

Token kinds: keyword, identifier, int-literal, double-literal,
string-literal, operator, punctuation, comment.  `tokenize` returns a
TokenStream: the significant tokens as parallel columns, and the comments
kept apart so review annotations survive re-emission.  Read as a sequence,
it is the list of Tokens, comments included, in source order.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from itertools import accumulate
from operator import add
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
EOF = "end of file"  # kind of the sentinel that ends a TokenStream


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
    # whitespace-exact reconstruction.
    offset: int
    end_offset: int


class TokenStream(Sequence):
    """The tokens of one source, as `tokenize` returns them.

    The significant tokens are kept as parallel columns: kind, text, start
    offset, line, column and end column.  No significant token spans lines,
    so these rebuild every span and end offset.  An end-of-file sentinel
    (kind `EOF`, empty text) follows the last of them in every column; it
    spans the end of the last token, or 1:1 in an empty source.  Comments
    are kept apart: their texts, their places as (offset, line, column,
    end line, end column), and in `comment_at` the index of the significant
    token each one precedes (the sentinel's for trailing comments).

    As a sequence the stream is the list of tokens, comments included, in
    source order, without the sentinel: `len`, indexing, iteration (the
    Sequence mixin's, by index) and `==` against a list behave as for
    `list[Token]`.  A Token is built only when one is read this way.
    """

    __slots__ = (
        "file", "kinds", "texts", "offsets", "lines", "columns", "end_columns",
        "comments", "comment_places", "comment_at",
    )

    def __init__(self, file: str):
        self.file = file
        self.kinds: list[str] = []
        self.texts: list[str] = []
        self.offsets: list[int] = []
        self.lines: list[int] = []
        self.columns: list[int] = []
        self.end_columns: list[int] = []
        self.comments: list[str] = []
        self.comment_places: list[tuple[int, int, int, int, int]] = []
        self.comment_at: list[int] = []

    def span(self, i: int) -> SourceSpan:
        """Span of significant token i (the sentinel is i == len(texts) - 1)."""
        line = self.lines[i]
        return SourceSpan(self.file, line, self.columns[i], line, self.end_columns[i])

    def token(self, i: int) -> Token:
        """Significant token i."""
        text, offset = self.texts[i], self.offsets[i]
        return Token(self.kinds[i], text, self.span(i), offset, offset + len(text))

    def _comment(self, k: int) -> Token:
        text = self.comments[k]
        offset, line, column, end_line, end_column = self.comment_places[k]
        return Token(COMMENT, text, SourceSpan(self.file, line, column, end_line, end_column), offset, offset + len(text))

    def __len__(self) -> int:
        return len(self.texts) - 1 + len(self.comments)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        n = len(self)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("token index out of range")
        # Comment k sits at index comment_at[k] + k of the whole sequence.
        at = self.comment_at
        k = bisect_left(range(len(at)), index, key=lambda k: at[k] + k)
        if k < len(at) and at[k] + k == index:
            return self._comment(k)
        return self.token(index - k)

    def __eq__(self, other):
        if isinstance(other, (list, TokenStream)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"TokenStream({list(self)!r})"


# One alternation, tried in order after the whitespace before each token
# (the scanner idiom of the `re` documentation).  Every character matches
# some group, so the matches tile the source, and "end" takes the
# whitespace after the last token.  The whitespace run never gives a
# character back, since some group matches wherever it stops.  Numbers take
# decimal digits only (\d is str.isdecimal); \w is str.isalnum() or "_", as
# the rest of an identifier needs.  "ident" takes the words that start with
# an ASCII letter or "_"; "word" takes the others, which are identifiers
# when the first character isalpha() (no keyword is among them) and an
# illegal character otherwise.  A block comment may run to the end of the
# input, and "open_string" takes a string that ends at a line end, the end
# of the input or a bad escape.
_SCANNER = re.compile(
    r"[ \t\r\n]*(?:"
    + "|".join(
        f"(?P<{name}>{pattern})"
        for name, pattern in (
            ("punctuation", f"[{re.escape(''.join(sorted(PUNCTUATION)))}]"),
            ("ident", r"[A-Za-z_]\w*"),
            ("double", r"\d+\.\d+"),
            ("int", r"\d+"),
            ("word", r"\w+"),
            ("line_comment", r"//[^\n]*"),
            ("block_comment", r"/\*(?s:.*?)(?:\*/|\Z)"),
            ("operator", "|".join(map(re.escape, OPERATORS))),
            ("string", r'"(?:[^"\\\n]|\\["\\])*"'),
            ("open_string", r'"(?:[^"\\\n]|\\["\\])*'),
            ("illegal", r"(?s:.)"),
            ("end", r"\Z"),
        )
    )
    + ")"
)
_KINDS = {
    "punctuation": PUNCT,
    "operator": OPERATOR,
    "string": STRING_LITERAL,
    "int": INT_LITERAL,
    "double": DOUBLE_LITERAL,
}


def tokenize(source: str, file: str = "<memory>") -> TokenStream:
    """Split source into tokens, comments apart, whitespace dropped."""
    stream = TokenStream(file)
    kinds, texts, offsets = stream.kinds, stream.texts, stream.offsets
    lines, columns = stream.lines, stream.columns
    shared: dict[str, str] = {}  # repeated token texts share one str
    # Line k begins at offset line_starts[k - 1]; the last entry lies past
    # the end.  A token is placed on the line it begins with one bisect
    # when it begins a later line than the token before.
    line_starts = list(accumulate(map((1).__add__, map(len, source.split("\n"))), initial=0))

    def place(offset: int) -> tuple[int, int]:
        line = bisect_right(line_starts, offset)
        return line, offset - line_starts[line - 1] + 1

    line, line_start, next_start = 1, 0, line_starts[1]
    for m in _SCANNER.finditer(source):
        group = m.lastgroup
        text = m[group]
        if group == "ident":
            kinds.append(KEYWORD if text in KEYWORDS else IDENTIFIER)
        elif group in _KINDS:
            kinds.append(_KINDS[group])
        elif group == "line_comment" or group == "block_comment":
            start = m.start(group)
            first_line, column = place(start)
            end_line, end_column = place(start + len(text))
            # "/*/" ends in "*/" but is not closed
            if group == "block_comment" and not text[2:].endswith("*/"):
                raise LexError(SourceSpan(file, first_line, column, end_line, end_column), "unterminated block comment")
            stream.comments.append(text)
            stream.comment_places.append((start, first_line, column, end_line, end_column))
            stream.comment_at.append(len(texts))
            continue
        elif group == "word" and text[0].isalpha():
            kinds.append(IDENTIFIER)
        elif group == "end":
            break
        else:
            start = m.start(group)
            first_line, column = place(start)
            if group == "open_string":
                end = start + len(text)
                if end == len(source) or source[end] == "\n":
                    span = SourceSpan(file, first_line, column, first_line, column + end - start)
                    raise LexError(span, "unterminated string literal")
                span = SourceSpan(file, first_line, column, first_line, column + end + 1 - start)
                raise LexError(span, f"unsupported escape '\\{source[end + 1 : end + 2]}'")
            raise LexError(SourceSpan(file, first_line, column, first_line, column), f"illegal character {text[0]!r}")
        start = m.start(group)
        if start >= next_start:
            line = bisect_right(line_starts, start, line)
            line_start, next_start = line_starts[line - 1], line_starts[line]
        texts.append(shared.setdefault(text, text))
        offsets.append(start)
        lines.append(line)
        columns.append(start - line_start + 1)
    # No significant token spans lines.
    end_columns = stream.end_columns = list(map(add, columns, map(len, texts)))
    line, column = (lines[-1], end_columns[-1]) if texts else (1, 1)
    kinds.append(EOF)
    texts.append("")
    offsets.append(len(source))
    lines.append(line)
    columns.append(column)
    end_columns.append(column)
    return stream


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

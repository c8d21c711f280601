"""Token-based copy-paste detection.

The tokens are the columns of the TokenStream the parser left on each unit
(`unit.tokens`), so no file is lexed again.  Their kinds and texts are
normalized (identifiers -> ID, numeric literals -> NUM, string literals ->
STR; comments are not in the columns) so renamed copies still match;
keywords, operators and punctuation stay verbatim.  Spans are rebuilt from
the columns for the reported windows only.  Reported pairs are maximal: they
cannot be extended in either direction and are not contained in a longer
reported pair.

Each normalized token becomes one character, from a code table built per
call, so a file is a string and a window of min_tokens tokens inside one
file (a gram) is a slice of it, keyed by the string's hash as CPD keys its
windows (Karp and Rabin, 1987).  Each gram is grouped with the grams equal
to it, so no window spans two files.
A pair of equal grams at positions a < b is taken only when it is
left-maximal: a or b starts its file, or the tokens before a and b differ.
Otherwise (a - 1, b - 1) is a pair of the same group that yields the same
run, so no run is ever extended to the left; a group whose windows all
follow one token, none at a file start, is dropped without a look at its
pairs.  A run is extended to the right while the tokens match, both copies
stay in their files and the copies do not overlap.  Every run found is
reported: two runs on one diagonal (equal b - a) cover disjoint tokens,
because a left-maximal start cannot lie inside another run, where every
token matches its partner.  The cost is one gram per token, at most one
check per pair of equal grams and one step per reported token.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import compress

from ..records import record
from ..errors import DomainError
from ..frontend import ast
from ..frontend.lexer import DOUBLE_LITERAL, IDENTIFIER, INT_LITERAL, STRING_LITERAL, SourceSpan, TokenStream

MIN_TOKENS_FLOOR = 10

# Normalized form by token kind; the other kinds keep their text.
_NORMAL = {IDENTIFIER: "ID", INT_LITERAL: "NUM", DOUBLE_LITERAL: "NUM", STRING_LITERAL: "STR"}


@record(frozen=True)
class ClonePair:
    span_a: SourceSpan
    span_b: SourceSpan
    token_length: int


def find_duplicates(units: list[ast.CompilationUnit], min_tokens: int) -> list[ClonePair]:
    """All maximal clone pairs of at least min_tokens normalized tokens."""
    if min_tokens < MIN_TOKENS_FLOOR:
        raise DomainError(f"min_tokens must be >= {MIN_TOKENS_FLOOR}, got {min_tokens}")
    # All files' significant tokens in one string, one character per
    # normalized token, read from the streams the parser left on the units:
    # file k's begin at starts[k], and file_end[i] is where token i's file
    # ends.  A gram is a slice of one file's string.
    codes: dict[str, str] = {}  # normalized token -> its character
    pieces: list[str] = []
    files: list[tuple[str, TokenStream]] = []
    starts: list[int] = []
    file_end: list[int] = []
    grams: dict[str, list[int]] = {}
    for unit in units:
        stream = unit.tokens
        count = len(stream.texts) - 1  # without the end-of-file sentinel
        file_norms = list(map(_NORMAL.get, stream.kinds[:count], stream.texts[:count]))
        for norm in set(file_norms).difference(codes):
            codes[norm] = chr(len(codes))
        chars = "".join(map(codes.__getitem__, file_norms))
        start = len(file_end)
        files.append((unit.file, stream))
        starts.append(start)
        pieces.append(chars)
        file_end += [start + count] * count
        for k in range(count - min_tokens + 1):
            gram = chars[k : k + min_tokens]
            group = grams.get(gram)
            if group is None:
                grams[gram] = [start + k]
            else:
                group.append(start + k)
    norms = "".join(pieces)

    triples = []
    groups = grams.values()  # only a gram met twice or more yields pairs
    for positions in compress(groups, map((1).__lt__, map(len, groups))):
        # The token before each window, "" at a file start.
        leads = [norms[p - 1] if p and file_end[p - 1] != p else "" for p in positions]
        if leads[0] and leads.count(leads[0]) == len(leads):
            continue  # every window follows the same token: no pair is left-maximal
        for ai in range(len(positions) - 1):
            a, lead = positions[ai], leads[ai]
            a_end = file_end[a]
            for b, b_lead in zip(positions[ai + 1 :], leads[ai + 1 :]):
                if lead and lead == b_lead:
                    continue  # (a - 1, b - 1) yields the same run
                limit = min(b - a, a_end - a, file_end[b] - b)
                length = min_tokens
                while length < limit and norms[a + length] == norms[b + length]:
                    length += 1
                if b - a >= length:
                    triples.append((a, b, length))
    # Longest first: the stable sort below keeps this order among its ties.
    triples.sort(key=lambda p: (-p[2], p[0], p[1]))

    result = [
        ClonePair(_window_span(files, starts, a, length), _window_span(files, starts, b, length), length)
        for a, b, length in triples
    ]
    result.sort(key=lambda p: (p.span_a.file, p.span_a.line, p.span_a.column, p.span_b.file, p.span_b.line))
    return result


def _window_span(files: list[tuple[str, TokenStream]], starts: list[int], start: int, length: int) -> SourceSpan:
    """Span of tokens start .. start + length - 1, which lie in one file."""
    k = bisect_right(starts, start) - 1
    (file, stream), first = files[k], start - starts[k]
    last = first + length - 1
    return SourceSpan(file, stream.lines[first], stream.columns[first], stream.lines[last], stream.end_columns[last])

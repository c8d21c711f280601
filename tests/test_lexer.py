import hashlib
import random

import pytest

from overrun_lint.errors import LexError
from overrun_lint.frontend import tokenize
from overrun_lint.frontend.lexer import COMMENT, KEYWORDS, OPERATORS, PUNCTUATION

from progen import seeded_unit


def kinds_and_texts(source):
    return [(t.kind, t.text) for t in tokenize(source)]


def test_elementary_lexing():
    assert kinds_and_texts("int i = 0;") == [
        ("keyword", "int"),
        ("identifier", "i"),
        ("operator", "="),
        ("int-literal", "0"),
        ("punctuation", ";"),
    ]


def test_empty_input():
    assert tokenize("") == []


def test_yang_token_count_matches_hand_count(corpus_sources, manifest):
    tokens = tokenize(corpus_sources["yang.sl"], "yang.sl")
    assert len(tokens) == manifest["yang.sl"]["tokens_hand_counted"]


def test_comments_are_retained():
    tokens = tokenize("// hello\nint i; /* block */ i = 1;")
    comments = [t for t in tokens if t.kind == COMMENT]
    assert [c.text for c in comments] == ["// hello", "/* block */"]


def test_string_escapes():
    (tok,) = tokenize(r'"a\\b\"c"')
    assert tok.kind == "string-literal"
    assert tok.text == r'"a\\b\"c"'


def test_double_and_int_literals():
    kinds = [t.kind for t in tokenize("1 2.5 10. 0.125")]
    assert kinds == ["int-literal", "double-literal", "int-literal", "punctuation", "double-literal"]


# source -> ((line, column, end_line, end_column), message) of its LexError
LEX_ERRORS = {
    '"unterminated': ((1, 1, 1, 14), "unterminated string literal"),
    "/* never closed": ((1, 1, 1, 16), "unterminated block comment"),
    '"bad \\n escape"': ((1, 1, 1, 7), "unsupported escape '\\n'"),
    "int $ = 1;": ((1, 5, 1, 5), "illegal character '$'"),
    '"a\\q"': ((1, 1, 1, 4), "unsupported escape '\\q'"),
    "int a;\r\nint b;\r\n  x = $;\r\n": ((3, 7, 3, 7), "illegal character '$'"),
    "int a;\n/* one\n two\n three": ((2, 1, 4, 7), "unterminated block comment"),
    '"a\\': ((1, 1, 1, 4), "unsupported escape '\\'"),
    '"a\\\nb"': ((1, 1, 1, 4), "unsupported escape '\\\n'"),
    '"abc\\"': ((1, 1, 1, 7), "unterminated string literal"),
    "a /*/": ((1, 3, 1, 6), "unterminated block comment"),
    "x = 1 & 2;": ((1, 7, 1, 7), "illegal character '&'"),
    "x\f": ((1, 2, 1, 2), "illegal character '\\x0c'"),
    "1.5.3 $": ((1, 7, 1, 7), "illegal character '$'"),
    # Numbers take decimal digits only, so no int() call sees "1\u00b2".
    "return 1\u00b2;": ((1, 9, 1, 9), "illegal character '\u00b2'"),
    "x = 1.\u00b2;": ((1, 7, 1, 7), "illegal character '\u00b2'"),
    "\u00bd": ((1, 1, 1, 1), "illegal character '\u00bd'"),
}


@pytest.mark.parametrize("bad", list(LEX_ERRORS))
def test_lex_errors(bad):
    with pytest.raises(LexError) as info:
        tokenize(bad, "e.sl")
    span = info.value.span
    where, message = LEX_ERRORS[bad]
    assert (span.file, span.line, span.column, span.end_line, span.end_column) == ("e.sl", *where)
    assert info.value.message == message


def test_non_ascii_words_and_digits():
    # Identifiers start with str.isalpha() or "_" and go on with
    # str.isalnum() or "_"; numbers take str.isdecimal() digits.
    assert kinds_and_texts("\u00e9 = a\u00b2 + \u0663;") == [
        ("identifier", "\u00e9"),
        ("operator", "="),
        ("identifier", "a\u00b2"),
        ("operator", "+"),
        ("int-literal", "\u0663"),
        ("punctuation", ";"),
    ]


def _token_digest(source: str, name: str) -> str:
    h = hashlib.sha256()
    for t in tokenize(source, name):
        s = t.span
        fields = (t.kind, t.text, s.file, s.line, s.column, s.end_line, s.end_column, t.offset, t.end_offset)
        h.update(repr(fields).encode())
    return h.hexdigest()


TOKEN_DIGESTS = {
    "assert_demo.sl": "add76598668a2433ce83992a43f27fca34b1f22119df826fb1a16b09fd86ef32",
    "building_lift.sl": "d3f23656a3a8dfb3691a6fa9a4dcaf74b31fb4fc7520c4712f79d1a5184535c2",
    "checkers_state.sl": "aad188460e5616e9b36a082a6ba8c21c3e978dc7315c39b17c322e9859614ca6",
    "deadlock_demo.sl": "662be21bcfeb59ee613a21bee88f0fe13a62e3dc8515f6557dccebb2200c29bc",
    "equals_demo.sl": "3625646b06bcaee02a3752ea68b4e591a7790d96ddc1347c89011b7459471ad3",
    "file_check.sl": "b70205221f807fb1afaadefd4089a78006f217f392e4b2d2401e4204f7c57d7b",
    "makeover.sl": "23d5c84f7ae333a298f0068ef7318e4331c057cca7f17069b16e4c28ab198e56",
    "readline_loop.sl": "7d1812e1c66cc19bdf74a44b96c4c24783a9a3a481846bc8b7a539c5f1f636b5",
    "robustness.sl": "64d379ac8d259cdfac1b066a763339ada98847d54d486c460ba44feb479aeebe",
    "testing.sl": "028ee601c8360bd26627db30faeacbb09423b57a71de65c655a04c4503b7690d",
    "wait_demo.sl": "fd282c759e46c674e28abca608896f55e181e5825c91bd919ad37c94bfd13d37",
    "yang.sl": "fe96a9f4f65c324c041ce7f17ca88119d36e3a1ce2a1d2be6649915a058dde52",
    "seeded1.sl": "b23be24cba7c0964a0094ed83f49167f4a95123b239937553624811236c41e74",
    "seeded2.sl": "c0bee4a37fca287827128ad2feb1afa9ded26f94f97f9b89766fa1136929c424",
    "seeded3.sl": "950a146a7d226c5cb81229c5c871195cd46219c22e325e7b2a58d1730cf13a33",
    "seeded4.sl": "0b70f2f1fae21cf5b91f767cb9f8e452e2408848daa7e3291298dc6cf781421b",
    "seeded5.sl": "e84d9c569c3e3265f70f122f8f5a5da8816e0ef6ae94fb9d0e09f155159f4d81",
}


def test_token_streams_are_pinned(corpus_sources):
    """Kinds, texts, spans and offsets of every token, by digest."""
    units = dict(corpus_sources)
    for seed in range(1, 6):
        units[f"seeded{seed}.sl"] = seeded_unit(seed)
    assert {name: _token_digest(src, name) for name, src in units.items()} == TOKEN_DIGESTS


_WORD_CHARS = "abcxyzXYZ_09\u00e9\u00b2"


def _random_lexeme(rng: random.Random) -> tuple[str, str]:
    kind = rng.choice(["keyword", "identifier", "int", "double", "string", "operator", "punctuation", "comment"])
    if kind == "keyword":
        return "keyword", rng.choice(sorted(KEYWORDS))
    if kind == "identifier":
        while True:
            text = rng.choice("abxyZ_\u00e9") + "".join(rng.choice(_WORD_CHARS) for _ in range(rng.randrange(6)))
            if text not in KEYWORDS:
                return "identifier", text
    digits = "0123456789\u0663"
    if kind == "int":
        return "int-literal", "".join(rng.choice(digits) for _ in range(rng.randint(1, 4)))
    if kind == "double":
        whole, frac = ("".join(rng.choice(digits) for _ in range(rng.randint(1, 3))) for _ in range(2))
        return "double-literal", f"{whole}.{frac}"
    if kind == "string":
        parts = [rng.choice(["a", " ", "/", "*", "'", "\\\\", '\\"', "\u00e9", "\t"]) for _ in range(rng.randrange(6))]
        return "string-literal", '"' + "".join(parts) + '"'
    if kind == "operator":
        return "operator", rng.choice(OPERATORS)
    if kind == "punctuation":
        return "punctuation", rng.choice(sorted(PUNCTUATION))
    body = "".join(rng.choice(["a", " ", "*", "/", "\t", '"']) for _ in range(rng.randrange(8)))
    if rng.random() < 0.5:
        return "comment", "//" + body
    while "*/" in body:
        body = body.replace("*/", "")
    return "comment", "/*" + rng.choice(["\n", "\r\n"]).join([body] * rng.randint(1, 3)) + "*/"


@pytest.mark.parametrize("seed", range(40))
def test_random_lexemes_round_trip(seed):
    rng = random.Random(seed)
    lexemes = [_random_lexeme(rng) for _ in range(60)]
    pieces = []
    for kind, text in lexemes:
        pieces.append(text)
        gap = "".join(rng.choice([" ", "\t", "\n", "\r\n", "  "]) for _ in range(rng.randint(1, 3)))
        # a line comment runs to the next line feed
        pieces.append("\n" + gap if text.startswith("//") else gap)
    source = rng.choice(["", " ", "\r\n"]) + "".join(pieces)
    tokens = tokenize(source, "r.sl")
    assert [(t.kind, t.text) for t in tokens] == lexemes
    for t in tokens:
        assert source[t.offset : t.end_offset] == t.text
        for line, column, offset in ((t.span.line, t.span.column, t.offset), (t.span.end_line, t.span.end_column, t.end_offset)):
            assert line == source.count("\n", 0, offset) + 1
            assert column == offset - source.rfind("\n", 0, offset)


def test_spans_monotonic_and_lexemes_reconstruct(corpus_sources):
    for name, source in corpus_sources.items():
        tokens = tokenize(source, name)
        # spans are monotonically non-decreasing
        positions = [(t.span.line, t.span.column) for t in tokens]
        assert positions == sorted(positions)
        # lexemes plus the inter-token gaps rebuild the source exactly
        rebuilt = []
        cursor = 0
        for t in tokens:
            rebuilt.append(source[cursor : t.offset])
            rebuilt.append(t.text)
            assert source[t.offset : t.end_offset] == t.text
            cursor = t.end_offset
        rebuilt.append(source[cursor:])
        assert "".join(rebuilt) == source
        # token coverage: lexeme lengths + whitespace == source length
        gap_total = len(source) - sum(len(t.text) for t in tokens)
        assert gap_total >= 0


def test_span_end_not_before_start(corpus_sources):
    for name, source in corpus_sources.items():
        for t in tokenize(source, name):
            assert (t.span.end_line, t.span.end_column) >= (t.span.line, t.span.column)


def _naive_place(source: str, offset: int) -> tuple[int, int]:
    """Line and column of offset, by recounting from the start."""
    return source.count("\n", 0, offset) + 1, offset - source.rfind("\n", 0, offset)


def _mutant(rng: random.Random, source: str) -> str:
    chars = list(source)
    for _ in range(rng.randint(1, 8)):
        at = rng.randrange(len(chars) + 1)
        chars[at:at] = rng.choice(["\r", "\t", "\n", "\r\n", "\u00e9", "\u65e5x", "\u00df", " ", '"', "/*", "*/", "//"])
    return "".join(chars)


def test_token_places_agree_with_a_naive_recount(corpus_sources):
    rng = random.Random(20)
    bases = list(corpus_sources.values()) + [seeded_unit(seed) for seed in range(5)]
    sources = bases + [_mutant(rng, rng.choice(bases)) for _ in range(300)]
    lexed = 0
    for source in sources:
        try:
            stream = tokenize(source)
        except LexError:
            continue
        lexed += 1
        for token in stream:
            line, column = _naive_place(source, token.offset)
            end_line, end_column = _naive_place(source, token.end_offset)
            assert (token.span.line, token.span.column) == (line, column), token
            assert (token.span.end_line, token.span.end_column) == (end_line, end_column), token
        eof = stream.span(len(stream.texts) - 1)
        assert (eof.line, eof.column) == (_naive_place(source, stream.token(-2).end_offset) if stream.texts[:-1] else (1, 1))
    assert lexed >= 150

"""The frontend's data layout: the TokenStream that `tokenize` returns, the
stream the parser leaves on the unit, slotted AST nodes, and `cpd` reading
that stream instead of lexing again."""

import pytest

from overrun_lint.detectors import find_duplicates
from overrun_lint.frontend import ast, lexer, parse, parse_source, tokenize
from overrun_lint.frontend.lexer import EOF, SourceSpan, Token, TokenStream

from test_clones import DUPLICATED_BODY


def tok(kind, text, offset, line, column, end_line, end_column):
    span = SourceSpan("s.sl", line, column, end_line, end_column)
    return Token(kind, text, span, offset, offset + len(text))


# source -> every token, comments included, as a list[Token] holds them
STREAMS = {
    "": [],
    "// only\n/* two */": [
        tok("comment", "// only", 0, 1, 1, 1, 8),
        tok("comment", "/* two */", 8, 2, 1, 2, 10),
    ],
    "/* lead */ int x; // trail": [
        tok("comment", "/* lead */", 0, 1, 1, 1, 11),
        tok("keyword", "int", 11, 1, 12, 1, 15),
        tok("identifier", "x", 15, 1, 16, 1, 17),
        tok("punctuation", ";", 16, 1, 17, 1, 18),
        tok("comment", "// trail", 18, 1, 19, 1, 27),
    ],
    "a /* multi\r\n line */ b": [
        tok("identifier", "a", 0, 1, 1, 1, 2),
        tok("comment", "/* multi\r\n line */", 2, 1, 3, 2, 9),
        tok("identifier", "b", 21, 2, 10, 2, 11),
    ],
    "// first\nx // mid\n\n  1.5 /**/ /*x*/ \"s\"\n// last": [
        tok("comment", "// first", 0, 1, 1, 1, 9),
        tok("identifier", "x", 9, 2, 1, 2, 2),
        tok("comment", "// mid", 11, 2, 3, 2, 9),
        tok("double-literal", "1.5", 21, 4, 3, 4, 6),
        tok("comment", "/**/", 25, 4, 7, 4, 11),
        tok("comment", "/*x*/", 30, 4, 12, 4, 17),
        tok("string-literal", '"s"', 36, 4, 18, 4, 21),
        tok("comment", "// last", 40, 5, 1, 5, 8),
    ],
}


@pytest.mark.parametrize("source", list(STREAMS))
def test_stream_behaves_like_the_token_list(source):
    expected = STREAMS[source]
    stream = tokenize(source, "s.sl")
    assert isinstance(stream, TokenStream)
    assert len(stream) == len(expected)
    assert list(stream) == expected
    assert [stream[i] for i in range(len(stream))] == expected
    assert [stream[-i] for i in range(1, len(stream) + 1)] == [expected[-i] for i in range(1, len(expected) + 1)]
    assert stream[1:-1] == expected[1:-1] and stream[::2] == expected[::2]
    assert stream == expected and expected == stream and stream == tokenize(source, "s.sl")
    assert stream != expected + [expected[0] if expected else tok("keyword", "int", 0, 1, 1, 1, 4)]
    assert stream != tuple(expected)
    for index in (len(expected), -len(expected) - 1):
        with pytest.raises(IndexError):
            stream[index]


@pytest.mark.parametrize("source", list(STREAMS))
def test_columns_and_the_end_of_file_sentinel(source):
    stream = tokenize(source, "s.sl")
    significant = [t for t in STREAMS[source] if t.kind != "comment"]
    comments = [t for t in STREAMS[source] if t.kind == "comment"]
    assert [stream.token(i) for i in range(len(stream.texts) - 1)] == significant
    assert stream.comments == [t.text for t in comments]
    # The sentinel ends every column and spans the end of the last token.
    assert stream.kinds[-1] == EOF and stream.texts[-1] == ""
    last = significant[-1].span if significant else SourceSpan("s.sl", 1, 1, 1, 1)
    assert stream.span(len(stream.texts) - 1) == SourceSpan("s.sl", last.end_line, last.end_column, last.end_line, last.end_column)
    # comment_at[k] is the index of the significant token comment k precedes.
    order = [t.kind == "comment" for t in STREAMS[source]]
    assert stream.comment_at == [order[:i].count(False) for i, is_comment in enumerate(order) if is_comment]


def test_sentinel_never_seen_through_the_sequence(corpus_sources):
    for name, source in corpus_sources.items():
        stream = tokenize(source, name)
        assert len(stream) == len(stream.texts) - 1 + len(stream.comments)
        assert all(t.kind != EOF for t in stream)
        assert stream[-1].kind != EOF
        with pytest.raises(IndexError):
            stream[len(stream)]


def test_node_classes_are_slotted():
    classes = [c for c in vars(ast).values() if isinstance(c, type) and issubclass(c, ast.Node)]
    assert len(classes) == 32
    assert [c.__name__ for c in classes if "__slots__" not in vars(c)] == ["CompilationUnit"]


def test_parsed_nodes_have_no_dict_and_unit_keeps_its_stream(corpus_sources):
    for name, source in corpus_sources.items():
        stream = tokenize(source, name)
        unit = parse(stream, name, source)
        assert unit.tokens is stream
        assert [n for n in ast.walk(unit) if hasattr(n, "__dict__")] == [unit]
        with pytest.raises(AttributeError):
            unit.classes[0].note = 1


def test_cpd_reads_the_parsers_streams_without_lexing(monkeypatch):
    a = parse_source("class A { void m() {" + DUPLICATED_BODY + "} }", "a.sl")
    b = parse_source("class B { void n() {" + DUPLICATED_BODY + "} }", "b.sl")
    expected = find_duplicates([a, b], min_tokens=20)
    assert expected

    calls = []

    class CountingScanner:
        def finditer(self, source):
            calls.append(source)
            return real.finditer(source)

    real = lexer._SCANNER
    monkeypatch.setattr(lexer, "_SCANNER", CountingScanner())
    assert find_duplicates([a, b], min_tokens=20) == expected
    assert calls == []
    # A unit built without the parser lexes its source, once, on first use.
    c = ast.CompilationUnit(span=a.span, source=a.source, file="c.sl")
    assert find_duplicates([c], min_tokens=10) == find_duplicates([c], min_tokens=10) == []
    assert calls == [a.source]

import random

import pytest

from overrun_lint.detectors import find_duplicates
from overrun_lint.detectors.clones import ClonePair
from overrun_lint.errors import DomainError
from overrun_lint.frontend import ast, parse_source, tokenize
from overrun_lint.frontend.lexer import COMMENT, SourceSpan

from oracle import normalize_token


DUPLICATED_BODY = """\
        int total = 0;
        for (int i = 0; i < 10; i++) {
            total = total + i * 2;
            println(total);
        }
        println("sum " + total);
"""


def unit_with_two_copies():
    source = (
        "class A {\n"
        "    void first() {\n" + DUPLICATED_BODY + "    }\n\n"
        "    void second() {\n" + DUPLICATED_BODY.replace("total", "acc") + "    }\n"
        "}\n"
    )
    return parse_source(source, "dup.sl")


def test_copied_body_reported_once():
    unit = unit_with_two_copies()
    pairs = find_duplicates([unit], min_tokens=20)
    assert len(pairs) == 1
    (pair,) = pairs
    assert pair.token_length >= 20
    assert pair.span_a.line < pair.span_b.line


def test_renamed_identifiers_still_match():
    # second() renames every variable; normalization maps both to ID
    unit = unit_with_two_copies()
    pairs = find_duplicates([unit], min_tokens=25)
    assert pairs, "type-2 clone should be found"


def test_all_distinct_unit_empty():
    unit = parse_source(
        "class A { void a() { println(1); } void b(int x) { x = x + 2; } }", "d.sl"
    )
    assert find_duplicates([unit], min_tokens=10) == []


def test_boundary_below_min_tokens_not_reported():
    # a window of exactly min_tokens - 1 identical tokens is not reported
    stmt = "x = x + 1; x = x * 2; println(x);"
    source = (
        "class A {\n"
        f"    void a(int x) {{ println(\"alpha\"); {stmt} }}\n"
        f"    void b(int y) {{ y = y - 7; {stmt.replace('x', 'y')} }}\n"
        "}\n"
    )
    unit = parse_source(source, "b.sl")
    pairs = find_duplicates([unit], min_tokens=10)
    (pair,) = pairs
    longest = pair.token_length
    assert find_duplicates([unit], min_tokens=longest) != []
    assert find_duplicates([unit], min_tokens=longest + 1) == []


def test_windows_identical_after_normalization():
    unit = unit_with_two_copies()
    pairs = find_duplicates([unit], min_tokens=20)
    tokens = [t for t in tokenize(unit.source, unit.file) if t.kind != COMMENT]
    for pair in pairs:
        def window(span):
            return [
                normalize_token(t)
                for t in tokens
                if (t.span.line, t.span.column) >= (span.line, span.column)
                and (t.span.end_line, t.span.end_column) <= (span.end_line, span.end_column)
            ]

        assert window(pair.span_a) == window(pair.span_b)


def test_cross_file_clones():
    a = parse_source("class A { void m() {" + DUPLICATED_BODY + "} }", "a.sl")
    b = parse_source("class B { void n() {" + DUPLICATED_BODY + "} }", "b.sl")
    pairs = find_duplicates([a, b], min_tokens=20)
    assert any(p.span_a.file != p.span_b.file for p in pairs)


def test_min_tokens_floor_enforced():
    unit = parse_source("class A { }", "a.sl")
    with pytest.raises(DomainError):
        find_duplicates([unit], min_tokens=9)


def test_comments_ignored():
    a = "class A { void m() {" + DUPLICATED_BODY + "} }"
    b = a.replace("int total = 0;", "int total = 0; // note")
    pairs = find_duplicates([parse_source(a, "a.sl"), parse_source(b, "b.sl")], min_tokens=20)
    assert pairs


def _oracle(units, min_tokens):
    """Brute-force reference for find_duplicates: every pair of positions is
    extended left and right as far as its files allow, runs are capped so the
    two copies do not overlap, and runs contained in a longer one on the same
    diagonal are dropped."""
    tokens, files = [], []
    for file_index, unit in enumerate(units):
        for t in tokenize(unit.source, unit.file):
            if t.kind != COMMENT:
                tokens.append(t)
                files.append(file_index)
    norms = [normalize_token(t) for t in tokens]
    n = len(tokens)

    triples = set()
    for a0 in range(n):
        for b0 in range(a0 + 1, n):
            if norms[a0] != norms[b0]:
                continue  # its left extension, if any, is another pair's
            a, b = a0, b0
            while a > 0 and files[a - 1] == files[a] and files[b - 1] == files[b] and norms[a - 1] == norms[b - 1]:
                a, b = a - 1, b - 1
            length = 0
            while (
                b + length < n
                and files[a + length] == files[a]
                and files[b + length] == files[b]
                and norms[a + length] == norms[b + length]
            ):
                length += 1
            length = min(length, b - a)
            if length >= min_tokens:
                triples.add((a, b, length))
    kept = []
    for a, b, length in sorted(triples, key=lambda p: (-p[2], p[0], p[1])):
        if not any(oa <= a and b - a == ob - oa and a + length <= oa + olen for oa, ob, olen in kept):
            kept.append((a, b, length))

    def span(start, length):
        first, last = tokens[start].span, tokens[start + length - 1].span
        return SourceSpan(first.file, first.line, first.column, last.end_line, last.end_column)

    pairs = [ClonePair(span(a, length), span(b, length), length) for a, b, length in kept]
    pairs.sort(key=lambda p: (p.span_a.file, p.span_a.line, p.span_a.column, p.span_b.file, p.span_b.line))
    return pairs


_SOUP = ["x", "y", "1", "2.5", '"s"', "+", "=", ";", "(", ")", "{", "}", "if", "int", "while", "[", "]"]


def _soup_source(rng, chunks):
    out = []
    for w in (w for chunk in chunks for w in chunk):
        out.append(w)
        out.append(rng.choice([" ", " ", "\n", "  ", " /* c */ ", " // c\n"]))
    return "".join(out)


def _soups(seed):
    """1-3 files of random tokens holding 2-3 copies each of 1-3 planted
    segments, identifiers and numbers renamed in some copies."""
    rng = random.Random(seed)
    min_tokens = rng.randint(10, 30)
    pool = [[rng.choice(_SOUP[: rng.randint(3, len(_SOUP))]) for _ in range(rng.randint(min_tokens - 2, 50))] for _ in range(2)]
    # A segment repeated back to back exercises the self-overlap cap.
    pool.append(pool[0][: rng.randint(3, 12)] * rng.randint(2, 8))
    files = [[[rng.choice(_SOUP) for _ in range(rng.randint(0, 30))]] for _ in range(rng.randint(1, 3))]
    for _ in range(rng.randint(1, 3)):
        segment = rng.choice(pool)
        for _ in range(rng.randint(2, 3)):
            copy = [{"x": rng.choice("ab"), "y": rng.choice("ab"), "1": "7"}.get(w, w) for w in segment]
            chunks = rng.choice(files)
            chunks.insert(rng.randint(0, len(chunks)), copy)
            chunks.insert(rng.randint(0, len(chunks)), [rng.choice(_SOUP) for _ in range(rng.randint(0, 5))])
    units = [
        ast.CompilationUnit(span=SourceSpan(f"s{k}.sl", 1, 1, 1, 1), source=_soup_source(rng, chunks), file=f"s{k}.sl")
        for k, chunks in enumerate(files)
    ]
    return units, min_tokens


@pytest.mark.parametrize("seed", range(200))
def test_find_duplicates_matches_brute_force(seed):
    units, min_tokens = _soups(seed)
    assert find_duplicates(units, min_tokens) == _oracle(units, min_tokens)

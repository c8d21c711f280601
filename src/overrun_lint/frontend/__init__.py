from .lexer import SourceSpan, Token, TokenStream, tokenize
from .parser import parse, parse_source
from .printer import pretty_print


def instrument_asserts(unit):
    """unit itself: cfg.py and the interpreter take an assert where it
    stands.  Kept for perfbench/jobs.py, its one caller."""
    return unit


__all__ = [
    "SourceSpan",
    "Token",
    "TokenStream",
    "tokenize",
    "parse",
    "parse_source",
    "pretty_print",
    "instrument_asserts",
]

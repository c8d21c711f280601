from .lexer import SourceSpan, Token, TokenStream, tokenize
from .parser import parse, parse_source
from .printer import pretty_print
from .instrument import instrument_asserts

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

from ..lazy import lazy_exports

__getattr__ = lazy_exports(__name__, {
    ".lexer": ("SourceSpan", "Token", "TokenStream", "tokenize"),
    ".parser": ("parse", "parse_source"),
    ".printer": ("pretty_print",),
})


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

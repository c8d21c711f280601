from ..lazy import lazy_exports

# instrument_asserts returns its unit: cfg.py and the interpreter take an
# assert where it stands.  Kept for perfbench/jobs.py, its one caller.
__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".lexer": ("SourceSpan", "Token", "TokenStream", "tokenize"),
    ".parser": ("parse", "parse_source"),
    ".printer": ("pretty_print",),
}, instrument_asserts=lambda unit: unit)

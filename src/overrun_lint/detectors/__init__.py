from ..lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".model": (
        "Classification",
        "Finding",
        "Rule",
        "RuleSet",
        "classify",
        "load_ruleset",
        "priority_color",
        "rank_band",
    ),
    ".rules": ("RULES", "RuleContext", "rule_by_id", "run_rules"),
    ".clones": ("ClonePair", "find_duplicates"),
})

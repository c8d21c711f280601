from ..lazy import lazy_exports

__getattr__ = lazy_exports(__name__, {
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

__all__ = [
    "Classification",
    "Finding",
    "Rule",
    "RuleSet",
    "classify",
    "load_ruleset",
    "priority_color",
    "rank_band",
    "RULES",
    "RuleContext",
    "rule_by_id",
    "run_rules",
    "ClonePair",
    "find_duplicates",
]

"""Static analysis for the repro tree: determinism & layering rules.

The byte-identity contract (identical trial records across backends under
``strip_timing``) is enforced dynamically by the differential and golden
tests; this package enforces it *statically*, at diff time — a
stray ``time.time()``, an unsorted ``glob`` or a global-``random`` draw is
flagged before it can rot a golden digest.  See ``docs/architecture.md``
("Static analysis") for the rule catalog and suppression policy, or run
``repro lint --rules``.
"""

from .config import DEFAULT_CONFIG, LintConfig
from .engine import Finding, LintResult, lint_file, lint_source, run_lint
from .layers import LAYERS, layer_of
from .report import render_json, render_rules, render_text, to_json_dict
from .rules import Rule, all_rules, get_rule, is_known_rule

__all__ = [
    "DEFAULT_CONFIG",
    "LintConfig",
    "Finding",
    "LintResult",
    "lint_file",
    "lint_source",
    "run_lint",
    "LAYERS",
    "layer_of",
    "Rule",
    "all_rules",
    "get_rule",
    "is_known_rule",
    "render_json",
    "render_rules",
    "render_text",
    "to_json_dict",
]

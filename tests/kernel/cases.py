"""Shared per-kind experiment cases for the kernel differential/golden suites.

One small-but-nontrivial parameter set per experiment kind that owns a ring.
The differential tests run each case on the runtime kernel and on the
brute-force oracle (``oracle.use_oracle``) and demand byte-identical results;
the golden tests pin the same cases to committed sha256 digests so a
semantics drift fails even when kernel and oracle drift together.

Keep these parameters stable: changing them invalidates the golden digests
(regenerate with ``python tests/kernel/regenerate.py`` and commit the diff).
"""

from __future__ import annotations

import copy
from typing import Dict

from repro.campaign import canonical_json, get_experiment, strip_timing

#: kind -> small deterministic params (seconds-scale on kernel and oracle).
#: ``timing`` is deliberately absent: it has no ring.
CASES: Dict[str, dict] = {
    "security": {"n_nodes": 60, "duration": 15.0, "sample_interval": 5.0, "seed": 3},
    "efficiency": {"n_nodes": 40, "lookups_per_scheme": 4, "seed": 3},
    "anonymity": {
        "n_nodes": 150,
        "fractions_malicious": [0.2],
        "dummy_counts": [2],
        "concurrent_lookup_rates": [0.01],
        "n_worlds": 10,
        "seed": 3,
    },
    "ablation": {"n_nodes": 120, "n_worlds": 8, "seed": 3},
    "scenario": {
        "preset": "heavy-tail-churn",
        "seed": 3,
        "base": {"n_nodes": 60, "duration": 15.0, "sample_interval": 5.0},
    },
    "adaptive": {
        "attacker": "re-eclipse",
        "defense": "aggressive-revoke",
        "seed": 3,
        "base": {
            "n_nodes": 60,
            "duration": 30.0,
            "sample_interval": 10.0,
            "attack": "lookup-bias",
        },
    },
}


def run_canonical(kind: str) -> str:
    """Canonical timing-stripped JSON of one case run."""
    result = get_experiment(kind).run(copy.deepcopy(CASES[kind]))
    return canonical_json(strip_timing(result.to_dict()))

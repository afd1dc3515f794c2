"""Golden determinism snapshots: per-kind digests pinned for kernel and oracle.

The differential suite only proves the runtime kernel agrees with the
brute-force oracle; a change that shifts draw sequences on both at once (a
reordered stream name, a new draw on a hot path) would slip through it.
These tests pin each case's canonical output to a committed sha256, so any
drift — on one side or both — fails loudly.  ``array`` runs the runtime
kernel, ``object`` the oracle.

On an intentional semantics change, regenerate with::

    python tests/kernel/regenerate.py

and commit the ``golden/digests.json`` diff alongside the change.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from cases import CASES, run_canonical
from oracle import use_oracle

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "digests.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_kind():
    assert set(GOLDEN) == set(CASES)


@pytest.mark.parametrize("kernel", ["object", "array"])
@pytest.mark.parametrize("kind", sorted(CASES))
def test_output_matches_committed_digest(kind, kernel, monkeypatch):
    if kernel == "object":
        use_oracle(monkeypatch)
    digest = hashlib.sha256(run_canonical(kind).encode("utf-8")).hexdigest()
    assert digest == GOLDEN[kind]["sha256"], (
        f"{kind} under kernel={kernel} drifted from the committed golden digest; "
        "if intentional, run `python tests/kernel/regenerate.py` and commit the diff"
    )

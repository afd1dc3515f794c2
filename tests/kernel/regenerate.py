#!/usr/bin/env python
"""Regenerate the committed golden digests in ``tests/kernel/golden/``.

Run from anywhere::

    python tests/kernel/regenerate.py

Recomputes every case in ``cases.CASES`` on the runtime kernel and on the
oracle, refuses to write if they disagree (that is a differential bug, not a
golden refresh), and rewrites ``golden/digests.json`` with the shared sha256
per kind.  Commit the resulting diff together with whatever semantics change
motivated it — a golden churn with no motivating change means the simulator
silently altered its draw sequence.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))
sys.path.insert(0, str(HERE))

import pytest  # noqa: E402

from cases import CASES, run_canonical  # noqa: E402
from oracle import use_oracle  # noqa: E402


def main() -> int:
    digests = {}
    for kind in sorted(CASES):
        payload = run_canonical(kind)
        with pytest.MonkeyPatch.context() as monkeypatch:
            use_oracle(monkeypatch)
            if run_canonical(kind) != payload:
                print(f"ERROR: kernel and oracle disagree on kind {kind!r}; fix the differential bug first")
                return 1
        digests[kind] = {
            "sha256": hashlib.sha256(payload.encode("utf-8")).hexdigest(),
            "canonical_bytes": len(payload),
        }
        print(f"{kind}: {digests[kind]['sha256']}")
    out = HERE / "golden" / "digests.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

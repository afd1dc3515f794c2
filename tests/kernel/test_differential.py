"""Runtime-kernel-vs-oracle differential suite.

For every experiment kind that owns a ring, running the same config on the
runtime :class:`~repro.sim.kernel.ArrayRingKernel` (and
:class:`~repro.sim.kernel.FingerMatrix` paths) and on the brute-force
reference in ``oracle.py`` produces byte-identical results once timing is
stripped.  Neither draws randomness of its own — all draws come from named
:class:`~repro.sim.rng.RandomSource` streams — so any divergence here is a
semantics bug in the kernel, not noise.

The ring kernel is not a user choice: every kind rejects a ``kernel``
parameter instead of ignoring it.
"""

from __future__ import annotations

import pytest

from repro.campaign import available_kinds, get_experiment
from repro.cli import main

from cases import CASES, run_canonical
from oracle import use_oracle


@pytest.mark.parametrize("kind", sorted(CASES))
def test_kernels_byte_identical_per_kind(kind, monkeypatch):
    runtime = run_canonical(kind)
    use_oracle(monkeypatch)
    assert run_canonical(kind) == runtime


@pytest.mark.parametrize("kind", available_kinds())
def test_kernel_param_rejected(kind):
    """A stale ``kernel`` param fails loudly, in scenario/adaptive ``base`` too."""
    params = {"base": {"kernel": "array"}} if kind in ("scenario", "adaptive") else {"kernel": "array"}
    with pytest.raises(ValueError, match=r"unknown \w+ parameters: kernel"):
        get_experiment(kind).run(params)


def test_cli_has_no_kernel_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["efficiency", "--nodes", "20", "--lookups", "1", "--kernel", "array"])
    assert exc.value.code != 0
    assert "--kernel" in capsys.readouterr().err

"""``repro.sim.kernel`` — the ring's membership state and greedy-path executor.

:class:`ArrayRingKernel` owns the ground-truth membership behind
:class:`~repro.chord.ring.ChordRing` (flat sorted arrays, incremental churn
maintenance, cached finger resolution); :class:`FingerMatrix` and
:func:`greedy_path_positions` run the greedy lookup paths of
:class:`~repro.anonymity.ring_model.LightweightRing`.

Both draw no randomness.  ``tests/kernel/oracle.py`` keeps the brute-force
O(N)-scan reference they are checked against: byte-identical trial records,
ring invariants under churn interleavings, and golden digests.  See
``docs/architecture.md`` for the layouts and cache-invalidation rules.
"""

from .array_kernel import ArrayRingKernel
from .paths import FingerMatrix, greedy_path_positions

__all__ = [
    "ArrayRingKernel",
    "FingerMatrix",
    "greedy_path_positions",
]

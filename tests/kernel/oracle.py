"""Brute-force reference implementations of the ring kernel and greedy paths.

:class:`ObjectRingKernel` recomputes every membership query with an O(N)
scan over a sorted id list plus per-node flags, the way :class:`ChordRing`
computed them when the state lived on the node objects.
:func:`scalar_query_path_positions` is the greedy lookup loop of
:class:`LightweightRing` that resolves each finger candidate with its own
bisect.  Both are deliberately unoptimised: the differential, property and
golden suites check the runtime :class:`~repro.sim.kernel.ArrayRingKernel`
and :class:`~repro.sim.kernel.FingerMatrix` paths against them.

:func:`use_oracle` swaps both into the simulator for one test.  It patches
the name ``repro.chord.ring`` builds its kernel from, and the lightweight
ring's path method, so ``src/`` needs no test-only switch.
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterable, List, Optional, Sequence, Set


class ObjectRingKernel:
    """Sorted id list + per-node flags; every query rescans."""

    def __init__(self, space_size: int) -> None:
        if space_size < 1:
            raise ValueError("space_size must be positive")
        self.space_size = int(space_size)
        self._sorted_ids: List[int] = []
        self._alive: Dict[int, bool] = {}
        self._malicious: Set[int] = set()
        self._removed: Set[int] = set()

    # ------------------------------------------------------------------ state
    def load(self, sorted_ids: Sequence[int], malicious_ids: Iterable[int]) -> None:
        self._sorted_ids = list(sorted_ids)
        self._alive = {nid: True for nid in self._sorted_ids}
        self._malicious = set(malicious_ids)
        self._removed = set()

    def set_alive(self, node_id: int, alive: bool) -> None:
        if node_id in self._alive:
            self._alive[node_id] = alive

    def set_removed(self, node_id: int) -> None:
        if node_id in self._alive:
            self._removed.add(node_id)

    def set_malicious(self, node_id: int, malicious: bool) -> None:
        if node_id not in self._alive:
            return
        if malicious:
            self._malicious.add(node_id)
        else:
            self._malicious.discard(node_id)

    # ---------------------------------------------------------------- queries
    def alive_ids_view(self) -> List[int]:
        return [nid for nid in self._sorted_ids if self._alive[nid]]

    def alive_ids(self) -> List[int]:
        return self.alive_ids_view()

    def honest_alive_ids(self) -> List[int]:
        return [
            nid
            for nid in self._sorted_ids
            if nid not in self._malicious and self._alive[nid]
        ]

    def successor_of(self, key: int) -> Optional[int]:
        alive = self.alive_ids_view()
        if not alive:
            return None
        pos = bisect.bisect_left(alive, key % self.space_size)
        if pos == len(alive):
            pos = 0
        return alive[pos]

    def fraction_malicious_alive(self) -> float:
        alive = self.alive_ids_view()
        if not alive:
            return 0.0
        return sum(1 for nid in alive if nid in self._malicious) / len(alive)

    def remaining_malicious_fraction(self) -> float:
        alive = [
            nid
            for nid in self._sorted_ids
            if self._alive[nid] and nid not in self._removed
        ]
        if not alive:
            return 0.0
        return sum(1 for nid in alive if nid in self._malicious) / len(alive)

    def resolve_fingers(self, owner_id: int, ideals: Sequence[int]) -> List[Optional[int]]:
        alive = self.alive_ids_view()
        if not alive:
            return [None] * len(ideals)
        out: List[Optional[int]] = []
        n = len(alive)
        for ideal in ideals:
            pos = bisect.bisect_left(alive, ideal)
            if pos == n:
                pos = 0
            out.append(alive[pos])
        return out


def scalar_query_path_positions(ring, initiator_pos: int, target_pos: int, max_hops: int = 64) -> List[int]:
    """``LightweightRing.query_path_positions``, one bisect per finger candidate."""
    space = ring.space
    path: List[int] = []
    current_pos = initiator_pos
    for _ in range(max_hops):
        current_id = ring.ids[current_pos]
        # Termination: the current node's immediate successor owns the key.
        succ_pos = (current_pos + 1) % ring.n_nodes
        if ring.hop_distance(current_pos, target_pos) <= 1:
            break
        if succ_pos == target_pos:
            break
        # Candidate next hops: true fingers + 6 successors.
        best_pos = None
        best_gap = None
        for i in range(ring.finger_count):
            ideal = space.normalize(current_id + (1 << i))
            cand = ring.position_of_id(ideal)
            gap = ring.hop_distance(cand, target_pos)
            if cand == current_pos:
                continue
            # Candidate must precede (or be) the target.
            if ring.hop_distance(current_pos, cand) > ring.hop_distance(current_pos, target_pos):
                continue
            if best_gap is None or gap < best_gap:
                best_pos, best_gap = cand, gap
        for step in range(1, 7):
            cand = (current_pos + step) % ring.n_nodes
            if ring.hop_distance(current_pos, cand) > ring.hop_distance(current_pos, target_pos):
                break
            gap = ring.hop_distance(cand, target_pos)
            if best_gap is None or gap < best_gap:
                best_pos, best_gap = cand, gap
        if best_pos is None or best_pos == current_pos:
            break
        path.append(best_pos)
        if best_pos == target_pos:
            break
        current_pos = best_pos
    return path


def use_oracle(monkeypatch) -> None:
    """Run the simulator on the reference implementations for one test."""
    from repro.anonymity.ring_model import LightweightRing

    monkeypatch.setattr("repro.chord.ring.ArrayRingKernel", ObjectRingKernel)
    monkeypatch.setattr(LightweightRing, "query_path_positions", scalar_query_path_positions)

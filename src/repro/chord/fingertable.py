"""Finger tables.

Each Chord/Octopus node keeps ``m`` fingers: entry ``i`` points to the first
node whose identifier succeeds ``node_id + 2**i``.  The paper's simulations
use 12 fingers per node for the N=1000 networks (Section 5.1); this class
supports any finger count up to the identifier width.

Finger tables in Octopus are *signed* when returned to other nodes (together
with the successor list, forming the routing table); the signing wrapper
lives in :mod:`repro.chord.routing_table`.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .idspace import IdSpace


@dataclass
class FingerEntry:
    """A single finger: the ideal identifier and the actual node filling it.

    :class:`FingerTable` hands these out as detached views of its state.
    """

    index: int
    ideal_id: int
    node_id: Optional[int] = None

    def is_filled(self) -> bool:
        return self.node_id is not None


class FingerTable:
    """A node's finger table.

    The fingers live in one immutable tuple, :attr:`pairs`, of
    ``(ideal_id, node_id)`` pairs in index order.  Every mutator replaces the
    tuple rather than editing it, and leaves it untouched when nothing
    changes, so a routing-table snapshot can share it by reference and tell
    "unchanged" from "changed" by identity alone.

    Parameters
    ----------
    owner_id:
        Identifier of the node that owns this table.
    space:
        The identifier space.
    size:
        Number of fingers maintained (paper default for simulations: 12).
    """

    def __init__(self, owner_id: int, space: IdSpace, size: int = 12) -> None:
        if size < 1 or size > space.bits:
            raise ValueError(f"finger table size must be in [1, {space.bits}]")
        self.owner_id = owner_id
        self.space = space
        self.size = size
        # A node keeping fewer fingers than the identifier width keeps the
        # *longest-range* ones: finger ``i`` targets ``owner + 2**(bits-size+i)``.
        # (With ``size == bits`` this is exactly Chord's ``owner + 2**i``; with
        # the paper's 12 fingers it is the 12 fingers that actually matter for
        # O(log N) routing — the shorter ones all collapse onto the successor.)
        self.pairs: Tuple[Tuple[int, Optional[int]], ...] = tuple(
            [(space.normalize(owner_id + (1 << (space.bits - size + i))), None) for i in range(size)]
        )

    # ---------------------------------------------------------------- access
    def __len__(self) -> int:
        return self.size

    def entry(self, index: int) -> FingerEntry:
        """A detached view of finger ``index``; change it through :meth:`set`."""
        ideal_id, node_id = self.pairs[index]
        return FingerEntry(index, ideal_id, node_id)

    @property
    def entries(self) -> List[FingerEntry]:
        """Detached views of every finger, in index order."""
        return [FingerEntry(i, ideal_id, node_id) for i, (ideal_id, node_id) in enumerate(self.pairs)]

    def ideal_id(self, index: int) -> int:
        return self.pairs[index][0]

    def ideal_ids(self) -> List[int]:
        """Every entry's ideal identifier, in index order."""
        return [ideal_id for ideal_id, _ in self.pairs]

    def get(self, index: int) -> Optional[int]:
        """The node currently filling finger ``index`` (or ``None``)."""
        return self.pairs[index][1]

    def set(self, index: int, node_id: Optional[int]) -> None:
        """Set finger ``index`` to ``node_id``."""
        ideal_id, current = self.pairs[index]
        if current != node_id:
            pairs = list(self.pairs)
            pairs[index] = (ideal_id, node_id)
            self.pairs = tuple(pairs)

    def nodes(self) -> List[int]:
        """All distinct filled finger node ids, in index order."""
        return [node for node in dict.fromkeys(nid for _, nid in self.pairs) if node is not None]

    def as_dict(self) -> Dict[int, Optional[int]]:
        """``{index: node_id}`` mapping (used when exchanging fingertables)."""
        return {i: node_id for i, (_, node_id) in enumerate(self.pairs)}

    def fill_from(self, sorted_ids: Sequence[int]) -> None:
        """Fill every finger from a sorted list of all live node identifiers.

        Used by the ring builder to construct a *correct* table in one shot
        (the paper's simulator similarly bootstraps correct routing state and
        then lets stabilization maintain it under churn).
        """
        if not sorted_ids:
            raise ValueError("cannot fill a finger table from an empty ring")
        n = len(sorted_ids)
        self._replace([sorted_ids[bisect.bisect_left(sorted_ids, ideal_id) % n] for ideal_id, _ in self.pairs])

    def fill_targets(self, targets: Sequence[Optional[int]]) -> None:
        """Set every entry from pre-resolved targets (one per entry, in order).

        Counterpart of :meth:`fill_from` for callers that resolved the
        ideals elsewhere (the ring kernel's cached finger resolution).
        """
        if len(targets) != self.size:
            raise ValueError(f"expected {self.size} targets, got {len(targets)}")
        self._replace(targets)

    def _replace(self, targets: Iterable[Optional[int]]) -> None:
        """Point the fingers at ``targets``, keeping :attr:`pairs` if nothing moves."""
        pairs = tuple([(ideal_id, target) for (ideal_id, _), target in zip(self.pairs, targets)])
        if pairs != self.pairs:
            self.pairs = pairs

    def copy(self) -> "FingerTable":
        """An independent copy (the immutable :attr:`pairs` tuple is shared)."""
        clone = FingerTable(self.owner_id, self.space, self.size)
        clone.pairs = self.pairs
        return clone

    # ------------------------------------------------------------ maintenance
    def replace_node(self, old_id: int, new_id: Optional[int]) -> int:
        """Replace every occurrence of ``old_id`` with ``new_id``; returns count."""
        count = sum(1 for _, nid in self.pairs if nid == old_id)
        if count:
            self._replace(new_id if nid == old_id else nid for _, nid in self.pairs)
        return count

    def closest_preceding(self, key: int, exclude: Optional[set] = None) -> Optional[int]:
        """The filled finger most closely preceding ``key`` (Chord routing)."""
        exclude = exclude or set()
        best = None
        best_dist = None
        for _, nid in self.pairs:
            if nid is None or nid in exclude or nid == self.owner_id:
                continue
            if not self.space.in_interval(nid, self.owner_id, key):
                continue
            d = self.space.distance(nid, key)
            if best_dist is None or d < best_dist:
                best, best_dist = nid, d
        return best

    def __repr__(self) -> str:  # pragma: no cover
        filled = sum(1 for _, nid in self.pairs if nid is not None)
        return f"FingerTable(owner={self.owner_id}, filled={filled}/{self.size})"

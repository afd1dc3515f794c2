"""Successor and predecessor lists.

Chord nodes keep a successor list for fault tolerance.  Octopus additionally
requires every node to keep a *predecessor* list of the same size, maintained
by running the stabilization protocol anti-clockwise (Section 4.3): this is
what makes secret neighbor surveillance possible, because each node must then
appear in the successor list of each of its predecessors.

The lists are ordered by ring distance from the owner and bounded in length
(paper: 6 successors and 6 predecessors for the N=1000 experiments).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from .idspace import IdSpace


class NeighborList:
    """An ordered, bounded list of ring neighbors in one direction.

    The entries live in one immutable tuple, exposed uncopied as
    :attr:`view`.  Mutators replace the tuple and leave it untouched when
    nothing changes, so snapshots can share it by reference.

    Parameters
    ----------
    owner_id:
        The node owning the list.
    space:
        Identifier space.
    capacity:
        Maximum number of entries kept (paper default: 6).
    direction:
        ``+1`` for a successor list (clockwise), ``-1`` for a predecessor list
        (anti-clockwise).
    """

    def __init__(self, owner_id: int, space: IdSpace, capacity: int = 6, direction: int = +1) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        if direction not in (+1, -1):
            raise ValueError("direction must be +1 (successors) or -1 (predecessors)")
        self.owner_id = owner_id
        self.space = space
        self.capacity = capacity
        self.direction = direction
        self._nodes: Tuple[int, ...] = ()

    # ---------------------------------------------------------------- helpers
    def _distance(self, node_id: int) -> int:
        if self.direction > 0:
            return self.space.distance(self.owner_id, node_id)
        return self.space.distance(node_id, self.owner_id)

    # ----------------------------------------------------------------- access
    @property
    def nodes(self) -> List[int]:
        """Entries ordered by increasing ring distance from the owner."""
        return list(self._nodes)

    @property
    def view(self) -> Tuple[int, ...]:
        """The entries as the list's own immutable tuple (no copy)."""
        return self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._nodes

    def first(self) -> Optional[int]:
        """The immediate successor (or predecessor), if any."""
        return self._nodes[0] if self._nodes else None

    def is_full(self) -> bool:
        return len(self._nodes) >= self.capacity

    # ------------------------------------------------------------- mutation
    def add(self, node_id: int) -> bool:
        """Insert ``node_id`` keeping order; returns whether the list changed."""
        nodes = self._nodes
        if node_id == self.owner_id or node_id in nodes:
            return False
        # Ring distances from the owner are distinct, so a full list would
        # drop a candidate farther out than its last entry straight away.
        if len(nodes) >= self.capacity and self._distance(node_id) > self._distance(nodes[-1]):
            return False
        self._nodes = tuple(sorted(nodes + (node_id,), key=self._distance)[: self.capacity])
        return True

    def update(self, node_ids: Iterable[int]) -> int:
        """Add many candidates; returns the number actually inserted."""
        count = 0
        for nid in node_ids:
            if self.add(nid):
                count += 1
        return count

    def remove(self, node_id: int) -> bool:
        """Remove ``node_id`` if present."""
        if node_id in self._nodes:
            self._nodes = tuple(nid for nid in self._nodes if nid != node_id)
            return True
        return False

    def replace_all(self, node_ids: Sequence[int]) -> None:
        """Replace the whole list (used when adopting a peer-provided list).

        Same result as clearing and then adding each id: the ``capacity``
        closest distinct ids other than the owner.
        """
        candidates = dict.fromkeys(nid for nid in node_ids if nid != self.owner_id)
        nodes = tuple(sorted(candidates, key=self._distance)[: self.capacity])
        if nodes != self._nodes:
            self._nodes = nodes

    def clear(self) -> None:
        self._nodes = ()

    def copy(self) -> "NeighborList":
        clone = NeighborList(self.owner_id, self.space, self.capacity, self.direction)
        clone._nodes = self._nodes
        return clone

    def __repr__(self) -> str:  # pragma: no cover
        kind = "succ" if self.direction > 0 else "pred"
        return f"NeighborList({kind}, owner={self.owner_id}, nodes={list(self._nodes)})"


@dataclass(frozen=True)
class SignedSuccessorList:
    """A successor list snapshot signed by its owner.

    Octopus requires routing tables to be signed and timestamped so that they
    can serve as non-repudiable evidence when a node is reported to the CA
    (Section 4.3).  ``signature`` is produced by the owner's key pair over the
    canonical payload; ``received_from`` records who supplied the list during
    stabilization (used for successor-list-pollution proof chains).
    """

    owner_id: int
    nodes: tuple
    timestamp: float
    signature: object = None
    received_from: Optional[int] = None

    def payload(self) -> bytes:
        body = ",".join(str(n) for n in self.nodes)
        return f"succlist|{self.owner_id}|{body}|{self.timestamp:.3f}".encode()

    def contains(self, node_id: int) -> bool:
        return node_id in self.nodes

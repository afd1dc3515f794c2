"""Chord stabilization, run clockwise and anti-clockwise.

Section 5.1 of the paper: every node runs successor and predecessor
stabilization every 2 seconds and refreshes fingers via lookups every 30
seconds.  The anti-clockwise (predecessor-list) stabilization is the Octopus
addition that underpins secret neighbor surveillance — each node must appear
in the successor list of each of its predecessors.

Stabilization exchanges signed successor lists; honest nodes store the lists
they receive as proofs (used by the CA to unwind successor-list pollution,
Section 4.3 / Figure 2(b)).
"""

from __future__ import annotations

from dataclasses import dataclass

from .node import ChordNode
from .ring import ChordRing


@dataclass
class StabilizationStats:
    """Counters describing one round of maintenance."""

    successor_rounds: int = 0
    predecessor_rounds: int = 0
    entries_learned: int = 0
    dead_entries_pruned: int = 0


class Stabilizer:
    """Runs the periodic maintenance protocols for one ring.

    The class operates at the event-simulator abstraction level used by the
    paper: a stabilization round is a direct state exchange with the current
    first neighbor (the network-level cost is accounted by the efficiency
    experiments separately).  Malicious neighbors answer through their
    behaviour hook, so successor-list pollution attacks act here.
    """

    def __init__(self, ring: ChordRing) -> None:
        self.ring = ring
        self.stats = StabilizationStats()

    # ------------------------------------------------------------ successors
    def stabilize_successors(self, node: ChordNode, now: float = 0.0) -> None:
        """One clockwise stabilization round for ``node``."""
        if not node.alive:
            return
        self.stats.successor_rounds += 1
        self._prune_dead(node.successor_list)
        neighbor_id = node.successor_list.first()
        if neighbor_id is None:
            self._reseed(node, direction=+1)
            neighbor_id = node.successor_list.first()
            if neighbor_id is None:
                return
        neighbor = self.ring.get(neighbor_id)
        if neighbor is None or not neighbor.alive:
            node.successor_list.remove(neighbor_id)
            return
        reply = neighbor.respond_successor_list(node.node_id, purpose="stabilize-successors", now=now)
        node.store_successor_proof(reply)
        learned = node.successor_list.update(
            nid for nid in reply.nodes if self._plausibly_alive(nid)
        )
        self.stats.entries_learned += learned
        # Notify the neighbor so it can adopt us as a predecessor.
        neighbor.predecessor_list.add(node.node_id)

    # ---------------------------------------------------------- predecessors
    def stabilize_predecessors(self, node: ChordNode, now: float = 0.0) -> None:
        """One anti-clockwise stabilization round (Octopus predecessor lists)."""
        if not node.alive:
            return
        self.stats.predecessor_rounds += 1
        self._prune_dead(node.predecessor_list)
        neighbor_id = node.predecessor_list.first()
        if neighbor_id is None:
            self._reseed(node, direction=-1)
            neighbor_id = node.predecessor_list.first()
            if neighbor_id is None:
                return
        neighbor = self.ring.get(neighbor_id)
        if neighbor is None or not neighbor.alive:
            node.predecessor_list.remove(neighbor_id)
            return
        # Ask the predecessor for *its* predecessor list to extend ours.
        their_preds = neighbor.respond_predecessor_list(node.node_id, purpose="stabilize-predecessors", now=now)
        learned = node.predecessor_list.update(
            nid for nid in their_preds if self._plausibly_alive(nid)
        )
        self.stats.entries_learned += learned
        # And make sure the predecessor knows about us as a successor.
        neighbor.successor_list.add(node.node_id)

    # --------------------------------------------------------------- helpers
    def run_round(self, node: ChordNode, now: float = 0.0) -> None:
        """Run both directions for one node (the paper's 2-second tick)."""
        self.stabilize_successors(node, now=now)
        self.stabilize_predecessors(node, now=now)

    def run_global_round(self, now: float = 0.0) -> None:
        """Run one maintenance round for every alive node (used in tests)."""
        for node in self.ring.alive_nodes():
            self.run_round(node, now=now)

    def _plausibly_alive(self, node_id: int) -> bool:
        node = self.ring.get(node_id)
        return node is not None and node.alive

    def _prune_dead(self, neighbor_list) -> None:
        for nid in neighbor_list.view:
            node = self.ring.get(nid)
            if node is None or not node.alive:
                neighbor_list.remove(nid)
                self.stats.dead_entries_pruned += 1

    def _reseed(self, node: ChordNode, direction: int) -> None:
        """Recover an empty neighbor list from ground truth (bootstrap contact).

        In a deployment the node would fall back to its bootstrap node; the
        simulator reseeds from the ring, which has the same effect.
        """
        alive = self.ring.alive_ids_sorted()
        capacity = node.successor_list.capacity if direction > 0 else node.predecessor_list.capacity
        neighbors = self.ring._neighbors(node.node_id, alive, direction, capacity)
        if direction > 0:
            node.successor_list.update(neighbors)
        else:
            node.predecessor_list.update(neighbors)

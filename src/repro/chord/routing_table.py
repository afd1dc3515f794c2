"""Signed routing-table snapshots.

In Octopus every queried node returns its *routing table*: the union of its
finger table and its successor list (Section 4.3).  The table is signed and
timestamped by its owner so that it can later serve as non-repudiable
evidence before the CA.  This module defines the snapshot object exchanged on
the wire plus bound-checking utilities (the NISAN-style defense Octopus
applies to returned tables, Section 4.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .idspace import IdSpace


Fingers = Tuple[Tuple[int, Optional[int]], ...]


def _routing_prefix(
    owner_id: int, fingers: Fingers, successors: Tuple[int, ...], predecessors: Tuple[int, ...]
) -> bytes:
    """The signed payload of a routing table, up to (excluding) its timestamp."""
    finger_text = ";".join(f"{ideal}:{node}" for ideal, node in fingers)
    succ = ",".join(str(n) for n in successors)
    pred = ",".join(str(n) for n in predecessors)
    return f"rt|{owner_id}|{finger_text}|{succ}|{pred}|".encode()


def referenced_nodes(owner_id: int, fingers: Fingers, successors: Tuple[int, ...]) -> Tuple[int, ...]:
    """Distinct finger then successor ids, in order, without the owner."""
    ordered = dict.fromkeys(node for _, node in fingers)
    ordered.update(dict.fromkeys(successors))
    return tuple(node for node in ordered if node is not None and node != owner_id)


class RoutingContent:
    """What an honest node's routing table derives from its routing state.

    A node builds one of these whenever one of its finger, successor or
    predecessor tuples is replaced (see :class:`FingerTable` and
    :class:`NeighborList`), and every snapshot of the unchanged table shares
    it: the payload bytes up to the timestamp, :meth:`RoutingTableSnapshot.all_nodes`
    and the :class:`BoundChecker` verdict, memoized per checker parameters.
    The content describes exactly the tuples it was built from, so a
    snapshot trusts it only while its own fields *are* those tuples (see
    :meth:`describes`); a table derived by hand or with
    :func:`dataclasses.replace` is recomputed and checked from scratch.
    """

    __slots__ = ("owner_id", "fingers", "successors", "predecessors", "prefix", "nodes", "verdicts")

    def __init__(
        self, owner_id: int, fingers: Fingers, successors: Tuple[int, ...], predecessors: Tuple[int, ...]
    ) -> None:
        self.owner_id = owner_id
        self.fingers = fingers
        self.successors = successors
        self.predecessors = predecessors
        self.prefix = _routing_prefix(owner_id, fingers, successors, predecessors)
        self.nodes = referenced_nodes(owner_id, fingers, successors)
        #: ``BoundChecker.check`` results keyed by the checker's parameters
        self.verdicts: Dict[Tuple[int, int, float], "BoundCheckResult"] = {}

    def describes(
        self, owner_id: int, fingers: Fingers, successors: Tuple[int, ...], predecessors: Tuple[int, ...]
    ) -> bool:
        """Whether this content was built from these very objects (identity, not equality)."""
        return (
            fingers is self.fingers
            and successors is self.successors
            and predecessors is self.predecessors
            and owner_id == self.owner_id
        )


def routing_payload(
    owner_id: int,
    fingers: Fingers,
    successors: Tuple[int, ...],
    predecessors: Tuple[int, ...],
    timestamp: float,
    content: Optional[RoutingContent] = None,
) -> bytes:
    """The bytes a routing table's signature covers.

    ``content`` supplies the prefix only if it describes these very fields.
    """
    if content is not None and content.describes(owner_id, fingers, successors, predecessors):
        prefix = content.prefix
    else:
        prefix = _routing_prefix(owner_id, fingers, successors, predecessors)
    return prefix + f"{timestamp:.3f}".encode()


@dataclass(frozen=True)
class RoutingTableSnapshot:
    """An immutable, signed view of a node's routing state at a point in time.

    Attributes
    ----------
    owner_id:
        The node whose state this is.
    fingers:
        ``(ideal_id, node_id)`` pairs in finger-index order.
    successors:
        Successor list in ring order.
    predecessors:
        Predecessor list in ring order (Octopus-specific; may be empty when a
        peer only asks for the classic table).
    timestamp:
        Simulated time at which the snapshot was produced.
    signature:
        The owner's signature over :meth:`payload`; ``None`` in contexts where
        signatures are modelled but not computed (fast simulation mode still
        accounts for their bytes).
    content:
        The owner's shared :class:`RoutingContent`, for honest snapshots only.
        It is used only while it describes this snapshot's own fields.
    """

    owner_id: int
    fingers: Fingers
    successors: Tuple[int, ...]
    predecessors: Tuple[int, ...] = ()
    timestamp: float = 0.0
    signature: object = None
    content: Optional[RoutingContent] = field(default=None, compare=False, repr=False)

    def trusted_content(self) -> Optional[RoutingContent]:
        """:attr:`content` if it was built from this snapshot's very fields."""
        content = self.content
        if content is None or not content.describes(
            self.owner_id, self.fingers, self.successors, self.predecessors
        ):
            return None
        return content

    def payload(self) -> bytes:
        return routing_payload(
            self.owner_id, self.fingers, self.successors, self.predecessors, self.timestamp, self.content
        )

    # ----------------------------------------------------------------- access
    def all_nodes(self) -> Tuple[int, ...]:
        """Every node id referenced by this table (fingers + successors)."""
        content = self.trusted_content()
        if content is not None:
            return content.nodes
        return referenced_nodes(self.owner_id, self.fingers, self.successors)

    def entry_count(self) -> int:
        """Number of routing items (for bandwidth accounting)."""
        return len(self.fingers) + len(self.successors) + len(self.predecessors)

    def closest_preceding(self, key: int, space: IdSpace, exclude: Optional[set] = None) -> Optional[int]:
        """The referenced node most closely preceding ``key`` (greedy routing)."""
        exclude = exclude or set()
        best = None
        best_dist = None
        for node in self.all_nodes():
            if node in exclude:
                continue
            if not space.in_interval(node, self.owner_id, key):
                continue
            d = space.distance(node, key)
            if best_dist is None or d < best_dist:
                best, best_dist = node, d
        return best

    def immediate_successor(self) -> Optional[int]:
        return self.successors[0] if self.successors else None


@dataclass(frozen=True)
class BoundCheckResult:
    """Outcome of NISAN-style bound checking on a returned routing table."""

    passed: bool
    violations: Tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.passed


class BoundChecker:
    """Statistical bound checking of returned routing tables.

    NISAN (and Octopus, Section 4.1) limits fingertable manipulation by
    checking that each returned finger is plausibly close to its ideal
    identifier.  With ``N`` uniformly distributed nodes the expected gap
    between the ideal identifier and the true finger is ``ring_size / N``;
    the checker flags fingers whose gap exceeds ``tolerance_factor`` times
    that expectation, and successor lists whose span is implausibly wide.

    This is deliberately a *moderate* defense — the paper notes a malicious
    node can still modify a few fingers undetected — which is why Octopus
    pairs it with secret surveillance.
    """

    def __init__(self, space: IdSpace, expected_network_size: int, tolerance_factor: float = 8.0) -> None:
        if expected_network_size < 2:
            raise ValueError("expected_network_size must be at least 2")
        self.space = space
        self.expected_network_size = expected_network_size
        self.tolerance_factor = tolerance_factor

    @property
    def expected_gap(self) -> float:
        return self.space.size / self.expected_network_size

    def check(self, table: RoutingTableSnapshot) -> BoundCheckResult:
        """Check a routing table; returns which constraints were violated.

        An honest snapshot's verdict is memoized in its shared
        :class:`RoutingContent`; any other table is checked in full.
        """
        content = table.trusted_content()
        if content is None:
            return self._check(table)
        key = (self.space.size, self.expected_network_size, self.tolerance_factor)
        verdict = content.verdicts.get(key)
        if verdict is None:
            verdict = content.verdicts[key] = self._check(table)
        return verdict

    def _check(self, table: RoutingTableSnapshot) -> BoundCheckResult:
        violations: List[str] = []
        max_gap = self.tolerance_factor * self.expected_gap
        for ideal, node in table.fingers:
            if node is None:
                continue
            gap = self.space.distance(ideal, node)
            if gap > max_gap:
                violations.append(f"finger for ideal {ideal} is {gap:.0f} past ideal (> {max_gap:.0f})")
        if table.successors:
            span = self.space.distance(table.owner_id, table.successors[-1])
            max_span = self.tolerance_factor * self.expected_gap * max(len(table.successors), 1)
            if span > max_span:
                violations.append(f"successor list spans {span:.0f} (> {max_span:.0f})")
            # Successors must be sorted by distance from the owner.
            distances = [self.space.distance(table.owner_id, s) for s in table.successors]
            if distances != sorted(distances):
                violations.append("successor list is not ordered by ring distance")
        return BoundCheckResult(passed=not violations, violations=tuple(violations))

"""Tests for finger tables, neighbor lists, routing-table snapshots and bound checks."""

from __future__ import annotations

import dataclasses
import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks.adversary import Adversary
from repro.attacks.fingertable_manipulation import FingertableManipulationBehavior
from repro.attacks.lookup_bias import LookupBiasBehavior
from repro.chord.fingertable import FingerTable
from repro.chord.idspace import IdSpace
from repro.chord.node import ChordNode
from repro.chord.routing_table import BoundChecker, RoutingTableSnapshot
from repro.chord.stabilization import Stabilizer
from repro.chord.successor_list import NeighborList
from repro.core.config import OctopusConfig
from repro.core.octopus_node import OctopusNetwork
from repro.core.random_walk import RandomWalkProtocol
from repro.crypto.keys import verify
from repro.sim.rng import RandomSource

SPACE = IdSpace(bits=16)


class TestFingerTable:
    def test_ideal_ids_cover_longest_ranges(self):
        table = FingerTable(owner_id=100, space=SPACE, size=5)
        # With 5 fingers in a 16-bit space the ideals are owner + 2^11 .. 2^15.
        assert [table.ideal_id(i) for i in range(5)] == [100 + (1 << e) for e in range(11, 16)]

    def test_fill_from_sorted_ids(self):
        table = FingerTable(owner_id=0, space=SPACE, size=8)
        ids = [10, 50, 200, 5000, 40000]
        table.fill_from(sorted(ids))
        assert table.get(0) == 5000    # ideal 256 -> successor 5000
        assert table.get(4) == 5000    # ideal 4096 -> successor 5000
        assert table.get(5) == 40000   # ideal 8192 -> successor 40000
        assert table.get(7) == 40000   # ideal 32768 -> successor 40000

    def test_fill_from_empty_rejected(self):
        table = FingerTable(owner_id=0, space=SPACE, size=4)
        with pytest.raises(ValueError):
            table.fill_from([])

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            FingerTable(owner_id=0, space=SPACE, size=0)
        with pytest.raises(ValueError):
            FingerTable(owner_id=0, space=SPACE, size=SPACE.bits + 1)

    def test_replace_node(self):
        table = FingerTable(owner_id=0, space=SPACE, size=4)
        for i in range(4):
            table.set(i, 77)
        assert table.replace_node(77, 88) == 4
        assert table.nodes() == [88]

    def test_nodes_deduplicated_in_order(self):
        table = FingerTable(owner_id=0, space=SPACE, size=4)
        table.set(0, 5)
        table.set(1, 5)
        table.set(2, 9)
        assert table.nodes() == [5, 9]

    def test_closest_preceding(self):
        table = FingerTable(owner_id=0, space=SPACE, size=8)
        table.set(0, 10)
        table.set(1, 50)
        table.set(2, 200)
        table.set(3, 5000)
        assert table.closest_preceding(key=300) == 200
        assert table.closest_preceding(key=300, exclude={200}) == 50

    def test_copy_is_independent(self):
        table = FingerTable(owner_id=0, space=SPACE, size=4)
        table.set(0, 1)
        clone = table.copy()
        clone.set(0, 2)
        assert table.get(0) == 1


class TestNeighborList:
    def test_successor_ordering(self):
        lst = NeighborList(owner_id=100, space=SPACE, capacity=3, direction=+1)
        lst.update([500, 200, 300])
        assert lst.nodes == [200, 300, 500]
        assert lst.first() == 200

    def test_predecessor_ordering(self):
        lst = NeighborList(owner_id=100, space=SPACE, capacity=3, direction=-1)
        lst.update([50, 90, 10])
        assert lst.nodes == [90, 50, 10]

    def test_capacity_keeps_closest(self):
        lst = NeighborList(owner_id=0, space=SPACE, capacity=2, direction=+1)
        lst.update([30, 10, 20])
        assert lst.nodes == [10, 20]

    def test_owner_and_duplicates_not_added(self):
        lst = NeighborList(owner_id=5, space=SPACE, capacity=4)
        assert not lst.add(5)
        assert lst.add(7)
        assert not lst.add(7)
        assert len(lst) == 1

    def test_wraparound_ordering(self):
        lst = NeighborList(owner_id=SPACE.size - 5, space=SPACE, capacity=3, direction=+1)
        lst.update([3, SPACE.size - 2, 10])
        assert lst.nodes == [SPACE.size - 2, 3, 10]

    def test_remove_and_replace_all(self):
        lst = NeighborList(owner_id=0, space=SPACE, capacity=4)
        lst.update([1, 2, 3])
        assert lst.remove(2)
        assert not lst.remove(2)
        lst.replace_all([9, 8])
        assert lst.nodes == [8, 9]

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            NeighborList(owner_id=0, space=SPACE, capacity=0)
        with pytest.raises(ValueError):
            NeighborList(owner_id=0, space=SPACE, capacity=2, direction=0)

    @given(st.sets(st.integers(min_value=1, max_value=SPACE.size - 1), min_size=1, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_nodes_always_sorted_by_distance(self, candidates):
        lst = NeighborList(owner_id=0, space=SPACE, capacity=6, direction=+1)
        lst.update(candidates)
        distances = [SPACE.distance(0, n) for n in lst.nodes]
        assert distances == sorted(distances)
        assert len(lst) <= 6


class TestSnapshotsAndSigning:
    def test_snapshot_is_signed_and_verifiable(self):
        node = ChordNode(1234, SPACE, finger_count=6)
        node.finger_table.fill_from([2000, 3000, 40000])
        node.successor_list.update([2000, 3000])
        snap = node.snapshot(now=5.0)
        assert snap.signature is not None
        assert verify(node.keypair.public_key, snap.payload(), snap.signature)

    def test_tampered_snapshot_fails_verification(self):
        node = ChordNode(1234, SPACE, finger_count=6)
        node.successor_list.update([2000])
        snap = node.snapshot(now=5.0)
        forged = RoutingTableSnapshot(
            owner_id=snap.owner_id,
            fingers=snap.fingers,
            successors=(9999,),
            predecessors=snap.predecessors,
            timestamp=snap.timestamp,
            signature=snap.signature,
        )
        assert not verify(node.keypair.public_key, forged.payload(), forged.signature)

    def test_signed_successor_list_verifiable(self):
        node = ChordNode(77, SPACE)
        node.successor_list.update([100, 200])
        signed = node.signed_successor_list(now=1.0)
        assert verify(node.keypair.public_key, signed.payload(), signed.signature)
        assert signed.contains(100)

    def test_snapshot_all_nodes_and_entry_count(self):
        node = ChordNode(0, SPACE, finger_count=6)
        node.finger_table.fill_from([10, 20])
        node.successor_list.update([10, 30])
        snap = node.snapshot()
        # Every long-range ideal wraps around past 20, so all fingers point to 10.
        assert set(snap.all_nodes()) == {10, 30}
        assert snap.entry_count() == len(snap.fingers) + len(snap.successors)

    def test_closest_preceding_on_snapshot(self):
        node = ChordNode(0, SPACE, finger_count=8)
        node.finger_table.fill_from([10, 100, 1000])
        node.successor_list.update([10])
        snap = node.snapshot()
        # Fingers resolve to {1000, 10}; the closest node preceding 2000 is 1000.
        assert snap.closest_preceding(2000, SPACE) == 1000


class TestBoundChecker:
    def _snapshot(self, owner, fingers, successors):
        return RoutingTableSnapshot(owner_id=owner, fingers=tuple(fingers), successors=tuple(successors))

    def test_accepts_plausible_table(self):
        checker = BoundChecker(SPACE, expected_network_size=64, tolerance_factor=8.0)
        gap = SPACE.size // 64
        fingers = [(100 + (1 << i), 100 + (1 << i) + gap // 2) for i in range(4, 10)]
        successors = [100 + gap // 2, 100 + gap, 100 + 2 * gap]
        assert checker.check(self._snapshot(100, fingers, successors)).passed

    def test_rejects_far_finger(self):
        checker = BoundChecker(SPACE, expected_network_size=64, tolerance_factor=4.0)
        ideal = 2000
        bogus = (ideal + SPACE.size // 2) % SPACE.size
        result = checker.check(self._snapshot(100, [(ideal, bogus)], [150]))
        assert not result.passed
        assert any("finger" in v for v in result.violations)

    def test_rejects_unordered_successor_list(self):
        checker = BoundChecker(SPACE, expected_network_size=64)
        result = checker.check(self._snapshot(100, [], [300, 200]))
        assert not result.passed

    def test_rejects_overstretched_successor_list(self):
        checker = BoundChecker(SPACE, expected_network_size=1024, tolerance_factor=2.0)
        far = [(100 + (i + 1) * SPACE.size // 8) % SPACE.size for i in range(4)]
        result = checker.check(self._snapshot(100, [], sorted(far, key=lambda x: SPACE.distance(100, x))))
        assert not result.passed

    def test_requires_at_least_two_nodes(self):
        with pytest.raises(ValueError):
            BoundChecker(SPACE, expected_network_size=1)


# ------------------------------------------------------- copy-on-write state
#: a small id pool, so mutators often hit the same ids (replace_node, remove)
POOL = (0, 900, 2600, 5000, 8000, 12000, 17000, 21000, 26000, 30500, 34000,
        39000, 43000, 47500, 52000, 56000, 60000, 63000, 65000, 65500)
OWNER = 30500
ids = st.sampled_from(POOL)
maybe_ids = st.one_of(st.none(), ids)
FINGERS, SUCCESSORS, PREDECESSORS = 6, 3, 3
#: two parameter sets, so one content memoizes two different verdicts
CHECKERS = (
    BoundChecker(SPACE, expected_network_size=len(POOL)),
    BoundChecker(SPACE, expected_network_size=64, tolerance_factor=1.0),
)

lists = st.sampled_from(("successor_list", "predecessor_list"))
mutations = st.one_of(
    st.tuples(st.just("set"), st.integers(0, FINGERS - 1), maybe_ids),
    st.tuples(st.just("fill_from"), st.sets(ids, min_size=1).map(sorted)),
    st.tuples(st.just("fill_targets"), st.lists(maybe_ids, min_size=FINGERS, max_size=FINGERS)),
    st.tuples(st.just("replace_node"), ids, maybe_ids),
    st.tuples(st.just("add"), lists, ids),
    st.tuples(st.just("update"), lists, st.lists(ids, max_size=5)),
    st.tuples(st.just("remove"), lists, ids),
    st.tuples(st.just("replace_all"), lists, st.lists(ids, max_size=5)),
    st.tuples(st.just("clear"), lists),
)
steps = st.tuples(mutations, st.floats(0, 1e5, allow_nan=False), st.booleans())


def _reference_add(nodes, lst, node_id):
    """The list-based insertion the tuple-based ``NeighborList.add`` replaced."""
    if node_id == OWNER or node_id in nodes:
        return False
    nodes.append(node_id)
    if lst.direction > 0:
        nodes.sort(key=lambda n: SPACE.distance(OWNER, n))
    else:
        nodes.sort(key=lambda n: SPACE.distance(n, OWNER))
    if len(nodes) > lst.capacity:
        return nodes.pop() != node_id
    return True


def _expected_payload(owner, fingers, successors, predecessors, now):
    """The routing-table wire format, written out independently of the code under test."""
    finger_text = ";".join(f"{ideal}:{node}" for ideal, node in fingers)
    return (
        f"rt|{owner}|{finger_text}|{','.join(map(str, successors))}|"
        f"{','.join(map(str, predecessors))}|{now:.3f}"
    ).encode()


def _expected_nodes(fingers, successors):
    """``all_nodes()`` as the list-based code computed it."""
    out = []
    for node in [n for _, n in fingers if n is not None] + list(successors):
        if node != OWNER and node not in out:
            out.append(node)
    return out


class TestCopyOnWriteRoutingState:
    @given(st.lists(steps, max_size=30))
    @settings(max_examples=150, deadline=None)
    def test_shared_content_matches_a_fresh_rebuild(self, script):
        node = ChordNode(OWNER, SPACE, finger_count=FINGERS, successor_count=SUCCESSORS,
                         predecessor_count=PREDECESSORS)
        reference = {"successor_list": [], "predecessor_list": []}
        for (op, *args), now, with_preds in script:
            if op in ("set", "fill_from", "fill_targets", "replace_node"):
                getattr(node.finger_table, op)(*args)
            else:
                name, *args = args
                lst, ref = getattr(node, name), reference[name]
                if op in ("add", "update"):
                    candidates = args[0] if op == "update" else [args[0]]
                    results = [_reference_add(ref, lst, c) for c in candidates]
                    got = lst.add(args[0]) if op == "add" else lst.update(args[0])
                    assert got == (results[0] if op == "add" else sum(results))
                else:
                    getattr(lst, op)(*args)
                    if op == "remove":
                        ref[:] = [n for n in ref if n != args[0]]
                    elif op == "clear":
                        ref.clear()
                    else:
                        ref.clear()
                        for candidate in args[0]:
                            _reference_add(ref, lst, candidate)
                assert lst.nodes == ref

            snap = node.snapshot(now=now, include_predecessors=with_preds)
            fresh = RoutingTableSnapshot(
                owner_id=OWNER,
                fingers=tuple((e.ideal_id, e.node_id) for e in node.finger_table.entries),
                successors=tuple(node.successor_list.nodes),
                predecessors=tuple(node.predecessor_list.nodes) if with_preds else (),
                timestamp=now,
            )
            assert snap.trusted_content() is not None and fresh.trusted_content() is None
            assert snap.payload() == fresh.payload() == _expected_payload(
                OWNER, fresh.fingers, fresh.successors, fresh.predecessors, now
            )
            expected_nodes = _expected_nodes(fresh.fingers, fresh.successors)
            assert snap.all_nodes() == fresh.all_nodes() == tuple(expected_nodes)
            assert node.routing_nodes() == expected_nodes
            assert snap.signature.to_bytes() == node.keypair.sign(fresh.payload()).to_bytes()
            for checker in CHECKERS:
                assert checker.check(snap) == checker.check(fresh) == checker.check(snap)

            signed = node.signed_successor_list(now=now)
            assert signed.nodes == tuple(node.successor_list.nodes)
            expected = f"succlist|{OWNER}|{','.join(map(str, signed.nodes))}|{now:.3f}".encode()
            assert signed.payload() == expected
            assert signed.signature.to_bytes() == node.keypair.sign(expected).to_bytes()

    def test_unchanged_table_shares_one_content(self):
        node = ChordNode(OWNER, SPACE, finger_count=FINGERS)
        node.finger_table.fill_from(sorted(POOL))
        node.successor_list.update(POOL)
        first, second = node.snapshot(now=1.0), node.snapshot(now=2.0)
        assert first.content is second.content and first.fingers is second.fingers
        # no-op mutations keep every tuple as it is
        node.finger_table.fill_from(sorted(POOL))
        node.finger_table.set(0, node.finger_table.get(0))
        assert not node.successor_list.add(OWNER)
        assert not node.successor_list.add(node.successor_list.first())
        assert not node.successor_list.add(POOL[POOL.index(OWNER) - 1])  # past a full list's last entry
        assert node.snapshot(now=3.0).content is first.content
        node.finger_table.set(0, None)
        assert node.snapshot(now=4.0).content is not first.content


class TestContentDoesNotLeak:
    """A table derived from an honest snapshot never inherits its cached verdict or payload."""

    def _honest(self):
        ring_ids = sorted(range(100, SPACE.size, SPACE.size // 64))
        node = ChordNode(ring_ids[10], SPACE, finger_count=8)
        node.finger_table.fill_from(ring_ids)
        node.successor_list.update(ring_ids)
        checker = BoundChecker(SPACE, expected_network_size=64)
        snap = node.snapshot(now=7.0)
        assert checker.check(snap).passed
        assert snap.content.verdicts  # the verdict is memoized
        far = (snap.fingers[-1][0] + SPACE.size // 3) % SPACE.size
        manipulated = snap.fingers[:-1] + ((snap.fingers[-1][0], far),)
        return node, checker, snap, manipulated

    def _assert_rejected(self, node, checker, honest, derived):
        assert derived.trusted_content() is None
        assert not checker.check(derived).passed
        assert derived.payload() == _expected_payload(
            derived.owner_id, derived.fingers, derived.successors, derived.predecessors, derived.timestamp
        )
        assert derived.payload() != honest.payload()
        assert not verify(node.keypair.public_key, derived.payload(), honest.signature)

    def test_dataclasses_replace(self):
        node, checker, snap, manipulated = self._honest()
        derived = dataclasses.replace(snap, fingers=manipulated)
        assert derived.content is snap.content  # carried along, but not trusted
        self._assert_rejected(node, checker, snap, derived)

    def test_built_by_hand_with_the_honest_content(self):
        node, checker, snap, manipulated = self._honest()
        derived = RoutingTableSnapshot(
            snap.owner_id, manipulated, snap.successors, snap.predecessors,
            snap.timestamp, snap.signature, snap.content,
        )
        self._assert_rejected(node, checker, snap, derived)

    def test_equal_but_not_identical_tuples_are_rechecked(self):
        node, checker, snap, _ = self._honest()
        copy = dataclasses.replace(snap, fingers=tuple(list(snap.fingers)))
        assert copy.trusted_content() is None
        assert checker.check(copy).passed and copy.payload() == snap.payload()
        moved = dataclasses.replace(snap, owner_id=snap.owner_id + 1)
        assert moved.trusted_content() is None and moved.payload() != snap.payload()

    def test_attack_tables_carry_no_content(self, small_ring):
        adversary = Adversary(small_ring, RandomSource(1), attack_rate=1.0)
        adversary.install_behavior(lambda adv, node: FingertableManipulationBehavior(adv, node))
        node = small_ring.node(sorted(small_ring.malicious_ids)[0])
        table = node.respond_routing_table(None, purpose="random-walk", now=3.0)
        assert table.fingers != node.snapshot(now=3.0).fingers
        assert table.trusted_content() is None
        assert verify(node.keypair.public_key, table.payload(), table.signature)

    #: ``(bound_check_failures, signature_failures, restarts, successes)`` and a
    #: digest of every walk's hops and table payloads, as recorded before
    #: routing state became copy-on-write
    RECORDED = {
        "lookup-bias": ((0, 0, 4, 29), "a9d4abef8da6c926"),
        "fingertable-manipulation": ((39, 0, 45, 22), "400fc6343e797fa2"),
    }
    FACTORIES = {
        "lookup-bias": lambda adv, node: LookupBiasBehavior(adv, node, attack_stabilization=True),
        "fingertable-manipulation": lambda adv, node: FingertableManipulationBehavior(
            adv, node, fingers_to_manipulate=6
        ),
    }

    @pytest.mark.parametrize("attack", sorted(RECORDED))
    def test_walk_failure_counters_unchanged(self, attack):
        network = OctopusNetwork.create(
            n_nodes=80, fraction_malicious=0.2, seed=5,
            config=OctopusConfig(expected_network_size=80), id_bits=24,
        )
        ring = network.ring
        Adversary(ring, RandomSource(1), attack_rate=1.0).install_behavior(self.FACTORIES[attack])
        walker = RandomWalkProtocol(ring, network.config, RandomSource(77))
        stabilizer = Stabilizer(ring)
        honest = ring.honest_ids()
        totals = [0, 0, 0, 0]
        digest = hashlib.sha256()
        for step in range(30):
            now = 2.0 * step
            if step % 10 == 5:
                ring.mark_dead(honest[step])
            stabilizer.run_global_round(now=now)
            walk = walker.perform(honest[(7 * step) % len(honest)], now=now)
            totals[0] += walk.bound_check_failures
            totals[1] += walk.signature_failures
            totals[2] += walk.restarts
            totals[3] += walk.succeeded
            digest.update(repr((walk.hops, [t.payload() for t in walk.tables])).encode())
        assert (tuple(totals), digest.hexdigest()[:16]) == self.RECORDED[attack]

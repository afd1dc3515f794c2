"""Tests for ring construction, ground truth, stabilization and lookups."""

from __future__ import annotations

from repro.chord.lookup import iterative_lookup, oracle_query_path
from repro.chord.ring import ChordRing, RingConfig
from repro.chord.stabilization import Stabilizer
from repro.sim.rng import RandomSource


def build_ring(n=64, f=0.0, seed=1, bits=20):
    config = RingConfig(n_nodes=n, fraction_malicious=f, finger_count=10, id_bits=bits, seed=seed)
    return ChordRing.build(config=config, rng=RandomSource(seed))


class TestRingConstruction:
    def test_builds_requested_number_of_nodes(self):
        ring = build_ring(n=50)
        assert len(ring) == 50
        assert len(ring.alive_ids_sorted()) == 50

    def test_malicious_fraction(self):
        ring = build_ring(n=100, f=0.2)
        assert len(ring.malicious_ids) == 20
        assert abs(ring.fraction_malicious_alive() - 0.2) < 1e-9

    def test_ids_are_unique_and_sorted(self):
        ring = build_ring(n=80)
        ids = ring.all_ids()
        assert ids == sorted(ids)
        assert len(set(ids)) == len(ids)

    def test_initial_routing_state_is_correct(self, small_ring):
        alive = small_ring.alive_ids_sorted()
        for node in small_ring.alive_nodes():
            # First successor must be the next node clockwise.
            idx = alive.index(node.node_id)
            expected_succ = alive[(idx + 1) % len(alive)]
            assert node.successor == expected_succ
            expected_pred = alive[(idx - 1) % len(alive)]
            assert node.predecessor == expected_pred

    def test_initial_fingers_point_to_true_successors(self, small_ring):
        for node in small_ring.alive_nodes():
            for entry in node.finger_table.entries:
                assert entry.node_id == small_ring.true_successor(entry.ideal_id)

    def test_certificates_issued_when_ca_provided(self):
        from repro.crypto.ca import CertificateAuthority

        ca = CertificateAuthority(seed=0)
        config = RingConfig(n_nodes=20, id_bits=20, seed=2)
        ring = ChordRing.build(config=config, rng=RandomSource(2), ca=ca)
        for node in ring.alive_nodes():
            assert node.certificate is not None
            assert node.certificate.verify(ca.public_key)


class TestGroundTruth:
    def test_true_successor_owns_key(self):
        ring = build_ring(n=64)
        alive = ring.alive_ids_sorted()
        key = (alive[10] + 1) % ring.space.size
        assert ring.true_successor(key) == alive[11]

    def test_true_successor_exact_id(self):
        ring = build_ring(n=64)
        nid = ring.alive_ids_sorted()[5]
        assert ring.true_successor(nid) == nid

    def test_true_successor_wraps(self):
        ring = build_ring(n=64)
        highest = ring.alive_ids_sorted()[-1]
        lowest = ring.alive_ids_sorted()[0]
        assert ring.true_successor(highest + 1) == lowest

    def test_dead_nodes_not_owners(self):
        ring = build_ring(n=64)
        victim = ring.alive_ids_sorted()[10]
        ring.mark_dead(victim)
        assert ring.true_successor(victim) != victim

    def test_remove_permanently(self):
        ring = build_ring(n=64, f=0.2)
        malicious = next(iter(ring.malicious_ids))
        ring.remove_permanently(malicious)
        assert not ring.node(malicious).alive
        assert malicious in ring.removed_ids
        assert ring.remaining_malicious_fraction() < 0.2


class TestIterativeLookup:
    def test_lookup_finds_correct_owner(self, honest_ring):
        rng = RandomSource(3)
        stream = rng.stream("keys")
        correct = 0
        for _ in range(50):
            initiator = honest_ring.random_alive_id(stream)
            key = honest_ring.random_key(stream)
            result = iterative_lookup(honest_ring, initiator, key)
            assert result.succeeded
            if result.correct:
                correct += 1
        assert correct == 50

    def test_lookup_path_approaches_key(self, honest_ring):
        rng = RandomSource(4).stream("k")
        initiator = honest_ring.random_alive_id(rng)
        key = honest_ring.random_key(rng)
        result = iterative_lookup(honest_ring, initiator, key)
        space = honest_ring.space
        distances = [space.distance(hop, key) for hop in result.path]
        assert distances == sorted(distances, reverse=True)

    def test_lookup_key_owned_by_own_successor(self, honest_ring):
        initiator = honest_ring.alive_ids_sorted()[0]
        node = honest_ring.node(initiator)
        key = (initiator + 1) % honest_ring.space.size
        if honest_ring.true_successor(key) == node.successor:
            result = iterative_lookup(honest_ring, initiator, key)
            assert result.correct

    def test_lookup_hops_logarithmic(self, honest_ring):
        rng = RandomSource(5).stream("k")
        hops = []
        for _ in range(30):
            initiator = honest_ring.random_alive_id(rng)
            key = honest_ring.random_key(rng)
            hops.append(iterative_lookup(honest_ring, initiator, key).hops)
        assert max(hops) <= 2 * honest_ring.space.bits
        assert sum(hops) / len(hops) <= 12

    def test_on_query_callback_invoked(self, honest_ring):
        rng = RandomSource(6).stream("k")
        initiator = honest_ring.random_alive_id(rng)
        key = honest_ring.random_key(rng)
        seen = []
        iterative_lookup(honest_ring, initiator, key, on_query=lambda nid, table: seen.append(nid))
        assert len(seen) >= 1

    def test_malicious_queried_tracked(self, small_ring):
        rng = RandomSource(7).stream("k")
        found_some = False
        for _ in range(20):
            initiator = small_ring.random_alive_id(rng)
            key = small_ring.random_key(rng)
            result = iterative_lookup(small_ring, initiator, key)
            if result.malicious_queried:
                found_some = True
                assert all(small_ring.is_malicious(n) for n in result.malicious_queried)
        assert found_some

    def test_oracle_path_density_increases_near_target(self, honest_ring):
        rng = RandomSource(8).stream("k")
        space = honest_ring.space
        for _ in range(10):
            initiator = honest_ring.random_alive_id(rng)
            key = honest_ring.random_key(rng)
            path = oracle_query_path(honest_ring, initiator, key)
            if len(path) >= 3:
                d = [space.distance(p, key) for p in path]
                assert d == sorted(d, reverse=True)


class TestStabilization:
    def test_heals_successor_after_churn(self, honest_ring):
        stabilizer = Stabilizer(honest_ring)
        alive = honest_ring.alive_ids_sorted()
        victim = alive[5]
        prev_node = honest_ring.node(alive[4])
        honest_ring.mark_dead(victim)
        # Run a few global rounds; the predecessor should route around the hole.
        for _ in range(3):
            stabilizer.run_global_round()
        assert prev_node.successor == alive[6]
        assert victim not in prev_node.successor_list.nodes

    def test_rejoined_node_reintegrated(self, honest_ring):
        stabilizer = Stabilizer(honest_ring)
        alive = honest_ring.alive_ids_sorted()
        victim = alive[10]
        honest_ring.mark_dead(victim)
        for _ in range(3):
            stabilizer.run_global_round()
        honest_ring.mark_alive(victim)
        for _ in range(4):
            stabilizer.run_global_round()
        prev_node = honest_ring.node(alive[9])
        assert victim in prev_node.successor_list.nodes

    def test_predecessor_lists_maintained(self, honest_ring):
        stabilizer = Stabilizer(honest_ring)
        for _ in range(2):
            stabilizer.run_global_round()
        alive = honest_ring.alive_ids_sorted()
        for idx, nid in enumerate(alive):
            node = honest_ring.node(nid)
            expected_pred = alive[(idx - 1) % len(alive)]
            assert node.predecessor == expected_pred

    def test_stores_successor_proofs(self, honest_ring):
        stabilizer = Stabilizer(honest_ring)
        stabilizer.run_global_round(now=1.0)
        node = honest_ring.alive_nodes()[0]
        assert len(node.successor_list_proofs) >= 1
        proof = node.successor_list_proofs[-1]
        assert proof.owner_id == node.successor

    def test_proof_queue_bounded(self, honest_ring):
        stabilizer = Stabilizer(honest_ring)
        node = honest_ring.alive_nodes()[0]
        for i in range(12):
            stabilizer.stabilize_successors(node, now=float(i))
        assert len(node.successor_list_proofs) <= node.proof_capacity

    def test_dead_entries_pruned(self, honest_ring):
        stabilizer = Stabilizer(honest_ring)
        node = honest_ring.alive_nodes()[0]
        dead = node.successor_list.nodes[-1]
        honest_ring.mark_dead(dead)
        stabilizer.stabilize_successors(node)
        assert dead not in node.successor_list.nodes

    def test_invariant_each_node_in_predecessors_successor_list(self, honest_ring):
        """The Octopus invariant behind secret neighbor surveillance."""
        stabilizer = Stabilizer(honest_ring)
        for _ in range(3):
            stabilizer.run_global_round()
        for node in honest_ring.alive_nodes():
            for pred_id in node.predecessor_list.nodes:
                pred = honest_ring.node(pred_id)
                assert node.node_id in pred.successor_list.nodes

"""Regression: revoked (permanently removed) nodes must not rejoin via churn.

Before the mid-run control plane landed, ``ChordRing.mark_alive`` happily
resurrected a node the CA had revoked and the ring had permanently removed:
a churn rejoin scheduled *before* the revocation would fire after it and put
the node back online with full standing — silently voiding the revocation.
The ``join-leave-cycling`` attacker strategy leans exactly on that window,
so the ring now refuses rebirth for ``removed_ids``.  Each case runs on the
runtime kernel (``array``) and on the brute-force oracle (``object``).
"""

from __future__ import annotations

import pytest

from repro.chord.ring import ChordRing, RingConfig
from repro.sim.churn import ChurnConfig, ChurnProcess
from repro.sim.engine import SimulationEngine
from repro.sim.rng import RandomSource

from oracle import use_oracle


@pytest.fixture(params=["object", "array"])
def ring(request, monkeypatch) -> ChordRing:
    if request.param == "object":
        use_oracle(monkeypatch)
    config = RingConfig(n_nodes=40, fraction_malicious=0.25, id_bits=16, seed=11)
    return ChordRing.build(config=config, rng=RandomSource(11))


def test_mark_alive_refuses_removed_nodes(ring):
    victim = sorted(ring.malicious_ids)[0]
    ring.remove_permanently(victim)
    assert not ring.node(victim).alive
    ring.mark_alive(victim)
    assert not ring.node(victim).alive
    assert victim not in ring.alive_ids_sorted()


def test_set_malicious_refuses_removed_nodes(ring):
    honest = ring.honest_ids(alive_only=True)[0]
    ring.remove_permanently(honest)
    assert ring.set_malicious(honest, True) is False
    assert honest not in ring.malicious_ids
    # And unknown ids are a quiet no-op, not a crash.
    assert ring.set_malicious(-1, True) is False


def test_churn_rejoin_after_revocation_stays_dead(ring):
    """The load-bearing interleaving: depart -> revoke+remove -> rejoin fires."""
    engine = SimulationEngine()
    churn = ChurnProcess(
        engine,
        ChurnConfig(mean_lifetime_seconds=1e9),  # no organic churn
        RandomSource(1),
        on_leave=ring.mark_dead,
        on_join=ring.mark_alive,
    )
    victim = sorted(ring.malicious_ids)[0]
    churn.set_online(victim, True)
    churn.force_depart(victim)
    churn.schedule_rejoin(victim, delay=10.0)
    # The revocation lands while the node is offline, rejoin already queued.
    ring.remove_permanently(victim)
    engine.run(until=20.0)

    # Churn bookkeeping recorded the attempt, but the ring refused rebirth.
    assert churn.log.rejoins_of(victim) == 1
    assert not ring.node(victim).alive
    assert victim not in ring.alive_ids_sorted()
    assert victim in ring.removed_ids
    # Removal is permanent for allegiance flips too.
    assert ring.set_malicious(victim, False) is False


def test_non_removed_rejoin_still_works(ring):
    """The guard must not break ordinary churn rebirth."""
    engine = SimulationEngine()
    churn = ChurnProcess(
        engine,
        ChurnConfig(mean_lifetime_seconds=1e9),
        RandomSource(1),
        on_leave=ring.mark_dead,
        on_join=ring.mark_alive,
    )
    node = ring.honest_ids(alive_only=True)[0]
    churn.set_online(node, True)
    churn.force_depart(node)
    assert not ring.node(node).alive
    churn.schedule_rejoin(node, delay=5.0)
    engine.run(until=10.0)
    assert ring.node(node).alive
    assert node in ring.alive_ids_sorted()

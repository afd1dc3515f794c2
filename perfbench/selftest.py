"""Tests of the benchmark itself, at sizes that run in seconds.

Run from the repository root with ``python -m pytest perfbench/selftest.py -q``.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import threading
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
from spans import Target, Tracer, inside, self_times  # noqa: E402
from speed import Speedometer  # noqa: E402
from workloads import (  # noqa: E402
    END_TO_END,
    PER_LAYER,
    CampaignWorkload,
    EfficiencyWorkload,
    LoadWorkload,
    SecurityWorkload,
    end_to_end,
    layer_metrics,
    percentile,
)

TINY = [
    SecurityWorkload(n_nodes=60, duration=6.0),
    LoadWorkload(n_nodes=60, offered_rps=20.0, duration=3.0),
    EfficiencyWorkload(n_nodes=200, lookups_per_scheme=3),
    CampaignWorkload(seeds_per_unit=3, n_nodes=12, duration=1.0),
]


@pytest.fixture(scope="module", autouse=True)
def scratch_dir():
    run.make_scratch(run.SCRATCH)


@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
def test_tracing_changes_no_output_and_reports_every_metric(workload):
    from repro.core.octopus_node import OctopusNetwork
    from repro.crypto import keys

    walk_module = sys.modules["repro.core.random_walk"]
    originals = (OctopusNetwork.__dict__["lookup"], keys.verify, walk_module.verify_signature)
    plain = run.measure(workload, 1, workload.probes(), Tracer())
    tracer = Tracer()
    traced = run.measure(workload, 1, run.traced_targets(workload), tracer)
    assert traced.digest == plain.digest
    assert (OctopusNetwork.__dict__["lookup"], keys.verify, walk_module.verify_signature) == originals

    assert plain.setup_s > 0 and plain.run_s > 0 and plain.ops
    assert plain.slowness > 0
    assert set(end_to_end([plain], 1.0)) == {name for name, _ in END_TO_END}
    layers, shares = layer_metrics(tracer, [traced], [plain])
    assert set(layers) == {name for name, _ in PER_LAYER}
    assert 0.5 < layers["trace.coverage"] <= 1.0 + 1e-9
    assert abs(sum(shares.values()) - 1.0) < 1e-9


def test_tiny_workloads_touch_their_layers():
    security, load, efficiency, campaign = TINY
    seen = {}
    for workload in TINY:
        tracer = Tracer()
        unit = run.measure(workload, 2, run.traced_targets(workload), tracer)
        seen[workload.name], _ = layer_metrics(tracer, [unit], [unit])
    assert seen[security.name]["core.random_walk.perform.calls"] > 0
    assert seen[security.name]["sim.engine.events"] > 0
    assert seen[load.name]["sim.latency.sample_delay.calls"] > 0
    assert seen[efficiency.name]["baselines.halo.lookup.calls"] == 3
    assert seen[campaign.name]["campaign.execute_trial.calls"] == 6
    assert seen[campaign.name]["campaign.persistence.write_partial.bytes"] > 0


def test_campaign_setup_probes_stop_at_the_first_trial_and_clean_up():
    from repro.campaign.backends import base

    campaign = TINY[3]
    queue_module = sys.modules["repro.campaign.backends.queue"]
    leftovers, threads = set(os.listdir(run.SCRATCH)), threading.active_count()
    setups = run.measure_setups(campaign, 1)
    assert len(setups) == campaign.setup_probes and all(s > 0 for s in setups)
    assert set(os.listdir(run.SCRATCH)) == leftovers
    assert threading.active_count() == threads
    assert queue_module.execute_trial is base.execute_trial
    assert end_to_end([run.measure(campaign, 1, campaign.probes(), Tracer())], 1.0, [3.0, 1.0, 2.0])["setup_s"] == 2.0


def test_reference_clock_divides_gaps_by_mean_slowness_and_skips_samples():
    speedometer = Speedometer()
    # samples over [0, 1] at slowness 1 and [3, 4] at slowness 3, then [6, 7] at 1
    speedometer.starts, speedometer.ends = [0.0, 3.0, 6.0], [1.0, 4.0, 7.0]
    speedometer.slowness, speedometer.marks = [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]
    assert [speedometer.clock(t) for t in (0.5, 1.0, 2.0, 3.5, 5.0, 9.0)] == [0.0, 0.0, 0.5, 1.0, 1.5, 2.0]
    assert speedometer.mean_slowness() == 2.0


def test_speedometer_samples_while_running_and_restores_the_alarm():
    previous = signal.getsignal(signal.SIGALRM)
    with Speedometer() as speedometer:
        started = time.perf_counter()
        while time.perf_counter() - started < 0.5:
            pass
        ended = time.perf_counter()
    assert len(speedometer.starts) >= 3
    assert speedometer.ends == sorted(speedometer.ends)
    assert 0.0 < speedometer.clock(ended) - speedometer.clock(started) < 10.0
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_self_time_subtracts_direct_children_only():
    # root 0..10 > a 1..4 > b 2..3 ; root > c 5..9
    parents = [-1, 0, 1, 0]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    assert self_times(parents, starts, ends) == [3.0, 2.0, 1.0, 4.0]
    assert sum(self_times(parents, starts, ends)) == 10.0
    assert inside(parents, [0, 1, 2, 3], 1) == [False, True, True, False]


class Layer:
    """A stand-in for a program class whose methods the tracer wraps."""

    def outer(self):
        return self.inner() + 1

    def inner(self):
        return 1

    def small(self):
        return 0


def test_tracer_records_nested_spans_counts_and_restores():
    targets = [
        Target("outer", f"{__name__}:Layer.outer"),
        Target("inner", f"{__name__}:Layer.inner", after=lambda t, _tok, _a, r: t.count("inner.sum", r)),
        Target("small", f"{__name__}:Layer.small", count_only=True),
    ]
    original = Layer.__dict__["outer"]
    tracer = Tracer().install(targets)
    try:
        layer = Layer()
        assert layer.outer() == 2 and layer.small() == 0
        other = threading.Thread(target=layer.outer)
        other.start()
        other.join(timeout=10)
        assert not other.is_alive()
    finally:
        tracer.restore()
    assert Layer.__dict__["outer"] is original
    # the second thread's calls are not recorded
    assert [(name, parent) for name, _, _, parent in tracer.spans()] == [("outer", -1), ("inner", 0)]
    assert tracer.counts == {"inner.sum": 1, "small.calls": 1}


def test_percentile_is_nearest_rank():
    samples = list(range(1, 201))
    assert percentile(samples, 50) == 100
    assert percentile(samples, 99) == 198
    assert percentile([5.0], 99) == 5.0


def test_benchmark_json_lists_the_metrics_the_runs_print():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    with open(run.DIGESTS, encoding="utf-8") as handle:
        assert sorted(json.load(handle)) == sorted(run.WORKLOADS)

"""The benchmark's workloads, the functions it traces and the metrics it derives.

Each workload runs *units*: one complete, fixed-size call into the program
(one experiment, or one campaign) on input number ``index`` of a pool of
``POOL`` inputs.  A unit's outputs are checked against the digest committed
for that input in ``digests.json``.  NOTES.md says why each workload was
chosen and which layer does most of its work.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from spans import Target, Tracer, inside, self_times

#: inputs per workload; unit ``i`` of a run uses a seed-chosen permutation of them.
POOL = 16
#: keys dropped at any depth before hashing: wall-clock, config echoes and the
#: ring-kernel knob are not part of a correct answer.
UNHASHED_KEYS = frozenset({"timing", "config", "kernel"})

Span = Tuple[str, float, float, int]


# ------------------------------------------------------------------ digests
def canonical(data: object) -> object:
    if isinstance(data, dict):
        return {k: canonical(v) for k, v in data.items() if k not in UNHASHED_KEYS}
    if isinstance(data, (list, tuple)):
        return [canonical(v) for v in data]
    return data


def digest(data: object) -> str:
    text = json.dumps(canonical(data), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------- workloads
class SimulationWorkload:
    """An experiment harness run once per unit; set-up is ``OctopusNetwork.create``."""

    name = ""
    #: set-up-only runs before each unit (see ``CampaignWorkload.probe_setup``)
    setup_probes = 0
    #: end-to-end operations: host time per call, calls per second
    op_spans: Tuple[str, ...] = ("core.octopus_node.lookup",)

    def __init__(self, **params) -> None:
        self.params = params

    def probes(self) -> List[Target]:
        """The spans the end-to-end metrics need (installed on every run)."""
        return targets_named(("core.octopus_node.create",) + self.op_spans)

    def run_unit(self, index: int, scratch: str):
        raise NotImplementedError

    def outputs(self, result) -> object:
        return result.to_dict()

    def split(self, spans: Sequence[Span], t1: float) -> Tuple[float, float, float]:
        """``(setup_s, setup_end, run_s)`` of a unit from its spans and the time it returned."""
        create = next(s for s in spans if s[0] == "core.octopus_node.create")
        return create[2] - create[1], create[2], t1 - create[2]

    def op_times(self, spans: Sequence[Span], setup_end: float) -> List[float]:
        return [end - start for name, start, end, _ in spans if name in self.op_spans]


class SecurityWorkload(SimulationWorkload):
    name = "security-1k"

    def run_unit(self, index: int, scratch: str):
        from repro.experiments.security import SecurityExperiment, SecurityExperimentConfig

        return SecurityExperiment(SecurityExperimentConfig(seed=index, **self.params)).run()


class LoadWorkload(SimulationWorkload):
    name = "load-1k"

    def run_unit(self, index: int, scratch: str):
        from repro.experiments.load import LoadConfig, LoadExperiment

        return LoadExperiment(LoadConfig(seed=index, **self.params)).run()


class EfficiencyWorkload(SimulationWorkload):
    name = "efficiency-10k"
    op_spans = ("core.anonymous_lookup.lookup", "baselines.chord_lookup.lookup", "baselines.halo.lookup")

    def run_unit(self, index: int, scratch: str):
        from repro.experiments.efficiency import EfficiencyExperiment, EfficiencyExperimentConfig

        return EfficiencyExperiment(EfficiencyExperimentConfig(seed=index, **self.params)).run()


class CampaignWorkload:
    """One queue-backend campaign per unit, drained by this process alone.

    Set-up runs from entering ``run_campaign`` to the first ``execute_trial``;
    an operation is one persisted trial, timed from the previous one.
    """

    name = "campaign-queue"
    #: a unit's set-up is a tenth of a second, too short for a few units to
    #: give a steady median, so ``setup_s`` comes from set-up-only runs
    setup_probes = 8

    def __init__(self, seeds_per_unit: int, **base) -> None:
        self.seeds_per_unit = seeds_per_unit
        self.base = base
        self.params = {"seeds_per_unit": seeds_per_unit, **base}

    def probes(self) -> List[Target]:
        return targets_named(("campaign.run_campaign", "campaign.execute_trial", "campaign.persistence.write_trial"))

    def run_unit(self, index: int, scratch: str):
        from repro import campaign

        spec = campaign.CampaignSpec(
            kind="security",
            base=dict(self.base),
            grid={"attack_rate": [1.0, 0.5]},
            seeds=tuple(range(index * self.seeds_per_unit, (index + 1) * self.seeds_per_unit)),
            name="perfbench",
        )
        out_dir = tempfile.mkdtemp(prefix="campaign-", dir=scratch)
        try:
            campaign.run_campaign(spec, out_dir, backend="queue")
        except BaseException:
            shutil.rmtree(out_dir, ignore_errors=True)
            raise
        return out_dir

    def probe_setup(self, index: int, scratch: str) -> Tuple[float, float]:
        """``perf_counter`` readings at the start and end of input ``index``'s set-up.

        The campaign is stopped at its first trial and its directory removed.
        """
        tracer = Tracer().install(targets_named(("campaign.run_campaign",)) + [STOP_AT_TRIAL])
        try:
            self.run_unit(index, scratch)
        except SetUpDone as done:
            stopped = done.args[0]
        else:
            raise RuntimeError("the campaign ran without executing a trial")
        finally:
            tracer.restore()
        (_, started, _, _), = tracer.spans()
        return started, stopped

    def outputs(self, out_dir: str) -> object:
        try:
            with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as handle:
                summary = json.load(handle)
            trials_dir = os.path.join(out_dir, "trials")
            trials = []
            for file_name in sorted(os.listdir(trials_dir)):
                with open(os.path.join(trials_dir, file_name), encoding="utf-8") as handle:
                    trials.append(json.load(handle))
            return {"summary": summary, "trials": trials}
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)

    def split(self, spans: Sequence[Span], t1: float) -> Tuple[float, float, float]:
        run = next(s for s in spans if s[0] == "campaign.run_campaign")
        first = next(s for s in spans if s[0] == "campaign.execute_trial")
        return first[1] - run[1], first[1], run[2] - first[1]

    def op_times(self, spans: Sequence[Span], setup_end: float) -> List[float]:
        done = sorted(end for name, _, end, _ in spans if name == "campaign.persistence.write_trial")
        return [b - a for a, b in zip([setup_end] + done, done)]


#: Unit sizes.  Changing one changes every digest: re-record them
#: (``run.py --record-digests``) in a change of its own.
WORKLOADS = {
    w.name: w
    for w in (
        SecurityWorkload(duration=20.0),
        LoadWorkload(n_nodes=1000, offered_rps=100.0, duration=5.0),
        EfficiencyWorkload(n_nodes=10000, lookups_per_scheme=30),
        CampaignWorkload(seeds_per_unit=300, n_nodes=12, duration=1.0),
    )
}


class SetUpDone(BaseException):
    """Stops a set-up probe at its first trial; ``run_campaign`` wraps only ``Exception``."""


def _stop_at_trial(_args) -> None:
    raise SetUpDone(time.perf_counter())


#: replaces ``execute_trial`` where the backends look it up, for set-up probes
STOP_AT_TRIAL = Target("campaign.execute_trial", "repro.campaign.backends.base:execute_trial", before=_stop_at_trial)


# ------------------------------------------------------------ traced layers
def _walk_done(tracer: Tracer, _token, _args, walk) -> None:
    tracer.count("core.random_walk.attempts", walk.restarts + (1 if walk.succeeded else 0))
    tracer.count("core.random_walk.successes", 1 if walk.succeeded else 0)
    tracer.count("core.random_walk.bound_check_failures", walk.bound_check_failures)
    tracer.count("core.random_walk.signature_failures", walk.signature_failures)


def _stabilization_state(args) -> Tuple[int, int]:
    stats = args[0].stats
    return stats.entries_learned, stats.dead_entries_pruned


def _stabilization_done(tracer: Tracer, before, args, _result) -> None:
    tracer.count("chord.stabilization.changed_rounds", 1 if _stabilization_state(args) != before else 0)


def _counter(key: str, of):
    def after(tracer: Tracer, _token, _args, result) -> None:
        tracer.count(key, of(result))

    return after


def _partial_written(tracer: Tracer, _token, args, _result) -> None:
    store, worker_id = args[0], args[1]
    tracer.count("campaign.persistence.write_partial.bytes", os.path.getsize(store.partial_path(worker_id)))


_REPORTED = _counter("core.surveillance.reported", lambda outcome: 1 if outcome.reported else 0)
_CONVICTED = _counter("core.attacker_identification.convictions", lambda j: 0 if j.identified is None else 1)

#: Spans that delimit a unit and its operations; they are not a layer.
PROBE_TARGETS = [
    Target("core.octopus_node.create", "repro.core.octopus_node:OctopusNetwork.create"),
    Target("core.octopus_node.lookup", "repro.core.octopus_node:OctopusNetwork.lookup"),
    Target("campaign.run_campaign", "repro.campaign.runner:run_campaign"),
]

LAYER_TARGETS = [
    # protocol hot path
    Target("core.random_walk.perform", "repro.core.random_walk:RandomWalkProtocol.perform", after=_walk_done),
    Target("chord.node.snapshot", "repro.chord.node:ChordNode.snapshot"),
    Target("chord.node.signed_successor_list", "repro.chord.node:ChordNode.signed_successor_list"),
    Target("crypto.keys.sign", "repro.crypto.keys:KeyPair.sign"),
    Target("crypto.keys.verify", "repro.crypto.keys:verify"),
    Target(
        "chord.routing_table.check",
        "repro.chord.routing_table:BoundChecker.check",
        after=_counter("chord.routing_table.check.rejects", lambda check: 0 if check.passed else 1),
    ),
    *[
        Target(f"chord.routing_table.{m}", f"repro.chord.routing_table:RoutingTableSnapshot.{m}", count_only=True)
        for m in ("all_nodes", "payload")
    ],
    # maintenance
    Target(
        "chord.stabilization.run_round",
        "repro.chord.stabilization:Stabilizer.run_round",
        before=_stabilization_state,
        after=_stabilization_done,
    ),
    *[
        Target(f"core.surveillance.{kind}_check", f"repro.core.surveillance:Secret{cls}Surveillance.check", after=_REPORTED)
        for kind, cls in (("neighbor", "Neighbor"), ("finger", "Finger"))
    ],
    Target(
        "core.secure_update.update_random_finger",
        "repro.core.secure_update:SecureFingerUpdate.update_random_finger",
    ),
    *[
        Target(
            "core.attacker_identification.report",
            f"repro.core.attacker_identification:AttackerIdentificationService.process_{kind}_report",
            after=_CONVICTED,
        )
        for kind in ("neighbor", "finger", "drop")
    ],
    # lookup path
    *[
        Target(f"core.anonymous_lookup.{m}", f"repro.core.anonymous_lookup:AnonymousLookupProtocol.{m}")
        for m in ("lookup", "select_relay_pairs")
    ],
    Target(
        "core.anonymous_path.send_query",
        "repro.core.anonymous_path:AnonymousPath.send_query",
        after=_counter("core.anonymous_path.send_query.dropped", lambda query: 1 if query.dropped else 0),
    ),
    Target("sim.latency.sample_delay", "repro.sim.latency:LatencyModel.sample_delay"),
    # ring membership and baselines
    *[
        Target(f"chord.ring.{m}", f"repro.chord.ring:ChordRing.{m}")
        for m in ("build", "true_successor", "alive_ids_sorted", "random_alive_id", "honest_ids")
    ],
    Target("chord.ring.churn", "repro.chord.ring:ChordRing.mark_dead"),
    Target("chord.ring.churn", "repro.chord.ring:ChordRing.mark_alive"),
    Target("baselines.halo.lookup", "repro.baselines.halo:HaloLookupProtocol.lookup"),
    Target("baselines.chord_lookup.lookup", "repro.baselines.chord_lookup:ChordLookupProtocol.lookup"),
    # engine
    Target("sim.engine", "repro.sim.engine:SimulationEngine.run", after=_counter("sim.engine.events", int)),
    # campaign
    Target("campaign.execute_trial", "repro.campaign.backends.base:execute_trial"),
    *[
        Target(f"campaign.persistence.{m}", f"repro.campaign.persistence:CampaignStore.{m}")
        for m in ("list_pending", "claim_job", "write_trial", "complete_job")
    ],
    Target(
        "campaign.persistence.write_partial",
        "repro.campaign.persistence:CampaignStore.write_partial",
        after=_partial_written,
    ),
    Target("campaign.finalize", "repro.campaign.streaming:merge_partial_summaries"),
    Target("campaign.finalize", "repro.campaign.streaming:CampaignAccumulator.finalize"),
    Target("campaign.finalize", "repro.campaign.persistence:CampaignStore.write_summary"),
]

def targets_named(names: Sequence[str]) -> List[Target]:
    return [t for t in PROBE_TARGETS + LAYER_TARGETS if t.name in names]


#: Self-time groups printed with a traced run, keyed by span-name prefix.
GROUPS = {
    "protocol hot path": ("core.random_walk.", "chord.node.", "crypto.keys.", "chord.routing_table."),
    "maintenance": (
        "chord.stabilization.",
        "core.surveillance.",
        "core.secure_update.",
        "core.attacker_identification.",
    ),
    "lookup path": ("core.anonymous_lookup.", "core.anonymous_path.", "sim.latency."),
    "ring": ("chord.ring.",),
    "baselines": ("baselines.",),
    "engine": ("sim.engine",),
    "campaign": ("campaign.",),
}

_TIMED = {
    # span name -> the statistics reported for it
    "core.random_walk.perform": ("calls", "total_s", "self_s"),
    "chord.node.snapshot": ("calls", "self_s"),
    "chord.node.signed_successor_list": ("calls", "self_s"),
    "crypto.keys.sign": ("calls", "self_s"),
    "crypto.keys.verify": ("calls", "self_s"),
    "chord.routing_table.check": ("calls", "self_s"),
    "chord.stabilization.run_round": ("calls", "self_s"),
    "core.surveillance.neighbor_check": ("calls", "self_s"),
    "core.surveillance.finger_check": ("calls", "self_s"),
    "core.secure_update.update_random_finger": ("calls", "self_s"),
    "core.attacker_identification.report": ("calls", "self_s"),
    "core.anonymous_lookup.lookup": ("calls", "self_s"),
    "core.anonymous_lookup.select_relay_pairs": ("calls", "total_s"),
    "core.anonymous_path.send_query": ("calls", "self_s"),
    "sim.latency.sample_delay": ("calls", "self_s"),
    "chord.ring.build": ("total_s",),
    "chord.ring.true_successor": ("calls", "self_s"),
    "chord.ring.alive_ids_sorted": ("calls", "self_s"),
    "chord.ring.random_alive_id": ("calls", "self_s"),
    "chord.ring.honest_ids": ("calls", "self_s"),
    "chord.ring.churn": ("calls", "self_s"),
    "baselines.halo.lookup": ("calls", "self_s"),
    "baselines.chord_lookup.lookup": ("calls", "self_s"),
    "sim.engine": ("self_s",),
    "campaign.execute_trial": ("calls", "total_s"),
    "campaign.persistence.list_pending": ("calls", "self_s"),
    "campaign.persistence.claim_job": ("calls", "self_s"),
    "campaign.persistence.write_trial": ("calls", "self_s"),
    "campaign.persistence.complete_job": ("calls", "self_s"),
    "campaign.persistence.write_partial": ("calls", "self_s"),
    "campaign.finalize": ("total_s",),
}

#: Counters reported as per-unit means.
_COUNTED = (
    "core.random_walk.attempts",
    "core.random_walk.bound_check_failures",
    "core.random_walk.signature_failures",
    "chord.routing_table.check.rejects",
    "chord.routing_table.all_nodes.calls",
    "chord.routing_table.payload.calls",
    "core.surveillance.reported",
    "core.attacker_identification.convictions",
    "core.anonymous_path.send_query.dropped",
    "sim.engine.events",
    "campaign.persistence.write_partial.bytes",
)

_RATIOS = (
    "core.random_walk.success_ratio",
    "chord.stabilization.changed_ratio",
    "core.anonymous_lookup.walks_per_lookup",
    "campaign.overhead_ratio",
    "trace.overhead_ratio",
    "trace.coverage",
)


def _unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(".bytes"):
        return "B"
    if metric in _RATIOS:
        return "ratio"
    return "count"


#: ``(name, unit)`` of every per-layer metric, in the order BENCHMARK.json lists them.
PER_LAYER: List[Tuple[str, str]] = [
    (m, _unit_of(m))
    for m in sorted(
        [f"{name}.{stat}" for name, stats in _TIMED.items() for stat in stats]
        + list(_COUNTED)
        + list(_RATIOS)
    )
]


@dataclass
class Unit:
    """One measured unit; its times and its spans' are on the reference-speed clock.

    ``slowness`` is how slow the host ran during the unit: wall-clock time
    over reference-speed time (see ``speed.py``).
    """

    first: int
    end: int
    setup_s: float
    setup_end: float
    run_s: float
    ops: List[float]
    digest: str
    slowness: float


def layer_metrics(
    tracer: Tracer, traced: Sequence[Unit], plain: Sequence[Unit]
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Per-layer metrics of the traced units and each group's self-time share.

    Times and counts are means per unit; ratios are over all units.
    """
    names = tracer.names
    own = self_times(tracer.parent, tracer.start, tracer.end)
    lookup_id = names.index("core.anonymous_lookup.lookup") if "core.anonymous_lookup.lookup" in names else -2
    in_lookup = inside(tracer.parent, tracer.name, lookup_id)
    layer_names = {t.name for t in LAYER_TARGETS}
    stats: Dict[str, List[float]] = {}
    covered = 0.0
    walks_in_lookups = 0
    for unit in traced:
        for i in range(unit.first, unit.end):
            name = names[tracer.name[i]]
            entry = stats.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += tracer.end[i] - tracer.start[i]
            entry[2] += own[i]
            if name in layer_names and tracer.start[i] >= unit.setup_end:
                covered += own[i]
            if name == "core.random_walk.perform" and in_lookup[i]:
                walks_in_lookups += 1

    n = len(traced)
    traced_run_s = [u.run_s for u in traced]
    counts = tracer.counts
    metrics: Dict[str, float] = {}
    for name, wanted in _TIMED.items():
        calls, total, self_s = stats.get(name, (0, 0.0, 0.0))
        values = {"calls": calls, "total_s": total, "self_s": self_s}
        for stat in wanted:
            metrics[f"{name}.{stat}"] = values[stat] / n
    for key in _COUNTED:
        metrics[key] = counts.get(key, 0) / n

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    metrics["core.random_walk.success_ratio"] = ratio(
        counts.get("core.random_walk.successes", 0), counts.get("core.random_walk.attempts", 0)
    )
    metrics["chord.stabilization.changed_ratio"] = ratio(
        counts.get("chord.stabilization.changed_rounds", 0),
        stats.get("chord.stabilization.run_round", [0])[0],
    )
    metrics["core.anonymous_lookup.walks_per_lookup"] = ratio(
        walks_in_lookups, stats.get("core.anonymous_lookup.lookup", [0])[0]
    )
    trial_s = stats.get("campaign.execute_trial", [0, 0.0])[1]
    metrics["campaign.overhead_ratio"] = 1.0 - trial_s / sum(traced_run_s) if trial_s else 0.0
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced_run_s) / statistics.median(u.run_s for u in plain) - 1.0
    )
    metrics["trace.coverage"] = ratio(covered, sum(traced_run_s))

    layer_self = {name: s[2] for name, s in stats.items() if name in layer_names}
    total_self = sum(layer_self.values())
    shares = {
        group: ratio(sum(v for k, v in layer_self.items() if k.startswith(prefixes)), total_self)
        for group, prefixes in GROUPS.items()
    }
    return metrics, shares


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 100]."""
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def end_to_end(units: Sequence[Unit], peak_rss_mb: float, setups: Sequence[float] = ()) -> Dict[str, float]:
    """``setup_s`` is the median of ``setups``, the set-up-only runs, where there are any."""
    ops = [t for u in units for t in u.ops]
    return {
        "setup_s": statistics.median(setups or [u.setup_s for u in units]),
        "run_s": statistics.median(u.run_s for u in units),
        "ops_per_s": statistics.median(len(u.ops) / u.run_s for u in units),
        "op_p50_ms": 1000.0 * percentile(ops, 50),
        "peak_rss_mb": peak_rss_mb,
    }


END_TO_END: List[Tuple[str, str]] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
]


def expected_digests(path: str) -> Dict[str, Dict[str, object]]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def check_params(recorded: Optional[Dict[str, object]], workload) -> bool:
    return recorded is not None and recorded.get("params") == json.loads(json.dumps(workload.params))

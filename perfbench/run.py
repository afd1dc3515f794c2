"""End-to-end and per-layer benchmark of the Octopus reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload security-1k --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20 --trace 1
    python3 perfbench/run.py --workload load-1k --record-digests

A run repeats units of one workload (see ``workloads.py``) until ``--seconds``
have passed, on inputs chosen from ``--seed``, and checks each unit's output
digest.  ``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs
every unit twice, untraced and then traced, and reports the per-layer
metrics of the traced copies; it also writes their spans to
``.perfbench/spans-<workload>-seed<seed>.tsv.gz``.  Every time is on a
reference-speed clock that leaves out how fast the shared host happened to
run (``speed.py``).  ``--workload all`` runs each workload in a process of
its own, one after another.  The last line of standard output is one JSON
object: ``correct``, ``attempted`` and ``failed`` units, and ``metrics``.
"""

from __future__ import annotations

import argparse
import fcntl
import gc
import importlib
import json
import os
import platform
import random
import resource
import struct
import subprocess
import sys
import time
import traceback
from typing import Dict, List

from spans import Tracer
from speed import Speedometer
from workloads import (
    END_TO_END,
    LAYER_TARGETS,
    PER_LAYER,
    POOL,
    WORKLOADS,
    Unit,
    check_params,
    digest,
    end_to_end,
    expected_digests,
    layer_metrics,
    percentile,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".perfbench")
DIGESTS = os.path.join(HERE, "digests.json")
#: the program modules the workloads call into, imported before timing
PROGRAM_MODULES = (
    "repro.experiments.security",
    "repro.experiments.load",
    "repro.experiments.efficiency",
    "repro.campaign",
)


#: ``FS_IOC_GETFLAGS``, ``FS_IOC_SETFLAGS`` and ``FS_TOPDIR_FL`` from linux/fs.h
_GETFLAGS, _SETFLAGS, _TOPDIR = 0x80086601, 0x40086602, 0x00020000


def make_scratch(path: str) -> None:
    """Create ``path`` and mark it as a top of a directory hierarchy (``chattr +T``).

    On ext2/3/4 a flagged directory's subdirectories are placed like
    top-level directories, in a lightly used block group.  Each campaign unit
    then allocates its files in a group of its own.  Without the flag, every
    unit shares the inode group of ``.perfbench/``.  There, an ext4 file
    system without a journal skips inodes freed within the last one to six
    minutes on every allocation.  File creation would then slow down with the
    files the previous units and runs deleted, not with the unit's own work.
    Other file systems keep their own placement.
    """
    os.makedirs(path, exist_ok=True)
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        flags = struct.unpack("i", fcntl.ioctl(fd, _GETFLAGS, struct.pack("i", 0)))[0]
        if not flags & _TOPDIR:
            fcntl.ioctl(fd, _SETFLAGS, struct.pack("i", flags | _TOPDIR))
    except OSError:
        pass
    finally:
        os.close(fd)


def measure(workload, index: int, targets, tracer: Tracer) -> Unit:
    """Run input ``index`` once with ``targets`` traced; its spans move onto the reference-speed clock."""
    gc.collect()
    first = len(tracer)
    tracer.install(targets)
    try:
        with Speedometer() as speedometer:
            handle = workload.run_unit(index, SCRATCH)
            t1 = time.perf_counter()
    finally:
        tracer.restore()
    outputs = workload.outputs(handle)
    tracer.retime(first, speedometer.clock)
    spans = tracer.spans(first)
    setup_s, setup_end, run_s = workload.split(spans, speedometer.clock(t1))
    ops = workload.op_times(spans, setup_end)
    return Unit(first, len(tracer), setup_s, setup_end, run_s, ops, digest(outputs), speedometer.mean_slowness())


def measure_setups(workload, index: int) -> List[float]:
    """Set-up seconds, at reference speed, of ``workload.setup_probes`` set-up-only runs of input ``index``."""
    setups: List[float] = []
    for _ in range(workload.setup_probes):
        gc.collect()
        with Speedometer() as speedometer:
            started, stopped = workload.probe_setup(index, SCRATCH)
        setups.append(speedometer.clock(stopped) - speedometer.clock(started))
    return setups


def traced_targets(workload):
    return [t for t in workload.probes() if t not in LAYER_TARGETS] + LAYER_TARGETS


def run_workload(args) -> int:
    sys.path.insert(0, SRC)
    try:
        for module in PROGRAM_MODULES:
            importlib.import_module(module)
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {SRC}: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    make_scratch(SCRATCH)
    if args.record_digests:
        return record_digests(workload)

    recorded = expected_digests(DIGESTS).get(workload.name)
    if not check_params(recorded, workload):
        print(f"perfbench: {DIGESTS} has no digests for {workload.name} at these sizes", file=sys.stderr)
        return 2
    expected = recorded["digests"]

    print(f"perfbench: workload {workload.name}, seed {args.seed}, {args.seconds} s, trace {args.trace}")
    print(f"python {platform.python_version()}, nproc {len(os.sched_getaffinity(0))}")
    order = random.Random(args.seed).sample(range(POOL), POOL)
    probes, full = workload.probes(), traced_targets(workload)
    trace_tracer = Tracer()
    plain: List[Unit] = []
    traced: List[Unit] = []
    setups: List[float] = []
    attempted = failed = 0
    deadline = time.perf_counter() + args.seconds
    last = 0.0
    while attempted == 0 or time.perf_counter() + last <= deadline:
        index = order[attempted % POOL]
        attempted += 1
        started = time.perf_counter()
        try:
            setups.extend(measure_setups(workload, index))
            unit = measure(workload, index, probes, Tracer())
            ok = unit.digest == expected[index]
            if ok and args.trace:
                traced_unit = measure(workload, index, full, trace_tracer)
                ok = traced_unit.digest == unit.digest
                if ok:
                    traced.append(traced_unit)
            if ok:
                plain.append(unit)
            else:
                print(f"perfbench: input {index}: output digest differs from {DIGESTS}", file=sys.stderr)
        except Exception:
            traceback.print_exc()
            ok = False
        failed += 0 if ok else 1
        last = time.perf_counter() - started

    if not plain:
        print("perfbench: no unit produced the expected output", file=sys.stderr)
        return 1
    inputs = ",".join(str(order[i % POOL]) for i in range(attempted))
    print(f"units {attempted} (inputs {inputs}), failed {failed}")
    print("unit run_s at reference speed: " + " ".join(f"{u.run_s:.3f}" for u in plain))
    print("unit host slowness (wall-clock / reference): " + " ".join(f"{u.slowness:.2f}" for u in plain))
    if setups:
        print("set-up-only runs, setup_s: " + " ".join(f"{s:.3f}" for s in setups))
    ops = [t for u in plain for t in u.ops]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    e2e = end_to_end(plain, rss_mb, setups)
    notes = {
        "setup_s": f"median of {len(setups)} set-up-only runs" if setups else f"median of {len(plain)} units",
        "run_s": f"median of {len(plain)} units",
        "ops_per_s": f"{len(ops)} operations",
        "op_p50_ms": f"{len(ops)} samples",
    }
    for name, unit in END_TO_END:
        print(f"  {name:<12} {e2e[name]:>12.4f} {unit:<4} {notes.get(name, '')}")
    p99 = 1000.0 * percentile(ops, 99)
    print(f"  {'op_p99_ms':<12} {p99:>12.4f} ms   {len(ops)} samples, {len(ops) // 100} beyond, not gated")

    if args.trace:
        if not traced:
            print("perfbench: no traced unit completed", file=sys.stderr)
            return 1
        spans_path = os.path.join(SCRATCH, f"spans-{workload.name}-seed{args.seed}.tsv.gz")
        trace_tracer.dump(spans_path)
        layers, shares = layer_metrics(trace_tracer, traced, plain)
        print(f"traced units {len(traced)}, spans {len(trace_tracer)} -> {spans_path}")
        print("self-time share by layer group:")
        for group, share in sorted(shares.items(), key=lambda kv: -kv[1]):
            print(f"  {group:<20} {share:6.1%}")
        for name, unit in PER_LAYER:
            print(f"  {name:<48} {layers[name]:>14.6g} {unit}")
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def record_digests(workload) -> int:
    """Run every input of ``workload`` once and store its output digests."""
    digests = []
    for index in range(POOL):
        unit = measure(workload, index, workload.probes(), Tracer())
        print(f"{workload.name} input {index}: {unit.digest} ({unit.setup_s + unit.run_s:.2f} s)")
        digests.append(unit.digest)
    try:
        data = expected_digests(DIGESTS)
    except FileNotFoundError:
        data = {}
    data[workload.name] = {"params": workload.params, "digests": digests}
    with open(DIGESTS, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


def run_all(args) -> int:
    """Every workload in a fresh process, one at a time; metrics keyed ``<workload>.<metric>``."""
    correct, attempted, failed = True, 0, 0
    metrics: Dict[str, Dict[str, object]] = {}
    for name in WORKLOADS:
        command = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            print(f"perfbench: {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{metric}": value for metric, value in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="run every input once and store its digest in digests.json")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        if args.record_digests:
            sys.exit("perfbench: record digests one workload at a time")
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

"""Discrete-event simulation substrate.

This package reproduces the event-based simulator the paper built in C++
(Section 5.1): a heap-based scheduler, a King-like wide-area latency model,
churn with pluggable session-length profiles (exponential by default),
pluggable lookup workload models, message-size and bandwidth accounting, and
metric/trace collection used by every experiment harness.
"""

from .bandwidth import (
    AES_BLOCK_BYTES,
    CERTIFICATE_BYTES,
    MESSAGE_HEADER_BYTES,
    ROUTING_ITEM_BYTES,
    SIGNATURE_BYTES,
    TIMESTAMP_BYTES,
    BandwidthAccountant,
    MessageSizeModel,
)
from .churn import ChurnConfig, ChurnEventLog, ChurnProcess, ChurnProfile
from .clock import SimulationClock
from .engine import SimulationEngine
from .events import Event
from .latency import (
    KING_MEAN_RTT,
    ConstantLatencyModel,
    KingLatencyModel,
    LatencyModel,
)
from .metrics import Counter, Histogram, MetricsRegistry, TimeSeries
from .rng import RandomSource, derive_seed
from .trace import TraceLog, TraceRecord
from .workload import WorkloadModel

__all__ = [
    "AES_BLOCK_BYTES",
    "CERTIFICATE_BYTES",
    "MESSAGE_HEADER_BYTES",
    "ROUTING_ITEM_BYTES",
    "SIGNATURE_BYTES",
    "TIMESTAMP_BYTES",
    "BandwidthAccountant",
    "MessageSizeModel",
    "ChurnConfig",
    "ChurnEventLog",
    "ChurnProcess",
    "ChurnProfile",
    "SimulationClock",
    "SimulationEngine",
    "Event",
    "KING_MEAN_RTT",
    "ConstantLatencyModel",
    "KingLatencyModel",
    "LatencyModel",
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "TimeSeries",
    "RandomSource",
    "derive_seed",
    "TraceLog",
    "TraceRecord",
    "WorkloadModel",
]

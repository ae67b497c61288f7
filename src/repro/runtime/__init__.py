"""Asynchronous distributed runtime: the paper's system model, executable.

Simulates ``n`` fully connected processes with reliable FIFO exactly-once
channels under full asynchrony (adversarial delivery order) and crash
faults with incorrect inputs — deterministically, seeded, with complete
execution traces.
"""

from .faults import CrashSpec, FaultPlan, LinkFaultPlan, LinkFaultSpec
from .lockstep import run_lockstep_consensus, run_lockstep_simulation
from .messages import (
    Envelope,
    InputTuple,
    RoundMessage,
    SVInit,
    SVView,
    freeze_point,
)
from .network import Channel, ChannelError, Network
from .process import Outgoing, ProcessShell, ProtocolCore
from .scheduler import (
    AdaptiveAdversaryScheduler,
    BurstyScheduler,
    FifoFairScheduler,
    RandomScheduler,
    ReplayScheduler,
    ScheduleRecorder,
    Scheduler,
    TargetedDelayScheduler,
    default_scheduler,
)
from .simulator import SimulationError, SimulationReport, run_simulation
from .stable_vector import StableVectorEngine
from .transport import (
    LossyFabric,
    TransportBudgetError,
    TransportNetwork,
    run_transport_simulation,
)
from .tracing import ExecutionTrace, ProcessTrace

__all__ = [
    "AdaptiveAdversaryScheduler",
    "BurstyScheduler",
    "Channel",
    "ChannelError",
    "CrashSpec",
    "Envelope",
    "ExecutionTrace",
    "FaultPlan",
    "FifoFairScheduler",
    "InputTuple",
    "LinkFaultPlan",
    "LinkFaultSpec",
    "LossyFabric",
    "Network",
    "Outgoing",
    "ProcessShell",
    "ProcessTrace",
    "ProtocolCore",
    "RandomScheduler",
    "ReplayScheduler",
    "RoundMessage",
    "ScheduleRecorder",
    "SVInit",
    "SVView",
    "Scheduler",
    "SimulationError",
    "SimulationReport",
    "StableVectorEngine",
    "TargetedDelayScheduler",
    "TransportBudgetError",
    "TransportNetwork",
    "default_scheduler",
    "run_transport_simulation",
    "run_lockstep_consensus",
    "run_lockstep_simulation",
    "freeze_point",
    "run_simulation",
]

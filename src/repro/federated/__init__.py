"""``repro.federated`` — the federated model-search system (Secs. IV-V)."""

from .compensation import compensate_alpha_gradient, compensate_weight_gradients
from .executor import (
    BACKENDS,
    ExecutionBackend,
    ParticipantSpec,
    SerialBackend,
    TaskResult,
    build_backend,
)
from .fedavg import FedAvgConfig, FedAvgTrainer
from .memory import MemoryPools
from .participant import (
    GTX_1080TI,
    JETSON_TX2,
    DeviceProfile,
    LocalStepTask,
    Participant,
    ParticipantUpdate,
    run_local_step,
)
from .server import FederatedSearchServer, RoundResult, SearchServerConfig
from .validation import QuarantineTracker, UpdateValidator
from .versioning import (
    DeltaCacheMiss,
    DeltaLedger,
    ParameterVersions,
    resolve_task,
    split_delta,
)
from .synchronization import (
    DistributionDelay,
    HardSync,
    LatencyDrivenDelay,
    RoundDelays,
)

__all__ = [
    "compensate_alpha_gradient",
    "compensate_weight_gradients",
    "BACKENDS",
    "ExecutionBackend",
    "ParticipantSpec",
    "ProcessPoolBackend",
    "SerialBackend",
    "TaskResult",
    "build_backend",
    "FedAvgConfig",
    "FedAvgTrainer",
    "MemoryPools",
    "DeviceProfile",
    "GTX_1080TI",
    "JETSON_TX2",
    "LocalStepTask",
    "Participant",
    "ParticipantUpdate",
    "run_local_step",
    "FederatedSearchServer",
    "RoundResult",
    "SearchServerConfig",
    "QuarantineTracker",
    "UpdateValidator",
    "DeltaCacheMiss",
    "DeltaLedger",
    "ParameterVersions",
    "resolve_task",
    "split_delta",
    "DistributionDelay",
    "HardSync",
    "LatencyDrivenDelay",
    "RoundDelays",
]


def __getattr__(name: str):
    # Resolved on first use, like executor.ProcessPoolBackend: the class
    # lives in repro.transport, which this package must not import.
    if name == "ProcessPoolBackend":
        from .executor import ProcessPoolBackend

        return ProcessPoolBackend
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

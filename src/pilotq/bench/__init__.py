from pilotq.bench.runners import (
    RunMetrics,
    SESSION_FILE,
    cmd_circuits,
    cmd_cut,
    cmd_gradients,
    cmd_status,
    cmd_throughput,
    cmd_vqc,
    load_session,
    write_csv,
)
from pilotq.bench.vqc import (
    BATCH_GRADIENT_FN,
    VqcConfig,
    batch_gradient,
    evaluate,
    make_blobs,
    train_vqc,
)

__all__ = [
    "BATCH_GRADIENT_FN",
    "RunMetrics",
    "SESSION_FILE",
    "VqcConfig",
    "batch_gradient",
    "cmd_circuits",
    "cmd_cut",
    "cmd_gradients",
    "cmd_status",
    "cmd_throughput",
    "cmd_vqc",
    "evaluate",
    "load_session",
    "make_blobs",
    "train_vqc",
    "write_csv",
]

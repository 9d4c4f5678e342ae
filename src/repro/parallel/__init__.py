"""Sharded, multi-process trace generation (schedule-independent).

Public API::

    from repro.parallel import generate_trace, plan_shards

    trace = generate_trace(TraceConfig.periscope(scale=0.01, workers=4))

Generation is crash-resilient: pass ``run_dir=`` to checkpoint finished
shards (:class:`RunCheckpoint`) and resume interrupted runs, and set
``REPRO_TRACE_FAULTS`` to inject deterministic pipeline faults
(:func:`parse_fault_plan`) when proving the recovery paths.
"""

from repro.parallel.checkpoint import RunCheckpoint, RunDirError, read_manifest
from repro.parallel.faults import (
    PipelineFault,
    PipelineFaultError,
    parse_fault_plan,
)
from repro.parallel.generate import generate_dataset, generate_trace
from repro.parallel.merge import stream_merge_shards
from repro.parallel.sharding import AUTO_SHARDS_PER_WORKER, ShardSpec, plan_shards

__all__ = [
    "AUTO_SHARDS_PER_WORKER",
    "PipelineFault",
    "PipelineFaultError",
    "RunCheckpoint",
    "RunDirError",
    "ShardSpec",
    "generate_dataset",
    "generate_trace",
    "parse_fault_plan",
    "plan_shards",
    "read_manifest",
    "stream_merge_shards",
]

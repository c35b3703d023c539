"""Pipelined epoch execution: overlap sampling, transfer, and compute.

A serial training epoch pays ``sample + gather + train`` per batch, one
after another.  Real GNN systems (FastGL; see PAPERS.md) overlap the
three on separate CUDA streams, with the sampler running a bounded
number of batches ahead of the trainer.  This package reproduces that
schedule on the simulator's multi-queue timelines
(:meth:`repro.device.ExecutionContext.on_queue`): the epoch's simulated
time becomes the max over the queue timelines instead of their sum,
while the Python-level execution order — and therefore every sampled
edge and every trained weight — stays bit-identical to the serial path.
"""

from repro.pipeline.executor import (
    DEFAULT_PREFETCH_DEPTH,
    PIPELINE_MODELS,
    PipelinedTrainer,
    PipelinedTrainResult,
    QueueReport,
    run_pipeline_cell,
)

__all__ = [
    "DEFAULT_PREFETCH_DEPTH",
    "PIPELINE_MODELS",
    "PipelinedTrainer",
    "PipelinedTrainResult",
    "QueueReport",
    "run_pipeline_cell",
]

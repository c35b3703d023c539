"""Pipelined epoch execution: overlap sampling, transfer, and compute.

A serial training epoch pays ``sample + gather + train`` per batch, one
after another.  Real GNN systems (FastGL; see PAPERS.md) overlap the
three on separate CUDA streams, the sampler a bounded number of batches
ahead.  The trainer's one loop already schedules every batch on device
queues; this package reads the epoch as their overlap's makespan, while
every sampled edge and trained weight stays bit-identical to the serial
path.
"""

from repro.learning.trainer import DEFAULT_PREFETCH_DEPTH, QueueReport
from repro.pipeline.executor import (
    PIPELINE_MODELS,
    PipelinedTrainer,
    run_pipeline_cell,
)

__all__ = [
    "DEFAULT_PREFETCH_DEPTH",
    "PIPELINE_MODELS",
    "PipelinedTrainer",
    "QueueReport",
    "run_pipeline_cell",
]

"""Pipelined epoch execution: overlap sampling, transfer, and compute.

A serial training epoch pays ``sample + gather + train`` per batch, one
after another.  Real GNN systems (FastGL; see PAPERS.md) overlap the
three on separate CUDA streams, the sampler a bounded number of batches
ahead.  :class:`~repro.learning.Trainer`'s one loop schedules every
batch on device queues and reads the run on both clocks;
:func:`run_pipeline_cell` is the serial-vs-pipelined cell the CLI and
benchmarks report, every sampled edge and trained weight shared by the
two readings.
"""

from repro.learning.trainer import DEFAULT_PREFETCH_DEPTH, QueueReport
from repro.pipeline.executor import PIPELINE_MODELS, run_pipeline_cell

__all__ = [
    "DEFAULT_PREFETCH_DEPTH",
    "PIPELINE_MODELS",
    "QueueReport",
    "run_pipeline_cell",
]

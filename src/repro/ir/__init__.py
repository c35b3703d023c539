"""Data-flow IR: tracing, optimization passes, and interpretation."""

from repro.ir.graph import DataFlowGraph, Node
from repro.ir.interpreter import Interpreter
from repro.ir.ops import (
    IMPURE_OPS,
    MATRIX_OPS,
    OPS,
    STEP_OF_OP,
    STRUCTURE_OPS,
    OpSpec,
)
from repro.ir.trace import MatrixProxy, Meta, TensorProxy, Tracer, trace

__all__ = [
    "IMPURE_OPS",
    "MATRIX_OPS",
    "OPS",
    "STEP_OF_OP",
    "STRUCTURE_OPS",
    "DataFlowGraph",
    "Interpreter",
    "MatrixProxy",
    "Meta",
    "Node",
    "OpSpec",
    "TensorProxy",
    "Tracer",
    "trace",
]

"""IR optimization passes: cleanup, fusion, pre-processing, layout."""

from repro.ir.passes.base import (
    Pass,
    PassManager,
    PassReport,
    PassStat,
    run_measured_pass,
)
from repro.ir.passes.cleanup import (
    CommonSubexpressionElimination,
    DeadCodeElimination,
)
from repro.ir.passes.fusion import (
    EdgeMapFusion,
    EdgeMapReduceFusion,
    ExtractReduceFusion,
    ExtractSelectFusion,
)
from repro.ir.passes.layout import GreedyLayoutPass, LayoutSelectionPass
from repro.ir.passes.preprocess import PreprocessPass

__all__ = [
    "CommonSubexpressionElimination",
    "DeadCodeElimination",
    "EdgeMapFusion",
    "EdgeMapReduceFusion",
    "ExtractReduceFusion",
    "ExtractSelectFusion",
    "GreedyLayoutPass",
    "LayoutSelectionPass",
    "Pass",
    "PassManager",
    "PassReport",
    "PassStat",
    "PreprocessPass",
    "run_measured_pass",
]

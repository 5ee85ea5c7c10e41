"""Benchmark harnesses regenerating the paper's evaluation artifacts:
Table 2, the Fig. 4 check-count comparison, the Section 5.4 complexity
series, and design-choice ablations."""

from .ablation import (AblationRow, atomicity_ablation,
                       instrumentation_ablation, pruning_ablation,
                       render_ablations, run_ablations, strategy_ablation,
                       translation_ablation)
from .fig4 import Fig4Point, fig4_trace, render_fig4, run_fig4
from .harness import CONFIGURATIONS, Measurement, analyzer_stack, measure
from .reporting import format_rate, format_seconds, render_table
from .scaling import ScalingPoint, render_scaling, run_scaling, scaling_trace
from .table2 import PAPER_TABLE2, Row, render, run_row, run_table2

__all__ = [
    "AblationRow", "atomicity_ablation",
    "instrumentation_ablation", "pruning_ablation", "render_ablations",
    "run_ablations", "strategy_ablation", "translation_ablation",
    "Fig4Point", "fig4_trace", "render_fig4", "run_fig4",
    "CONFIGURATIONS", "Measurement", "analyzer_stack", "measure",
    "format_rate", "format_seconds", "render_table",
    "ScalingPoint", "render_scaling", "run_scaling", "scaling_trace",
    "PAPER_TABLE2", "Row", "render", "run_row", "run_table2",
]

"""Experiment harness: configs, workloads, the runner, the figure declarations."""

from .ablations import ABLATIONS, run_ablation
from .charts import bar_chart, figure_chart
from .config import PARAMETER_GRID, SCALES, Defaults, Scale
from .figures import FIGURES, Figure, FigureResult, run_figure, table2_dataset_info
from .reporting import figure_to_markdown, figure_to_text, rows_to_table
from .runner import MethodAggregate, MethodSpec, PointResult, Runner
from .workload import WorkloadCase, WorkloadGenerator

__all__ = [
    "ABLATIONS",
    "run_ablation",
    "bar_chart",
    "figure_chart",
    "PARAMETER_GRID",
    "SCALES",
    "Defaults",
    "Scale",
    "FIGURES",
    "Figure",
    "FigureResult",
    "run_figure",
    "table2_dataset_info",
    "figure_to_markdown",
    "figure_to_text",
    "rows_to_table",
    "MethodAggregate",
    "MethodSpec",
    "PointResult",
    "Runner",
    "WorkloadCase",
    "WorkloadGenerator",
]

"""The Section 5 experiment harness and figure regeneration."""

from .figures import (
    figure2,
    figure3,
    figure4,
    funnel_statistics,
    render_all,
    render_figure2,
    render_figure3,
    render_figure4,
    section5_statistics,
)
from .harness import (
    ALL_CONFIGURATIONS,
    Configuration,
    ExperimentConfig,
    ExperimentHarness,
    ExperimentResult,
    MeasurementPoint,
)
from .reporting import render_table

__all__ = [
    "ALL_CONFIGURATIONS",
    "Configuration",
    "ExperimentConfig",
    "ExperimentHarness",
    "ExperimentResult",
    "MeasurementPoint",
    "figure2",
    "figure3",
    "figure4",
    "funnel_statistics",
    "render_all",
    "render_figure2",
    "render_figure3",
    "render_figure4",
    "render_table",
    "section5_statistics",
]

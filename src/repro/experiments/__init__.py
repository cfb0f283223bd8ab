"""The section 5 experiment harness: methods, figure configs, and timing.

Every name is imported from its submodule on first use, so a process
that runs one subcommand of :mod:`repro.experiments.cli` (``serve``,
``stats``, ...) loads neither the harness nor the data generators.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .figures import FIGURES, FigureScales, make_figures
    from .harness import (
        ExperimentConfig,
        ExperimentResult,
        MethodSeries,
        chain_slot_pairs,
        exact_chain_join_size,
        run_experiment,
    )
    from .methods import (
        BasicSketchMethod,
        CosineMethod,
        HistogramMethod,
        SamplingMethod,
        SkimmedSketchMethod,
        default_methods,
        extended_methods,
    )
    from .report import ascii_chart, format_comparison_summary, format_result, result_to_dict
    from .speed import PAPER_SYNOPSIS_SIZE, SpeedReport, measure_speed
    from .sweeps import (
        BoundPoint,
        SweepPoint,
        bound_tightness_sweep,
        correlation_sweep,
        domain_size_sweep,
        skew_sweep,
    )

_EXPORTS = {
    ".figures": ("FIGURES", "FigureScales", "make_figures"),
    ".harness": (
        "ExperimentConfig",
        "ExperimentResult",
        "MethodSeries",
        "chain_slot_pairs",
        "exact_chain_join_size",
        "run_experiment",
    ),
    ".methods": (
        "BasicSketchMethod",
        "CosineMethod",
        "HistogramMethod",
        "SamplingMethod",
        "SkimmedSketchMethod",
        "default_methods",
        "extended_methods",
    ),
    ".report": ("ascii_chart", "format_comparison_summary", "format_result", "result_to_dict"),
    ".speed": ("PAPER_SYNOPSIS_SIZE", "SpeedReport", "measure_speed"),
    ".sweeps": (
        "BoundPoint",
        "SweepPoint",
        "bound_tightness_sweep",
        "correlation_sweep",
        "domain_size_sweep",
        "skew_sweep",
    ),
}
__getattr__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "FIGURES",
    "FigureScales",
    "make_figures",
    "ExperimentConfig",
    "ExperimentResult",
    "MethodSeries",
    "chain_slot_pairs",
    "exact_chain_join_size",
    "run_experiment",
    "BasicSketchMethod",
    "CosineMethod",
    "HistogramMethod",
    "SamplingMethod",
    "SkimmedSketchMethod",
    "default_methods",
    "extended_methods",
    "ascii_chart",
    "format_comparison_summary",
    "format_result",
    "result_to_dict",
    "PAPER_SYNOPSIS_SIZE",
    "BoundPoint",
    "SweepPoint",
    "bound_tightness_sweep",
    "correlation_sweep",
    "domain_size_sweep",
    "skew_sweep",
    "SpeedReport",
    "measure_speed",
]

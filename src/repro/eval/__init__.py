"""Evaluation harness: profiles, runners, profiling, reporting."""

from ..obs.profiling import ResourceUsage, measure
from .paper_reference import (
    APPENDIX_NO_PERTURBATION,
    HEADLINE_CLAIMS,
    TABLE3_NAD,
    TABLE4_EAD,
    TABLE5_TIME,
)
from .reporting import format_series, format_table, results_dir, write_csv
from .runner import (
    DEFAULT,
    FULL,
    PROFILES,
    QUICK,
    EvalProfile,
    bourne_config,
    get_profile,
    normalize_graph,
    prepare_graph,
    run_bourne,
    run_edge_baseline,
    run_node_baseline,
)

__all__ = [
    "EvalProfile",
    "QUICK",
    "DEFAULT",
    "FULL",
    "PROFILES",
    "get_profile",
    "normalize_graph",
    "prepare_graph",
    "bourne_config",
    "run_bourne",
    "run_node_baseline",
    "run_edge_baseline",
    "ResourceUsage",
    "measure",
    "format_table",
    "format_series",
    "write_csv",
    "results_dir",
    "TABLE3_NAD",
    "TABLE4_EAD",
    "TABLE5_TIME",
    "APPENDIX_NO_PERTURBATION",
    "HEADLINE_CLAIMS",
]

from .config import load_config, validate_config
from .metrics import (
    MetricRecord,
    append_metrics,
    energy_dist,
    energy_permutation_pvalue,
    energy_statistic,
    eval_metrics,
    make_records,
    wasserstein1,
)
from ..runfiles import read_jsonl, read_samples_csv, write_samples_csv
from .runner import run_experiment, write_trajectories_csv
from .plotdata import emit_plotdata
from .cli import main

__all__ = [
    "load_config", "validate_config",
    "MetricRecord", "append_metrics", "energy_dist", "energy_permutation_pvalue",
    "energy_statistic", "eval_metrics", "make_records", "wasserstein1",
    "read_jsonl", "read_samples_csv", "run_experiment", "write_samples_csv", "write_trajectories_csv",
    "emit_plotdata", "main",
]

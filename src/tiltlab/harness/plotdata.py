"""Tidy CSV emission for external plotting tools.

One file per figure family: training curves from the train log,
normalized histogram of terminal samples with the run's exact target
density overlaid when an oracle covers the run, value-function slices when a
value checkpoint exists, and a tidy copy of the metric records.
"""

from __future__ import annotations

import warnings
from pathlib import Path

import numpy as np
import yaml

from ..autodiff import evaluate, load_model
from ..diffusion import DiffusionSchedule, gaussian_log_density
from ..runfiles import cells, float_cells, read_jsonl, read_samples_csv, write_csv
from .config import Run, validate_config
from .runner import VALIDATION_ERRORS

HIST_BINS = 60


def emit_plotdata(run_dir: str | Path) -> list[Path]:
    """Write plotdata/*.csv under the run directory; returns written paths."""
    run = Path(run_dir)
    out = run / "plotdata"
    written: list[Path] = []
    if not run.exists() or not any(run.iterdir()):
        warnings.warn(f"run directory {run} is empty; nothing to emit")
        out.mkdir(parents=True, exist_ok=True)
        return written
    out.mkdir(parents=True, exist_ok=True)

    read = _read_run(run)
    log = run / "train_log.jsonl"
    if log.exists():
        written.append(_emit_curves(log, out))
    samples = run / "samples.csv"
    if samples.exists():
        written.append(_emit_histogram(None if read is None else read.target, samples, out))
    value_ckpt = run / "value_final.txt"
    if value_ckpt.exists() and read is not None:
        written.append(_emit_value_slices(read.schedule, read.policy.dim, value_ckpt, out))
    metrics = run / "metrics.jsonl"
    if metrics.exists():
        written.append(_emit_metrics(metrics, out))
    return written


def _emit_curves(log: Path, out: Path) -> Path:
    rows = read_jsonl(log)
    return _emit_table(rows, list(rows[0]) if rows else ["iteration"], out / "training_curves.csv")


def _emit_table(rows: list[dict], fields: list[str], path: Path) -> Path:
    """``rows`` as a table of ``fields``, as ``csv.DictWriter`` writes them."""
    write_csv(path, fields, [[cells([row.get(f) for row in rows]) for f in fields]])
    return path


def _read_run(run: Path) -> Run | None:
    """The run's config.yaml as its run read it, or None (with a warning
    when the copy exists) if it no longer reads."""
    cfg_file = run / "config.yaml"
    if not cfg_file.exists():
        return None
    try:
        return validate_config(yaml.safe_load(cfg_file.read_text()))
    except VALIDATION_ERRORS as exc:
        warnings.warn(f"{cfg_file} no longer reads ({exc}); no target overlay or value slices")
        return None


def _emit_histogram(exact: tuple[np.ndarray, np.ndarray] | None, samples_file: Path, out: Path) -> Path:
    """``exact`` is the run's exact target (:func:`.config.exact_target`), overlaid in 1-D."""
    samples = read_samples_csv(samples_file)
    target = None
    if exact is not None and samples.shape[1] == 1:
        target = float(exact[0][0]), float(exact[1][0])
    counts, edges = np.histogram(samples[:, 0], bins=HIST_BINS)
    widths = np.diff(edges)
    density = counts / (counts.sum() * widths)
    centers = 0.5 * (edges[:-1] + edges[1:])
    header = ["bin_center", "bin_width", "density"]
    columns = [float_cells(centers), float_cells(widths), float_cells(density)]
    if target is not None:
        header.append("target_density")
        columns.append(float_cells(np.exp(gaussian_log_density(centers[:, None], *target))))
    path = out / "histogram.csv"
    write_csv(path, header, [columns])
    return path


def _emit_value_slices(schedule: DiffusionSchedule, dim: int, ckpt: Path, out: Path) -> Path:
    """v_t along x0 at every step, the other coordinates held at 0."""
    model = load_model(ckpt)
    xs = np.linspace(-4.0, 4.0, 81)
    points = np.zeros((xs.size, dim))
    points[:, 0] = xs
    rows = schedule.n_steps + 1
    values = [evaluate(model, schedule.net_input(points, t))[:, 0] for t in range(rows)]
    path = out / "value_slices.csv"
    write_csv(path, ["t", "x", "value"], [[[str(t) for t in range(rows) for _ in xs],
                                           float_cells(xs) * rows, float_cells(values)]])
    return path


def _emit_metrics(metrics: Path, out: Path) -> Path:
    return _emit_table(read_jsonl(metrics), ["run_id", "metric", "value", "n", "ts"], out / "metrics_tidy.csv")

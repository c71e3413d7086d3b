"""Tidy CSV emission for external plotting tools.

One file per figure family: training curves from the train log,
normalized histogram of terminal samples with the run's exact target
density overlaid when an oracle covers the run, value-function slices when a
value checkpoint exists, and a tidy copy of the metric records.
"""

from __future__ import annotations

import csv
import json
import warnings
from pathlib import Path

import numpy as np
import yaml

from ..autodiff import evaluate, load_model
from ..diffusion import gaussian_log_density
from . import config as cfgmod
from .runner import exact_target, read_samples_csv

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

    log = run / "train_log.jsonl"
    if log.exists():
        written.append(_emit_curves(log, out))
    samples = run / "samples.csv"
    if samples.exists():
        written.append(_emit_histogram(run, samples, out))
    value_ckpt = run / "value_final.txt"
    if value_ckpt.exists():
        written.append(_emit_value_slices(run, value_ckpt, out))
    metrics = run / "metrics.jsonl"
    if metrics.exists():
        written.append(_emit_metrics(metrics, out))
    return written


def _emit_curves(log: Path, out: Path) -> Path:
    rows = [json.loads(line) for line in log.read_text().splitlines() if line]
    path = out / "training_curves.csv"
    fields = list(rows[0].keys()) if rows else ["iteration"]
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=fields)
        w.writeheader()
        w.writerows(rows)
    return path


def _analytic_overlay(run: Path) -> tuple[float, float] | None:
    """(mean, var) of a 1-D run's exact target, or None without one."""
    cfg_file = run / "config.yaml"
    if not cfg_file.exists():
        return None
    try:
        target = exact_target(yaml.safe_load(cfg_file.read_text()))
    except Exception:
        return None
    if target is None or target[0].shape != (1,):
        return None
    return float(target[0][0]), float(target[1][0])


def _emit_histogram(run: Path, samples_file: Path, out: Path) -> Path:
    samples = read_samples_csv(samples_file)
    target = _analytic_overlay(run) if samples.shape[1] == 1 else None
    path = out / "histogram.csv"
    counts, edges = np.histogram(samples[:, 0], bins=HIST_BINS)
    widths = np.diff(edges)
    density = counts / (counts.sum() * widths)
    centers = 0.5 * (edges[:-1] + edges[1:])
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        header = ["bin_center", "bin_width", "density"]
        if target is not None:
            header.append("target_density")
        w.writerow(header)
        for i, c in enumerate(centers):
            row = [repr(float(c)), repr(float(widths[i])), repr(float(density[i]))]
            if target is not None:
                row.append(repr(float(np.exp(gaussian_log_density(c, *target)))))
            w.writerow(row)
    return path


def _emit_value_slices(run: Path, ckpt: Path, out: Path) -> Path:
    cfg = yaml.safe_load((run / "config.yaml").read_text())
    schedule = cfgmod.build_schedule(cfg)
    model = load_model(ckpt)
    xs = np.linspace(-4.0, 4.0, 81).reshape(-1, 1)
    path = out / "value_slices.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "x", "value"])
        for t in range(schedule.n_steps + 1):
            vals = evaluate(model, schedule.net_input(xs, t))[:, 0]
            for x, v in zip(xs[:, 0], vals):
                w.writerow([t, repr(float(x)), repr(float(v))])
    return path


def _emit_metrics(metrics: Path, out: Path) -> Path:
    rows = [json.loads(line) for line in metrics.read_text().splitlines() if line]
    path = out / "metrics_tidy.csv"
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=["run_id", "metric", "value", "n", "ts"])
        w.writeheader()
        w.writerows(rows)
    return path

"""Same-seed capture: run a fixed list of runs in two checkouts and compare what they write.

    python3 scripts/same_seed.py --parent REV [--change DIR]

``--change`` is the checkout under test, by default the one this script
sits in, as its working tree stands. ``--parent`` is a commit of that
checkout's repository, extracted with ``git archive`` into a temporary
directory (``extract_parent`` of ``bench_record.py``).

Both sides run the same config trees, read from the change's ``configs/``:
every ``configs/*.yaml``; ``finetune_backprop.yaml`` with ``ppo``,
``weighted-mle`` and ``pcl`` at a few iterations; PCL with the
``pretrained`` and ``mixture:<k>`` roll-ins; weighted MLE and PCL whose
pre-trained policy is the backprop run's ``checkpoint_final.txt`` (a live
net); and a ``finetune`` run that trains ``guide_posterior.yaml``'s chain
and classifier reward by ``ppo``. Each run goes through ``run_experiment``
and then ``plotdata``, in a fresh process with ``PYTHONPATH=<side>/src``
and one BLAS thread, from a work directory per side, so paths inside the
runs are the same on both sides.

The run trees are compared file by file: JSON lines with their ``ts`` and
``wall_time`` keys dropped, CSV files with those columns dropped, every
other file byte for byte. Each differing file is printed with its first
differing line and key; the exit status is 1 on any difference, or on a
run whose exit code differs between the sides. Standard library and
tiltlab only.
"""

from __future__ import annotations

import argparse
import copy
import csv
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from bench_record import SIDES, extract_parent  # noqa: E402

ROOT = HERE.parent
VOLATILE = ("ts", "wall_time")
FEW_ITERATIONS = 5
MIXTURE_SWITCH = 20
RUN_TIMEOUT_S = 900
ONE_THREAD = {k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
RUN = ("import json, sys\n"
       "from tiltlab.harness.runner import run_experiment\n"
       "sys.exit(run_experiment(json.loads(sys.argv[1]), sys.argv[2]))")


def run_list(configs: Path) -> list[tuple[str, dict]]:
    """(name, config tree) of every run, in the order they run. A run may
    read an earlier run's files by a path relative to the work directory."""
    from tiltlab.harness.config import load_config

    runs = [(path.stem, load_config(path)) for path in sorted(configs.glob("*.yaml"))]
    named = dict(runs)

    def backprop_cfg(**finetune) -> dict:
        tree = copy.deepcopy(named["finetune_backprop"])
        tree["finetune"].update(iterations=FEW_ITERATIONS, **finetune)
        return tree

    for algorithm in ("ppo", "weighted-mle", "pcl"):
        runs.append((f"backprop_cfg_{algorithm}", backprop_cfg(algorithm=algorithm)))
    runs.append(("pcl_pretrained", backprop_cfg(algorithm="pcl", rollin="pretrained")))
    runs.append(("pcl_mixture", backprop_cfg(algorithm="pcl", rollin=f"mixture:{MIXTURE_SWITCH}")))
    for algorithm in ("weighted-mle", "pcl"):
        tree = backprop_cfg(algorithm=algorithm)
        tree["policy"] = {**tree["policy"], "checkpoint": "finetune_backprop/checkpoint_final.txt"}
        runs.append((f"live_pre_{algorithm}", tree))
    posterior = copy.deepcopy(named["guide_posterior"])
    classifier = {k: v for k, v in posterior.items() if k != "guide"}
    classifier.update(kind="finetune", eval_samples=posterior["guide"]["samples"],
                      finetune={"algorithm": "ppo", "iterations": FEW_ITERATIONS, "batch": 64})
    runs.append(("classifier_ppo", classifier))
    return runs


def execute(checkout: Path, work: Path, name: str, tree: dict) -> tuple[int, int]:
    """Run one tree into ``work/name``, then plotdata on it; their exit codes."""
    env = {**os.environ, **ONE_THREAD, "PYTHONPATH": str(checkout / "src")}
    codes = []
    for cmd in ([sys.executable, "-c", RUN, json.dumps(tree), name],
                [sys.executable, "-m", "tiltlab.harness.cli", "plotdata", "--out", name]):
        proc = subprocess.run(cmd, cwd=work, env=env, stdin=subprocess.DEVNULL,
                              capture_output=True, timeout=RUN_TIMEOUT_S)
        codes.append(proc.returncode)
    return codes[0], codes[1]


def _records(path: Path) -> list:
    """The file as a list of comparable lines, volatile fields dropped."""
    if path.suffix == ".jsonl":
        rows = [json.loads(line, parse_constant=str) for line in path.read_text().splitlines()]
        return [{k: v for k, v in row.items() if k not in VOLATILE} if isinstance(row, dict) else row
                for row in rows]
    if path.suffix == ".csv":
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        if not rows:
            return []
        header = rows[0]
        return [[c for c in header if c not in VOLATILE]] + [
            {k: v for k, v in zip(header, row) if k not in VOLATILE} for row in rows[1:]]
    return path.read_bytes().splitlines(keepends=True)


def _short(value) -> str:
    text = repr(value)
    return text if len(text) <= 80 else text[:77] + "..."


def first_difference(a: Path, b: Path) -> str | None:
    """Where file ``b`` first differs from file ``a``, or None when they match."""
    ra, rb = _records(a), _records(b)
    for i, (x, y) in enumerate(zip(ra, rb), start=1):
        if x == y:
            continue
        if isinstance(x, dict) and isinstance(y, dict):
            key = next(k for k in [*x, *y] if k not in x or k not in y or x[k] != y[k])
            return f"line {i}, key {key!r}: {_short(x.get(key))} != {_short(y.get(key))}"
        return f"line {i}: {_short(x)} != {_short(y)}"
    if len(ra) != len(rb):
        return f"{len(ra)} lines != {len(rb)} lines"
    return None


def compare_trees(parent: Path, change: Path) -> list[str]:
    """One line per file that differs between the two trees, with its first difference."""
    rels = sorted({p.relative_to(root).as_posix()
                   for root in (parent, change) for p in root.rglob("*") if p.is_file()})
    out = []
    for rel in rels:
        a, b = parent / rel, change / rel
        if not (a.is_file() and b.is_file()):
            out.append(f"{rel}: only in {'change' if b.is_file() else 'parent'}")
        elif (where := first_difference(a, b)) is not None:
            out.append(f"{rel}: {where}")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="the parent commit (any git revision)")
    ap.add_argument("--change", type=Path, default=ROOT, help="checkout of the change (default: this one)")
    args = ap.parse_args(argv)

    change = args.change.resolve()
    sys.path.insert(0, str(change / "src"))
    runs = run_list(change / "configs")
    with tempfile.TemporaryDirectory(prefix="same_seed_") as tmp:
        tmp = Path(tmp)
        checkouts = {"parent": tmp / "parent_checkout", "change": change}
        sha = extract_parent(change, args.parent, checkouts["parent"])
        print(f"parent {sha}", file=sys.stderr)
        codes = {}
        for side in SIDES:
            work = tmp / side
            work.mkdir()
            for name, tree in runs:
                codes[side, name] = execute(checkouts[side], work, name, tree)
                print(f"{side} {name}: exit {codes[side, name]}", file=sys.stderr, flush=True)
        diffs = [f"{name}: exit codes (run, plotdata) {codes['parent', name]} != {codes['change', name]}"
                 for name, _ in runs if codes["parent", name] != codes["change", name]]
        diffs += compare_trees(tmp / "parent", tmp / "change")
    for line in diffs:
        print(line)
    print(f"{len(runs)} runs, {len(diffs)} differences", file=sys.stderr)
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())

"""tiltlab benchmark.

    python3 perfbench/run.py --workload {finetune,oracle} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout. Every run starts three phase
processes (``phases.py``: finetune, guide, oracle), each a fresh single
process running a closed loop with one client. The result format asks
for every end-to-end metric on every run, so every run runs every
operation. The phases set up one after another, then take turns step by
step (a step is one timed operation), each phase's steps spread evenly
over the run, so each metric is sampled across the whole run rather than
in one window of it. The workload names the phase that goes first and whose
process gives ``setup_s`` (the median over several fresh set-ups) and
``peak_rss_mb``. With ``--trace 1`` the phases run once untraced and once
traced, and the run prints the per-layer metrics instead.

The second-to-last line of standard output is a JSON detail record: each
metric with its raw samples, their count and tail, the provenance, the
failures. The
last line is the result: {"correct", "attempted", "failed", "metrics"}.
See NOTES.md for the workloads, the metrics and the defects found.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402

PHASES = ("finetune", "guide", "oracle")
# Every run runs every phase; a workload names the phase that goes first
# and whose set-up and peak RSS the run reports.
WORKLOADS = ("finetune", "oracle")
# Rounds of each phase in a run of REFERENCE_S seconds (about 6, 4 and
# 5 s a round on a 2-core x86 box with one BLAS thread). Oracle rounds
# cycle the grid alpha, so three rounds cover every alpha. Counts, not a
# clock, end the loops, so the work and every per-layer count are the same
# on every machine and commit, and on every workload.
BASE_ROUNDS = {"finetune": 3, "guide": 3, "oracle": 3}
REFERENCE_S = 30.0
SETUP_REPEATS = 2
DEADLINE_S = 170.0
BLAS_THREADS = {k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                                  "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}

# End-to-end metrics: name -> (unit, samples key, kind). "median" reports the
# median of the samples; "rate" reports batch size / median batch seconds.
END_TO_END = {
    "setup_s": ("s", None, "setup"),
    "peak_rss_mb": ("MB", None, "rss"),
    "ppo_iter_s": ("s", "ppo_iter_s", "median"),
    "backprop_iter_s": ("s", "backprop_iter_s", "median"),
    "wmle_iter_s": ("s", "wmle_iter_s", "median"),
    "pcl_iter_s": ("s", "pcl_iter_s", "median"),
    "residual_traj_per_s": ("1/s", "residual_traj_per_s", "rate"),
    "posterior_traj_per_s": ("1/s", "posterior_traj_per_s", "rate"),
    "tweedie_traj_per_s": ("1/s", "tweedie_traj_per_s", "rate"),
    "mc_traj_per_s": ("1/s", "mc_traj_per_s", "rate"),
    "path_integral_traj_per_s": ("1/s", "path_integral_traj_per_s", "rate"),
    "value_fit_s": ("s", "value_fit_s", "median"),
    "grid_solve_s": ("s", "grid_solve_s", "median"),
    "mala_samples_per_s": ("1/s", "mala_samples_per_s", "rate"),
}

TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def tail_percentile(samples: list[float]):
    """The highest ladder percentile with at least ten samples beyond it,
    as (percentile, value), or None when there are too few samples."""
    n = len(samples)
    for p in reversed(TAIL_LADDER):
        beyond = math.floor(n * (1.0 - p / 100.0) + 1e-9)
        if beyond >= 10:
            return p, sorted(samples)[n - beyond - 1]
    return None


def phase_rounds(seconds: float) -> dict[str, int]:
    return {p: max(1, round(n * seconds / REFERENCE_S)) for p, n in BASE_ROUNDS.items()}


def interleave(steps: dict[str, int]) -> list[str]:
    """The order in which the phases take their steps: each next step goes
    to the phase that is least far through its own steps (ties to the
    earlier phase), so every phase's steps are spread evenly over the run."""
    done = dict.fromkeys(steps, 0)
    out = []
    for _ in range(sum(steps.values())):
        phase = min((p for p in steps if done[p] < steps[p]),
                    key=lambda p: (done[p] + 0.5) / steps[p])
        done[phase] += 1
        out.append(phase)
    return out


def end_to_end(results: dict[str, dict], primary: str, setup_samples: list[float]) -> dict:
    """Metric records {value, unit, samples, tail} from the phase results."""
    samples: dict[str, list[float]] = {}
    sizes: dict[str, int] = {}
    for res in results.values():
        for k, v in res["samples"].items():
            samples.setdefault(k, []).extend(v)
        sizes.update(res["sizes"])
    out = {}
    for name, (unit, key, kind) in END_TO_END.items():
        if kind == "setup":
            xs = setup_samples
        elif kind == "rss":
            xs = [results[primary]["peak_rss_mb"]]
        else:
            xs = samples.get(key, [])
        rec = {"value": None, "unit": unit, "samples": len(xs), "tail": None, "raw": xs}
        if xs:
            med = statistics.median(xs)
            tail = tail_percentile(xs)
            if kind == "rate":
                rec["value"] = sizes[key] / med
                if tail:  # slow batches are the low-throughput tail
                    rec["tail"] = {"percentile": tail[0], "value": sizes[key] / tail[1]}
            else:
                rec["value"] = med
                if tail:
                    rec["tail"] = {"percentile": tail[0], "value": tail[1]}
        out[name] = rec
    return out


def git_commit(root: Path):
    """The checked-out commit, read from .git without leaving the checkout."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


class PhaseError(RuntimeError):
    pass


def phase_cmd(phase: str, seed: int, work: Path, *extra: str) -> list[str]:
    return [sys.executable, str(HERE / "phases.py"), "--phase", phase, "--seed", str(seed),
            "--work", str(work), *extra]


def setup_only(phase: str, seed: int, work: Path, env: dict, deadline: float) -> float:
    try:
        proc = subprocess.run(phase_cmd(phase, seed, work, "--setup-only"), env=env,
                              stdin=subprocess.DEVNULL, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise PhaseError(f"{phase} set-up timed out") from exc
    if proc.returncode != 0:
        raise PhaseError(f"{phase} set-up: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_pass(order: list[str], rounds: dict[str, int], seed: int, work: Path, env: dict,
             deadline: float, trace_to: Path | None) -> dict[str, dict]:
    """Start the phase processes one after another (each sets up alone),
    then interleave their steps, so every metric is sampled across the
    whole pass; returns each phase's final JSON."""
    procs: dict[str, subprocess.Popen] = {}
    logs: dict[str, Path] = {}
    steps: dict[str, int] = {}

    def kill_all():
        for p in procs.values():
            if p.poll() is None:
                p.kill()

    def fail(phase: str, what: str):
        kill_all()
        tail = logs[phase].read_text()[-2000:] if logs[phase].exists() else ""
        raise PhaseError(f"{phase}: {what}\n{tail}")

    def expect(phase: str) -> str:
        line = procs[phase].stdout.readline()
        if not line:
            fail(phase, "exited or timed out")
        return line

    timer = threading.Timer(max(0.0, deadline - time.monotonic()), kill_all)
    timer.start()
    try:
        for phase in order:
            extra = ["--rounds", str(rounds[phase])]
            if trace_to is not None:
                extra += ["--trace", "--spans-out", str(trace_to.with_name(f"{trace_to.name}-{phase}.csv"))]
            logs[phase] = work / f"{phase}.stderr"
            with open(logs[phase], "w") as err:
                procs[phase] = subprocess.Popen(phase_cmd(phase, seed, work, *extra), env=env,
                                                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                                stderr=err, text=True)
            steps[phase] = json.loads(expect(phase))["steps"]  # the ready line, after set-up
        for phase in interleave(steps):
            procs[phase].stdin.write("step\n")
            procs[phase].stdin.flush()
            if expect(phase).strip() != "ok":
                fail(phase, "bad reply to a step")
        results = {phase: json.loads(expect(phase)) for phase in order}
        for phase in order:
            if procs[phase].wait() != 0:
                fail(phase, f"exit {procs[phase].returncode}")
        return results
    finally:
        timer.cancel()
        kill_all()
        for p in procs.values():
            p.wait()


def run_all(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    env = dict(os.environ)
    env.update(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    deadline = time.monotonic() + DEADLINE_S
    work = root / ".perfbench" / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    rounds = phase_rounds(seconds)
    order = [workload] + [p for p in PHASES if p != workload]
    trace_to = root / ".perfbench" / "trace" / f"{workload}-seed{seed}"
    try:
        # setup_s is reported only by untraced runs.
        setup_samples = [setup_only(workload, seed, work, env, deadline)
                         for _ in range(0 if trace else SETUP_REPEATS)]
        untraced = run_pass(order, rounds, seed, work, env, deadline, None)
        traced = {}
        if trace:
            trace_to.parent.mkdir(parents=True, exist_ok=True)
            traced = run_pass(order, rounds, seed, work, env, deadline, trace_to)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    setup_samples.append(untraced[workload]["setup_s"])
    all_results = list(untraced.values()) + list(traced.values())
    summary = {
        "attempted": sum(r["attempted"] for r in all_results),
        "failed": sum(r["failed"] for r in all_results),
        "failures": [f for r in all_results for f in r["failures"]],
        "end_to_end": end_to_end(untraced, workload, setup_samples),
        "provenance": {
            "workload": workload, "seed": seed, "seconds": seconds, "rounds": rounds,
            "nproc": os.cpu_count(), "blas_threads": BLAS_THREADS,
            **untraced[workload]["versions"], "git_commit": git_commit(root),
        },
        "claim": None,
    }
    if trace:
        raw: dict[str, float] = {}
        for res in traced.values():
            for k, v in res["raw"].items():
                raw[k] = raw.get(k, 0.0) + v
        traced_op = sum(r["op_s"] for r in traced.values())
        untraced_op = sum(r["op_s"] for r in untraced.values())
        raw["runtime.trace_overhead"] = traced_op / untraced_op - 1.0 if untraced_op else 0.0
        summary["per_layer"] = tracing.layer_metrics(raw)
    return summary


def result_line(summary: dict, trace: bool) -> dict:
    if trace:
        units = dict(tracing.LAYER_METRICS)
        metrics = {k: {"value": v, "unit": units[k]} for k, v in summary["per_layer"].items()}
    else:
        metrics = {k: {"value": r["value"], "unit": r["unit"]} for k, r in summary["end_to_end"].items()}
    missing = any(m["value"] is None for m in metrics.values())
    return {
        "correct": summary["failed"] == 0 and not missing,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="tiltlab benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "tiltlab" / "__init__.py").is_file():
        print("run from the root of a tiltlab checkout: src/tiltlab is missing", file=sys.stderr)
        return 2
    try:
        summary = run_all(args.workload, args.seed, args.seconds, bool(args.trace), root)
    except PhaseError as exc:
        print(f"benchmark phase failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"detail": summary}))
    print(json.dumps(result_line(summary, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Record a before/after benchmark comparison as a committed BENCH_<n>.json.

    python3 scripts/bench_record.py --parent REV --out BENCH_<n>.json [--change DIR]

``--change`` is the checkout to measure, by default the one this script
sits in, as its working tree stands (usually with the change not yet
committed). ``--parent`` is a commit of that checkout's repository; the
script extracts it with ``git archive`` into a temporary directory
outside the checkout. For every workload in ``BENCHMARK.json`` and each of
seeds 1-10 the script runs ``perfbench/run.py`` for the benchmark's
``run_seconds`` once in each checkout, one pair at a time, alternating
which side goes first, and reads the detail and result lines run.py
prints. A run is recorded as an error, and the script exits 1, unless both
lines are strict JSON (no ``NaN`` or ``Infinity``) and the result line
holds a finite value for every end-to-end metric. The record holds, per
workload and end-to-end metric, each side's runs, median and quartiles
and the number of pairs the change wins, plus each side's provenance:
run.py's machine record (core count, BLAS thread settings, versions), the
commit, and a SHA-256 of its ``src`` tree. The parent's commit is the
resolved ``--parent``; the change's is HEAD when its tracked files equal
HEAD and null otherwise. Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
SEEDS = tuple(range(1, 11))
RUN_TIMEOUT_S = 600


def pair_order(index: int) -> tuple[str, str]:
    """The side that runs first in pair ``index`` alternates, starting with the parent."""
    return SIDES if index % 2 == 0 else SIDES[::-1]


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a number in strict JSON")


def parse_output(stdout: str) -> tuple[dict, dict]:
    """(detail, result) from the last two lines run.py prints, parsed as strict
    JSON: a ``NaN``, ``Infinity`` or ``-Infinity`` raises a ValueError."""
    lines = stdout.strip().splitlines()
    if len(lines) < 2:
        raise ValueError("run.py printed fewer than two lines")
    detail, result = (json.loads(line, parse_constant=_reject_constant) for line in lines[-2:])
    return detail["detail"], result


def metric_values(result: dict, names) -> dict:
    """Each named metric's value on the result line; a ValueError names the
    first one that is missing or not a finite number."""
    values = {}
    for name in names:
        value = result["metrics"].get(name, {}).get("value")
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            raise ValueError(f"metric {name}: {value!r} is not a finite number")
        values[name] = value
    return values


def quartiles(xs: list[float]) -> dict:
    """Median and the lower and upper quartiles (inclusive method)."""
    if len(xs) == 1:
        return {"q1": xs[0], "median": xs[0], "q3": xs[0]}
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"q1": q1, "median": med, "q3": q3}


def change_wins(parent: float, change: float, better: str) -> bool:
    return change < parent if better == "lower" else change > parent


def summarize(pairs: list[dict], metrics: dict[str, dict]) -> dict:
    """Per metric: each side's runs and quartiles and the change's pair wins.

    ``pairs`` holds one {"parent": values, "change": values} per pair, each
    ``values`` a metric -> value map, or None for a run that failed; a pair
    counts towards ``wins`` only when both of its runs gave the metric.
    """
    out = {}
    for name, spec in metrics.items():
        rec = {"unit": spec["unit"], "better": spec["better"]}
        for side in SIDES:
            xs = [p[side][name] for p in pairs if p[side] and p[side].get(name) is not None]
            rec[side] = {"runs": xs, **(quartiles(xs) if xs else {})}
        both = [p for p in pairs if all(p[s] and p[s].get(name) is not None for s in SIDES)]
        rec["wins"] = sum(change_wins(p["parent"][name], p["change"][name], spec["better"])
                          for p in both)
        rec["pairs"] = len(both)
        out[name] = rec
    return out


def src_digest(checkout: Path) -> str:
    """SHA-256 over the relative paths and bytes of the checkout's src/*.py files."""
    h = hashlib.sha256()
    for path in sorted((checkout / "src").rglob("*.py")):
        h.update(path.relative_to(checkout).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def run_once(checkout: Path, workload: str, seed: int, seconds: float, metrics) -> dict:
    """One run.py run: the values of the named ``metrics``, its failure count and
    provenance, or its error."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    try:
        proc = subprocess.run(cmd, cwd=checkout, stdin=subprocess.DEVNULL, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {RUN_TIMEOUT_S} s"}
    if proc.returncode != 0:
        return {"error": f"exit {proc.returncode}: {proc.stderr[-500:]}"}
    try:
        detail, result = parse_output(proc.stdout)
        values = metric_values(result, metrics)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return {"error": f"unparsable output: {exc}"}
    return {
        "values": values,
        "correct": result["correct"],
        "failed": result["failed"],
        "attempted": result["attempted"],
        "provenance": detail["provenance"],
    }


def machine_provenance(runs: list[dict]) -> dict:
    """The provenance of a side's first successful run, without its per-run and commit fields.

    run.py reads its commit from ``.git/HEAD``, which is absent in an
    archive and names HEAD, not the tree, for an uncommitted change; the
    record names each side's commit itself.
    """
    prov = next((r["provenance"] for r in runs if "provenance" in r), {})
    return {k: v for k, v in prov.items() if k not in ("workload", "seed", "rounds", "git_commit")}


def git(checkout: Path, *args: str, **kw) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], cwd=checkout, stdin=subprocess.DEVNULL,
                          capture_output=True, **kw)


def extract_parent(checkout: Path, rev: str, dest: Path) -> str:
    """Extract commit ``rev`` of ``checkout``'s repository into ``dest``; return its full SHA."""
    sha = git(checkout, "rev-parse", "--verify", f"{rev}^{{commit}}", check=True, text=True).stdout.strip()
    archive = git(checkout, "archive", "--format=tar", sha, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return sha


def change_commit(checkout: Path) -> str | None:
    """HEAD's SHA when the tracked files equal HEAD, else None (an uncommitted change)."""
    if git(checkout, "diff", "--quiet", "HEAD").returncode != 0:
        return None
    return git(checkout, "rev-parse", "HEAD", check=True, text=True).stdout.strip()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="the parent commit (any git revision)")
    ap.add_argument("--change", type=Path, default=ROOT, help="checkout of the change (default: this one)")
    ap.add_argument("--out", type=Path, required=True, help="the BENCH_<n>.json to write")
    args = ap.parse_args(argv)

    change = args.change.resolve()
    bench = json.loads((change / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    seconds = float(bench["run_seconds"])
    with tempfile.TemporaryDirectory(prefix="bench_parent_") as tmp:
        checkouts = {"parent": Path(tmp), "change": change}
        commits = {"parent": extract_parent(change, args.parent, checkouts["parent"]),
                   "change": change_commit(change)}
        record = {"seconds": seconds, "seeds": list(SEEDS), "workloads": {}}
        all_runs = {side: [] for side in SIDES}
        for workload in (w["name"] for w in bench["workloads"]):
            pairs, log = [], []
            for i, seed in enumerate(SEEDS):
                order = pair_order(i)
                runs = {}
                for side in order:
                    runs[side] = run_once(checkouts[side], workload, seed, seconds, metrics)
                    all_runs[side].append(runs[side])
                    print(f"{workload} seed {seed} {side}: "
                          f"{runs[side].get('error') or 'failed %d' % runs[side]['failed']}",
                          file=sys.stderr, flush=True)
                pairs.append({side: runs[side].get("values") for side in SIDES})
                log.append({"seed": seed, "first": order[0],
                            **{side: {k: runs[side].get(k) for k in ("error", "correct", "attempted", "failed")
                                      if k in runs[side]} for side in SIDES}})
            record["workloads"][workload] = {"metrics": summarize(pairs, metrics), "runs": log}
        record["provenance"] = {side: {**machine_provenance(all_runs[side]), "commit": commits[side],
                                       "src_sha256": src_digest(checkouts[side])} for side in SIDES}
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if all("values" in r for side in SIDES for r in all_runs[side]) else 1


if __name__ == "__main__":
    sys.exit(main())

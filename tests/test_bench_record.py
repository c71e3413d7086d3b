"""Pairing and summary logic of ``scripts/bench_record.py``.

The benchmark itself is not run: ``main`` is driven against two stub
checkouts whose ``perfbench/run.py`` prints fixed detail and result lines.
"""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_record.py"


def _script():
    spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


br = _script()

METRICS = {"setup_s": {"unit": "s", "better": "lower"},
           "mala_samples_per_s": {"unit": "1/s", "better": "higher"}}


def test_pair_order_alternates_starting_with_parent():
    assert [br.pair_order(i) for i in range(4)] == [
        ("parent", "change"), ("change", "parent"), ("parent", "change"), ("change", "parent")]


def test_quartiles_inclusive_and_single_run():
    assert br.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == {"q1": 2.0, "median": 3.0, "q3": 4.0}
    assert br.quartiles([7.0]) == {"q1": 7.0, "median": 7.0, "q3": 7.0}


def test_summarize_counts_wins_by_direction_and_skips_failed_runs():
    pairs = [
        {"parent": {"setup_s": 1.0, "mala_samples_per_s": 100.0},
         "change": {"setup_s": 0.2, "mala_samples_per_s": 90.0}},
        {"parent": {"setup_s": 1.2, "mala_samples_per_s": 100.0},
         "change": {"setup_s": 1.3, "mala_samples_per_s": 110.0}},
        {"parent": {"setup_s": 1.1, "mala_samples_per_s": 100.0}, "change": None},
        {"parent": {"setup_s": 0.9, "mala_samples_per_s": None},
         "change": {"setup_s": 0.3, "mala_samples_per_s": 120.0}},
    ]
    out = br.summarize(pairs, METRICS)
    setup = out["setup_s"]
    assert setup["parent"]["runs"] == [1.0, 1.2, 1.1, 0.9]
    assert setup["change"]["runs"] == [0.2, 1.3, 0.3]
    assert setup["change"]["median"] == 0.3
    assert (setup["wins"], setup["pairs"]) == (2, 3)
    rate = out["mala_samples_per_s"]
    assert rate["parent"]["runs"] == [100.0, 100.0, 100.0]
    assert (rate["wins"], rate["pairs"]) == (1, 2)  # higher is better; a tie is no win
    assert rate["unit"] == "1/s" and rate["better"] == "higher"


def test_parse_output_reads_the_last_two_lines():
    stdout = "noise\n" + json.dumps({"detail": {"provenance": {"nproc": 2}}}) + "\n" \
        + json.dumps({"correct": True, "metrics": {}}) + "\n"
    detail, result = br.parse_output(stdout)
    assert detail == {"provenance": {"nproc": 2}} and result["correct"] is True
    with pytest.raises(ValueError):
        br.parse_output("one line\n")


def test_output_with_a_non_finite_or_missing_metric_is_an_error(tmp_path):
    detail = json.dumps({"detail": {"provenance": {"nproc": 2}}})
    (tmp_path / "perfbench").mkdir()

    def run(setup):
        metrics = {"mala_samples_per_s": {"value": 100.0}, **({} if setup is None else {"setup_s": setup})}
        line = json.dumps({"correct": True, "attempted": 3, "failed": 0, "metrics": metrics})
        (tmp_path / "perfbench" / "run.py").write_text(f"print({detail!r})\nprint({line!r})\n")
        return br.run_once(tmp_path, "oracle", 1, 1.0, METRICS)

    assert run({"value": 1.0})["values"] == {"setup_s": 1.0, "mala_samples_per_s": 100.0}
    for value in (float("nan"), float("inf"), -float("inf")):
        # json.dumps writes these as NaN, Infinity and -Infinity, which strict JSON rejects.
        assert "not a number in strict JSON" in run({"value": value})["error"]
    assert "metric setup_s: None" in run({"value": None})["error"]
    assert "metric setup_s: 'fast'" in run({"value": "fast"})["error"]
    assert "metric setup_s: None" in run(None)["error"]


def test_main_exits_1_when_a_run_reports_a_non_finite_metric(tmp_path, monkeypatch):
    repo = tmp_path / "repo"
    _stub_repo(repo)
    monkeypatch.setenv("BENCH_STUB_LOG", str(tmp_path / "order.log"))
    monkeypatch.setenv("BENCH_STUB_RATE", "nan")
    out = tmp_path / "BENCH_0.json"
    assert br.main(["--parent", "HEAD", "--change", str(repo), "--out", str(out)]) == 1
    runs = json.loads(out.read_text())["workloads"]["oracle"]["runs"]
    assert all("NaN" in r["change"]["error"] and "error" not in r["parent"] for r in runs)


def test_machine_provenance_is_the_first_successful_runs_without_per_run_fields():
    runs = [{"error": "exit 1"},
            {"provenance": {"workload": "oracle", "seed": 1, "rounds": {}, "nproc": 2, "numpy": "2",
                            "git_commit": "a"}},
            {"provenance": {"workload": "finetune", "seed": 2, "rounds": {}, "nproc": 4}}]
    assert br.machine_provenance(runs) == {"nproc": 2, "numpy": "2"}
    assert br.machine_provenance([{"error": "exit 1"}]) == {}


STUB = '''
import json, os, sys
from pathlib import Path
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
side = Path("side.txt").read_text().strip()
with open(os.environ["BENCH_STUB_LOG"], "a") as fh:
    fh.write(f"{side} {args['--workload']} {args['--seed']} {args['--seconds']}\\n")
rate = float(os.environ.get("BENCH_STUB_RATE", "100.0")) if side == "change" else 100.0
metrics = {"setup_s": {"value": 0.2 if side == "change" else 1.0, "unit": "s"},
           "mala_samples_per_s": {"value": rate, "unit": "1/s"}}
prov = {"workload": args["--workload"], "seed": int(args["--seed"]), "nproc": 2,
        "blas_threads": {"OMP_NUM_THREADS": "1"}, "numpy": "x", "git_commit": "stale"}
print(json.dumps({"detail": {"provenance": prov}}))
print(json.dumps({"correct": True, "attempted": 3, "failed": 0, "metrics": metrics}))
'''


def _git(repo: Path, *args: str) -> str:
    return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args], cwd=repo,
                          check=True, capture_output=True, text=True).stdout.strip()


def _write_side(repo: Path, side: str) -> None:
    (repo / "side.txt").write_text(side + "\n")
    (repo / "src" / "tiltlab" / "__init__.py").write_text(f"# {side}\n")


def _stub_repo(repo: Path) -> str:
    """A git repository whose HEAD is the parent stub and whose working tree is the change."""
    (repo / "perfbench").mkdir(parents=True)
    (repo / "perfbench" / "run.py").write_text(STUB)
    (repo / "src" / "tiltlab").mkdir(parents=True)
    bench = {"run_seconds": 1, "workloads": [{"name": "oracle"}],
             "end_to_end": [{"name": k, **v} for k, v in METRICS.items()]}
    (repo / "BENCHMARK.json").write_text(json.dumps(bench))
    _write_side(repo, "parent")
    _git(repo, "init", "-q")
    _git(repo, "add", ".")
    _git(repo, "commit", "-q", "-m", "parent")
    _write_side(repo, "change")
    return _git(repo, "rev-parse", "HEAD")


def test_main_alternates_sides_and_writes_the_record(tmp_path, monkeypatch):
    repo = tmp_path / "repo"
    parent_sha = _stub_repo(repo)
    log = tmp_path / "order.log"
    monkeypatch.setenv("BENCH_STUB_LOG", str(log))
    out = tmp_path / "BENCH_0.json"
    assert br.main(["--parent", "HEAD", "--change", str(repo), "--out", str(out)]) == 0
    expected = [f"{side} oracle {seed} 1.0" for seed in br.SEEDS
                for side in (("parent", "change") if seed % 2 else ("change", "parent"))]
    assert log.read_text().splitlines() == expected
    rec = json.loads(out.read_text())
    assert rec["seeds"] == list(range(1, 11)) and rec["seconds"] == 1.0
    setup = rec["workloads"]["oracle"]["metrics"]["setup_s"]
    assert setup["parent"]["median"] == 1.0 and setup["change"]["median"] == 0.2
    assert (setup["wins"], setup["pairs"]) == (10, 10)
    assert [r["first"] for r in rec["workloads"]["oracle"]["runs"]] == ["parent", "change"] * 5
    prov = rec["provenance"]
    assert prov["change"]["nproc"] == 2 and "seed" not in prov["change"]
    assert "git_commit" not in prov["parent"]
    assert prov["parent"]["commit"] == parent_sha and prov["change"]["commit"] is None
    assert prov["parent"]["src_sha256"] != prov["change"]["src_sha256"]
    assert br.change_commit(repo) is None
    _git(repo, "commit", "-q", "-am", "change")
    assert br.change_commit(repo) == _git(repo, "rev-parse", "HEAD")

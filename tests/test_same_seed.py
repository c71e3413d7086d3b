"""Comparison logic and run list of ``scripts/same_seed.py``.

No run is executed: the comparison is driven on two small trees written
here, and the run list is read from the repository's configs.
"""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "same_seed.py"


def _script():
    spec = importlib.util.spec_from_file_location("same_seed", SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


ss = _script()


def _tree(root: Path, log_rows, csv_text="t,x,ts\n1,0.5,100\n", model="w0 1.0\n") -> Path:
    run = root / "run"
    (run / "plotdata").mkdir(parents=True)
    (run / "train_log.jsonl").write_text("".join(json.dumps(r) + "\n" for r in log_rows))
    (run / "plotdata" / "metrics_tidy.csv").write_text(csv_text)
    (run / "checkpoint_final.txt").write_text(model)
    return root


def test_volatile_fields_are_ignored(tmp_path):
    a = _tree(tmp_path / "a", [{"iteration": 0, "loss": 0.5, "wall_time": 0.1, "ts": 1.0}])
    b = _tree(tmp_path / "b", [{"iteration": 0, "loss": 0.5, "wall_time": 0.7, "ts": 9.0}],
              csv_text="t,x,ts\n1,0.5,200\n")
    assert ss.compare_trees(a, b) == []


def test_first_differing_key_line_and_file_are_named(tmp_path):
    rows = [{"iteration": 0, "loss": 0.5, "grad_norm": 1.0}, {"iteration": 1, "loss": 0.25, "grad_norm": 2.0}]
    changed = [rows[0], {**rows[1], "grad_norm": 2.0000000000000004}]
    a = _tree(tmp_path / "a", rows)
    b = _tree(tmp_path / "b", changed, csv_text="t,x,ts\n1,0.75,100\n", model="w0 1.5\n")
    (b / "run" / "extra.txt").write_text("x\n")
    assert ss.compare_trees(a, b) == [
        "run/checkpoint_final.txt: line 1: b'w0 1.0\\n' != b'w0 1.5\\n'",
        "run/extra.txt: only in change",
        "run/plotdata/metrics_tidy.csv: line 2, key 'x': '0.5' != '0.75'",
        "run/train_log.jsonl: line 2, key 'grad_norm': 2.0 != 2.0000000000000004",
    ]


def test_a_shorter_file_differs(tmp_path):
    rows = [{"iteration": 0}, {"iteration": 1}]
    a = _tree(tmp_path / "a", rows)
    b = _tree(tmp_path / "b", rows[:1])
    assert ss.compare_trees(a, b) == ["run/train_log.jsonl: 2 lines != 1 lines"]


def test_run_list_covers_every_config_and_the_variants():
    runs = ss.run_list(SCRIPT.parents[1] / "configs")
    names = [name for name, _ in runs]
    assert len(set(names)) == len(names)
    configs = sorted(p.stem for p in (SCRIPT.parents[1] / "configs").glob("*.yaml"))
    assert names[:len(configs)] == configs
    trees = dict(runs)
    assert {trees[n]["finetune"]["rollin"] for n in ("pcl_pretrained", "pcl_mixture")} == {
        "pretrained", f"mixture:{ss.MIXTURE_SWITCH}"}
    live = [n for n, t in runs if t.get("policy", {}).get("checkpoint")]
    assert sorted(trees[n]["finetune"]["algorithm"] for n in live) == ["pcl", "weighted-mle"]
    # Every checkpoint a run reads is written by an earlier run.
    assert all(names.index(trees[n]["policy"]["checkpoint"].split("/")[0]) < names.index(n) for n in live)
    classifier = trees["classifier_ppo"]
    assert classifier["kind"] == "finetune" and classifier["finetune"]["algorithm"] == "ppo"
    assert classifier["reward"] == trees["guide_posterior"]["reward"] == {"kind": "classifier", "label": 1}

"""Self-tests of the benchmark's own logic (no tiltlab run needed).

    python3 -m pytest perfbench -q
"""

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import phases  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_direct_children():
    clock = FakeClock()
    tr = tracer.Tracer(clock=clock)

    def leaf(dt):
        clock.now += dt

    def mid():
        clock.now += 1.0
        traced_leaf(2.0)
        traced_leaf(0.5)
        clock.now += 0.25

    traced_leaf = tracer._wrap(tr, leaf, "leaf", counted=False)
    traced_mid = tracer._wrap(tr, mid, "mid", counted=False)
    traced_mid()
    clock.now += 3.0  # benchmark time between root spans
    traced_leaf(1.0)

    self_s = tr.self_times()
    assert self_s == {"mid": pytest.approx(1.25), "leaf": pytest.approx(3.5)}
    assert tr.calls() == {"mid": 1, "leaf": 3}
    wall = clock.now
    assert sum(self_s.values()) + (wall - tr.root_time()) == pytest.approx(wall)
    assert list(tr.parent) == [-1, 0, 0, -1]


def test_every_span_reports_its_self_time():
    # Needed for the self times plus bench.own_s to add up to the traced wall.
    spans = {span for *_, span in tracer.FUNCTIONS + tracer.METHODS} | {tracer.TAPE_SPAN}
    layer_names = {name for name, _ in tracer.LAYER_METRICS}
    expected = {f"{s}.self_s" for s in spans - {tracer.TAPE_SPAN}} | {"autodiff.tape.op_self_s"}
    assert expected <= layer_names


def test_paused_tracer_records_nothing():
    tr = tracer.Tracer()
    f = tracer._wrap(tr, lambda: 7, "f", counted=False)
    with tr.pause():
        assert f() == 7
    assert len(tr.start) == 0


@pytest.mark.parametrize("n, expected", [
    (9, None),
    (19, None),
    (20, (50.0, 9)),
    (39, (50.0, 19)),
    (40, (75.0, 29)),
    (100, (90.0, 89)),
    (1000, (99.0, 989)),
    (10000, (99.9, 9989)),
])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, expected):
    samples = [float(i) for i in range(n)][::-1]  # order must not matter
    got = run.tail_percentile(samples)
    if expected is None:
        assert got is None
    else:
        assert got == (expected[0], float(expected[1]))
        assert sum(1 for x in samples if x > got[1]) >= 10


def test_wrong_output_counts_as_failed_operation():
    rec = phases.Recorder()
    rec.op("good", lambda: 1.0, lambda out: None)
    rec.op("bad", lambda: 1.0, lambda out: "deliberately wrong")
    rec.op("raises", lambda: 1 / 0, lambda out: None)
    rec.op("check_raises", lambda: 1.0, lambda out: out.missing)
    assert (rec.attempted, rec.failed) == (4, 3)
    assert set(rec.samples) == {"good"}
    assert len(rec.failures) == 3


def test_oracle_checks_reject_wrong_samples():
    ctx = SimpleNamespace(chain=SimpleNamespace(terminal_mean=0.0, terminal_var=1.0))
    x = np.random.default_rng(0).standard_normal((10000, 1))
    assert phases.check_residual(ctx, x) is None
    assert phases.check_residual(ctx, x + 0.1) is not None
    assert phases.check_residual(ctx, 1.2 * x) is not None
    assert phases.check_posterior(np.abs(x) + 0.1) is None
    assert phases.check_posterior(x) is not None
    diag = {"mean_shift_norm_per_step": [0.1, 0.2]}
    assert phases.check_guided((x + 0.5, diag), x) is None
    assert phases.check_guided((x - 0.5, diag), x) is not None


def test_steppers_alternate_calls_and_capture_errors():
    order = []

    def make(name, steps, fail=False):
        def call(callback):
            for i in range(steps):
                order.append(name)
                callback(i)
            if fail:
                raise ValueError(name)
            return name
        return call

    steppers = [phases.Stepper(make("a", 3)), phases.Stepper(make("b", 1, fail=True)),
                phases.Stepper(make("c", 2))]
    for _ in range(2):
        for s in steppers:
            s.step()
    assert order == ["a", "b", "c", "a", "c"]
    results = [s.finish() for s in steppers]
    assert order == ["a", "b", "c", "a", "c", "a"]
    assert results[0] == "a" and isinstance(results[1], ValueError) and results[2] == "c"
    assert [len(s.times) for s in steppers] == [3, 1, 2]


def _fake_phase(samples, sizes):
    return {"samples": samples, "sizes": sizes, "peak_rss_mb": 100.0}


def test_printed_names_equal_benchmark_json():
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    samples = {key: [1.0, 2.0, 3.0] for _, key, kind in run.END_TO_END.values() if key}
    sizes = {key: 10 for _, key, kind in run.END_TO_END.values() if kind == "rate"}
    results = {"finetune": _fake_phase(samples, sizes), "guide": _fake_phase({}, {}),
               "oracle": _fake_phase({}, {})}
    summary = {"attempted": 1, "failed": 0,
               "end_to_end": run.end_to_end(results, "finetune", [0.5, 0.6, 0.7]),
               "per_layer": tracer.layer_metrics({})}
    for trace, names in ((False, e2e), (True, layers)):
        line = run.result_line(summary, trace)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert {k: m["unit"] for k, m in line["metrics"].items()} == names
    assert line["correct"] is True
    assert {m["better"] for m in SPEC["end_to_end"] if m["name"] == "setup_s"} == {"lower"}
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert set(run.BASE_ROUNDS) == set(run.PHASES) == set(phases.PHASES)


def test_rate_metrics_divide_batch_by_median_seconds():
    results = {"guide": _fake_phase({"residual_traj_per_s": [2.0, 1.0, 4.0]},
                                    {"residual_traj_per_s": 10000})}
    rec = run.end_to_end(results, "guide", [1.0])["residual_traj_per_s"]
    assert rec["value"] == pytest.approx(5000.0) and rec["samples"] == 3


def test_rounds_scale_with_seconds():
    assert run.phase_rounds(run.REFERENCE_S) == run.BASE_ROUNDS
    assert run.phase_rounds(2 * run.REFERENCE_S) == {p: 2 * n for p, n in run.BASE_ROUNDS.items()}
    assert min(run.phase_rounds(1.0).values()) == 1


def test_interleave_spreads_every_phase_over_the_run():
    order = run.interleave({"a": 2, "b": 6, "c": 3})
    assert sorted(order) == sorted("aabbbbbbccc")
    assert order == list("bcabbcbabcb")
    for phase, n in (("a", 2), ("b", 6), ("c", 3)):
        at = [i for i, p in enumerate(order) if p == phase]
        gaps = [j - i for i, j in zip(at, at[1:])]
        assert max(gaps) <= -(-len(order) // n) + 1

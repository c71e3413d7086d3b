"""Span tracing of tiltlab's public functions, installed from the benchmark.

Nothing inside ``src/`` is edited: :func:`install` re-binds each traced
function in its defining module and in every module that imported it by
name, and wraps ``Tape`` op methods and the other traced methods at class
level. Each call becomes a span (name, start, end, parent) held in memory;
:meth:`Tracer.raw` turns the spans into additive per-layer sums and
:func:`layer_metrics` turns summed raws into the per-layer metrics.

This module imports only the standard library, so importing it adds
nothing to a phase's set-up time.
"""

from __future__ import annotations

import functools
import gc
import sys
import time
from array import array
from contextlib import contextmanager

# Public functions traced, by defining module: (module, attribute, span name).
FUNCTIONS = [
    ("tiltlab.autodiff.tape", "gradient", "autodiff.gradient"),
    ("tiltlab.autodiff.nets", "evaluate", "autodiff.evaluate"),
    ("tiltlab.autodiff.nets", "forward_on_tape", "autodiff.forward_on_tape"),
    ("tiltlab.autodiff.optim", "adam_step", "autodiff.adam_step"),
    ("tiltlab.gaussmix", "score", "gaussmix.score"),
    ("tiltlab.gaussmix", "score_and_hessian", "gaussmix.score_and_hessian"),
    ("tiltlab.gaussmix", "component_posterior_grad", "gaussmix.component_posterior_grad"),
    ("tiltlab.diffusion.policy", "reverse_mean", "diffusion.reverse_mean"),
    ("tiltlab.diffusion.policy", "sample_trajectory", "diffusion.sample_trajectory"),
    ("tiltlab.diffusion.policy", "log_probs_under", "diffusion.log_probs_under"),
    ("tiltlab.diffusion.policy", "reverse_mean_on_tape", "diffusion.reverse_mean_on_tape"),
    ("tiltlab.finetune.common", "differentiable_rollout", "finetune.differentiable_rollout"),
    ("tiltlab.finetune.common", "rollin_trajectory", "finetune.rollin_trajectory"),
    ("tiltlab.finetune.common", "step_kl_terms", "finetune.step_kl_terms"),
    ("tiltlab.finetune.weighted_mle", "collect_mle_tuples", "finetune.collect_mle_tuples"),
    ("tiltlab.finetune.ppo", "ppo_signals", "finetune.ppo_signals"),
    ("tiltlab.finetune.pcl", "pcl_residual_arrays", "finetune.pcl_residual_arrays"),
    ("tiltlab.finetune.ppo", "ppo_iteration", "finetune.iteration"),
    ("tiltlab.finetune.backprop", "reward_backprop_iteration", "finetune.iteration"),
    ("tiltlab.finetune.weighted_mle", "reward_weighted_mle_iteration", "finetune.iteration"),
    ("tiltlab.finetune.pcl", "pcl_iteration", "finetune.iteration"),
    ("tiltlab.rewards", "eval_reward", "rewards.eval_reward"),
    ("tiltlab.rewards", "reward_on_tape", "rewards.reward_on_tape"),
    ("tiltlab.rewards", "grad_reward", "rewards.grad_reward"),
    ("tiltlab.guidance.sources", "path_integral_grad", "guidance.path_integral_grad"),
    ("tiltlab.guidance.value_models", "fit_value_mc", "guidance.fit_value_mc"),
    ("tiltlab.guidance.sampling", "value_weighted_sample", "guidance.value_weighted_sample"),
    ("tiltlab.oracle.grid", "grid_build", "oracle.grid_build"),
    ("tiltlab.oracle.grid", "grid_soft_solve", "oracle.grid_soft_solve"),
    ("tiltlab.oracle.grid", "verify_theorems", "oracle.verify_theorems"),
    ("tiltlab.oracle.mala", "mala_sample", "oracle.mala_sample"),
    ("tiltlab.harness.config", "validate_config", "harness.validate_config"),
    ("tiltlab.harness.runner", "run_experiment", "harness.run_experiment"),
]

# Methods traced at class level: (module, class, method, span name).
METHODS = [
    ("tiltlab.diffusion.base", "GaussianMixture", "marginal_at", "diffusion.marginal_at"),
    ("tiltlab.guidance.sources", "MixturePosteriorShift", "shift", "guidance.posterior_shift"),
    ("tiltlab.guidance.sources", "TweedieShift", "shift", "guidance.tweedie_shift"),
    ("tiltlab.guidance.sources", "FittedValueShift", "shift", "guidance.fitted_shift"),
    ("tiltlab.guidance.sources", "PathIntegralShift", "shift", "guidance.path_integral_shift"),
    ("tiltlab.guidance.value_models", "ValueModel", "grad_x", "guidance.grad_x"),
]

TAPE_OPS = ("constant", "param", "add", "sub", "mul", "scale", "shift", "matmul", "affine",
            "concat_cols", "tanh", "relu", "exp", "log", "square", "minimum", "clip",
            "sumall", "sum_cols", "gaussian_logpdf", "mixture_eps")
TAPE_SPAN = "autodiff.tape.op"
SHIFT_SPANS = ("guidance.posterior_shift", "guidance.tweedie_shift",
               "guidance.fitted_shift", "guidance.path_integral_shift")

# Per-layer metrics in output order: (name, unit).
LAYER_METRICS = [
    ("autodiff.tape.ops", "count"),
    ("autodiff.tape.op_self_s", "s"),
    ("autodiff.gradient.calls", "count"),
    ("autodiff.gradient.self_s", "s"),
    ("autodiff.gradient.tape_nodes", "count"),
    ("autodiff.gradient.needed_share", "ratio"),
    ("autodiff.evaluate.calls", "count"),
    ("autodiff.evaluate.rows", "count"),
    ("autodiff.evaluate.self_s", "s"),
    ("autodiff.forward_on_tape.self_s", "s"),
    ("autodiff.adam_step.calls", "count"),
    ("autodiff.adam_step.self_s", "s"),
    ("gaussmix.score.rows", "count"),
    ("gaussmix.score.self_s", "s"),
    ("gaussmix.score_and_hessian.rows", "count"),
    ("gaussmix.score_and_hessian.self_s", "s"),
    ("gaussmix.component_posterior_grad.self_s", "s"),
    ("diffusion.marginal_at.calls", "count"),
    ("diffusion.marginal_at.self_s", "s"),
    ("diffusion.marginal_at_per_reverse_mean", "ratio"),
    ("diffusion.reverse_mean.calls", "count"),
    ("diffusion.reverse_mean.rows", "count"),
    ("diffusion.reverse_mean.self_s", "s"),
    ("diffusion.sample_trajectory.self_s", "s"),
    ("diffusion.log_probs_under.self_s", "s"),
    ("diffusion.reverse_mean_on_tape.self_s", "s"),
    ("finetune.differentiable_rollout.self_s", "s"),
    ("finetune.rollin_trajectory.self_s", "s"),
    ("finetune.collect_mle_tuples.self_s", "s"),
    ("finetune.step_kl_terms.self_s", "s"),
    ("finetune.ppo_signals.self_s", "s"),
    ("finetune.pcl_residual_arrays.self_s", "s"),
    ("finetune.iteration.self_s", "s"),
    ("finetune.collect_mle_tuples.rows_per_tuple", "ratio"),
    ("rewards.eval_reward.self_s", "s"),
    ("rewards.reward_on_tape.self_s", "s"),
    ("rewards.grad_reward.self_s", "s"),
    ("guidance.shift.calls", "count"),
    ("guidance.shift_calls_per_step", "ratio"),
    ("guidance.posterior_shift.self_s", "s"),
    ("guidance.tweedie_shift.self_s", "s"),
    ("guidance.fitted_shift.self_s", "s"),
    ("guidance.path_integral_shift.self_s", "s"),
    ("guidance.path_integral_grad.calls", "count"),
    ("guidance.path_integral_grad.self_s", "s"),
    ("guidance.path_integral_grad.ess_mean", "count"),
    ("guidance.grad_x.self_s", "s"),
    ("guidance.fit_value_mc.self_s", "s"),
    ("guidance.value_weighted_sample.self_s", "s"),
    ("oracle.grid_build.self_s", "s"),
    ("oracle.grid_soft_solve.self_s", "s"),
    ("oracle.verify_theorems.self_s", "s"),
    ("oracle.mala_sample.self_s", "s"),
    ("oracle.grid.cells", "count"),
    ("oracle.mala.density_calls", "count"),
    ("oracle.mala.acceptance", "ratio"),
    ("harness.import_s", "s"),
    ("harness.validate_config.self_s", "s"),
    ("harness.run_experiment.self_s", "s"),
    ("harness.artifact_bytes", "bytes"),
    ("runtime.gc.pause_s", "s"),
    ("runtime.gc.collected", "count"),
    ("runtime.trace_overhead", "ratio"),
    ("bench.own_s", "s"),
    ("bench.traced_wall_s", "s"),
]


class Tracer:
    """In-memory span store; spans nest through a stack of open spans."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("q")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.paused = False
        self.gc_pause = 0.0
        self.gc_collected = 0
        self._gc_t0 = None

    # -- recording -------------------------------------------------------

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.start.append(self.clock())
        self.end.append(0.0)
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self.stack.pop()

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value

    def inside(self, name: str) -> bool:
        nid = self._ids.get(name)
        return nid is not None and any(self.name_id[i] == nid for i in self.stack)

    @contextmanager
    def pause(self):
        """Calls made inside (the benchmark's own checks) record no spans."""
        was, self.paused = self.paused, True
        try:
            yield
        finally:
            self.paused = was

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_t0 = time.perf_counter()
        elif self._gc_t0 is not None:
            self.gc_pause += time.perf_counter() - self._gc_t0
            self.gc_collected += int(info.get("collected", 0))
            self._gc_t0 = None

    # -- reduction --------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Span duration minus the time its direct children cover, summed by name."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, float] = {}
        for i in range(n):
            name = self.names[self.name_id[i]]
            out[name] = out.get(name, 0.0) + (self.end[i] - self.start[i] - child[i])
        return out

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for nid in self.name_id:
            name = self.names[nid]
            out[name] = out.get(name, 0) + 1
        return out

    def root_time(self) -> float:
        return sum(self.end[i] - self.start[i] for i in range(len(self.start)) if self.parent[i] < 0)

    def raw(self) -> dict[str, float]:
        """Additive sums (self times, calls, counters) that phases can add up."""
        out = {f"self:{k}": v for k, v in self.self_times().items()}
        out.update({f"calls:{k}": float(v) for k, v in self.calls().items()})
        out.update(self.counts)
        out["runtime.gc.pause_s"] = self.gc_pause
        out["runtime.gc.collected"] = float(self.gc_collected)
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("index,name,start,end,parent\n")
            for i in range(len(self.start)):
                fh.write(f"{i},{self.names[self.name_id[i]]},{self.start[i]!r},"
                         f"{self.end[i]!r},{self.parent[i]}\n")


def layer_metrics(raw: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics from summed raws; ratios are taken of the sums."""
    def self_s(name):
        return raw.get(f"self:{name}", 0.0)

    def calls(name):
        return raw.get(f"calls:{name}", 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    out = {
        "autodiff.tape.ops": calls(TAPE_SPAN),
        "autodiff.tape.op_self_s": self_s(TAPE_SPAN),
        "autodiff.gradient.needed_share": ratio(raw.get("gradient.needed", 0.0),
                                                raw.get("gradient.tape_nodes", 0.0)),
        "autodiff.gradient.tape_nodes": raw.get("gradient.tape_nodes", 0.0),
        "diffusion.marginal_at_per_reverse_mean": ratio(calls("diffusion.marginal_at"),
                                                        calls("diffusion.reverse_mean")),
        "finetune.collect_mle_tuples.rows_per_tuple": ratio(raw.get("mle.rows", 0.0),
                                                            raw.get("mle.tuples", 0.0)),
        "guidance.shift.calls": sum(calls(n) for n in SHIFT_SPANS),
        "guidance.shift_calls_per_step": ratio(sum(calls(n) for n in SHIFT_SPANS),
                                               raw.get("guided.steps", 0.0)),
        "guidance.path_integral_grad.ess_mean": ratio(raw.get("pi.ess", 0.0),
                                                      calls("guidance.path_integral_grad")),
        "oracle.grid.cells": raw.get("grid.cells", 0.0),
        "oracle.mala.density_calls": raw.get("mala.density_calls", 0.0),
        "oracle.mala.acceptance": ratio(raw.get("mala.acceptance", 0.0),
                                        calls("oracle.mala_sample")),
        "harness.import_s": raw.get("harness.import_s", 0.0),
        "harness.artifact_bytes": raw.get("harness.artifact_bytes", 0.0),
        "runtime.gc.pause_s": raw.get("runtime.gc.pause_s", 0.0),
        "runtime.gc.collected": raw.get("runtime.gc.collected", 0.0),
        "runtime.trace_overhead": raw.get("runtime.trace_overhead", 0.0),
        "bench.own_s": raw.get("bench.own_s", 0.0),
        "bench.traced_wall_s": raw.get("bench.traced_wall_s", 0.0),
    }
    for name, _ in LAYER_METRICS:
        if name in out:
            continue
        layer, _, field = name.rpartition(".")
        if field == "self_s":
            out[name] = self_s(layer)
        elif field == "calls":
            out[name] = calls(layer)
        elif field == "rows":
            out[name] = raw.get(f"rows:{layer}", 0.0)
        else:  # pragma: no cover - every name above has a rule
            raise KeyError(name)
    return {name: out[name] for name, _ in LAYER_METRICS}


# -- installation -----------------------------------------------------------


def _rows(x) -> int:
    shape = getattr(x, "shape", ())
    return int(shape[0]) if len(shape) == 2 else 1


def _needed(output) -> int:
    """Ancestors of ``output`` on its tape: the nodes the backward sweep visits."""
    nodes = output.tape.nodes
    seen = {output.idx}
    stack = [output.idx]
    while stack:
        for p in nodes[stack.pop()].parents:
            if p not in seen:
                seen.add(p)
                stack.append(p)
    return len(seen)


def _artifact_bytes(out_dir) -> int:
    from pathlib import Path

    return sum(p.stat().st_size for p in Path(out_dir).rglob("*") if p.is_file())


def _before_after(tr: Tracer, name: str, args, kwargs):
    """Per-span counters; returns (args, a callable run on the result or None)."""
    if name in ("autodiff.evaluate", "gaussmix.score", "gaussmix.score_and_hessian"):
        tr.add(f"rows:{name}", _rows(args[1] if name == "autodiff.evaluate" else args[0]))
    elif name == "diffusion.reverse_mean":
        rows = _rows(args[1])
        tr.add("rows:diffusion.reverse_mean", rows)
        if tr.inside("finetune.collect_mle_tuples"):
            tr.add("mle.rows", rows)
    elif name == "autodiff.gradient":
        tr.add("gradient.tape_nodes", len(args[0].tape.nodes))
        return args, lambda res: tr.add("gradient.needed", _needed(args[0]))
    elif name == "finetune.collect_mle_tuples":
        return args, lambda res: tr.add("mle.tuples", res[0].shape[0] * res[0].shape[1])
    elif name == "guidance.path_integral_grad":
        return args, lambda res: tr.add("pi.ess", float(res[1]))
    elif name == "guidance.value_weighted_sample":
        tr.add("guided.steps", args[0].pre_policy.schedule.n_steps)
    elif name == "oracle.grid_build":
        return args, lambda res: tr.add("grid.cells", res.trans.size)
    elif name == "oracle.mala_sample":
        density = args[0]

        def counted(x):
            tr.add("mala.density_calls", 1)
            return density(x)

        return (counted, *args[1:]), lambda res: tr.add("mala.acceptance", res.acceptance_rate)
    elif name == "harness.run_experiment":
        out_dir = args[1] if len(args) > 1 else kwargs["out_dir"]
        return args, lambda res: tr.add("harness.artifact_bytes", _artifact_bytes(out_dir))
    return args, None


def _wrap(tr: Tracer, fn, name: str, counted: bool):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if tr.paused:
            return fn(*args, **kwargs)
        after = None
        if counted:
            args, after = _before_after(tr, name, args, kwargs)
        idx = tr.open(name)
        try:
            res = fn(*args, **kwargs)
        finally:
            tr.close(idx)
        if after is not None:
            after(res)
        return res

    return traced


def install(tr: Tracer, extra_modules=()) -> None:
    """Trace every listed function and method for the rest of the process."""
    import importlib

    for mod_name, attr, span in FUNCTIONS:
        original = getattr(importlib.import_module(mod_name), attr)
        wrapped = _wrap(tr, original, span, counted=True)
        for mod in list(sys.modules.values()) + list(extra_modules):
            name = getattr(mod, "__name__", "") or ""
            if not (name.startswith("tiltlab") or mod in extra_modules):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
    for mod_name, cls_name, meth, span in METHODS:
        cls = getattr(importlib.import_module(mod_name), cls_name)
        setattr(cls, meth, _wrap(tr, getattr(cls, meth), span, counted=False))
    tape_cls = importlib.import_module("tiltlab.autodiff.tape").Tape
    for op in TAPE_OPS:
        setattr(tape_cls, op, _wrap(tr, getattr(tape_cls, op), TAPE_SPAN, counted=False))
    gc.callbacks.append(tr._on_gc)

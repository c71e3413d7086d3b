"""One benchmark phase in its own fresh process.

    python3 perfbench/phases.py --phase {finetune,guide,oracle} --seed N --rounds K
                                --work DIR [--trace] [--setup-only]

The phase times its set-up (from just before the first tiltlab import to
the first timed operation) and prints a ready line with the number of
steps its K rounds take. A step is one timed operation (one iteration, for
finetune). The phase runs one step for each "step" line on standard
input, answering "ok", so ``run.py`` can interleave the steps of the three
phases evenly over a run. The
loop is closed with one client: each operation starts when the previous
one and its correctness check have finished. Every operation is checked
against an exact oracle; a failed check or a raised error counts the
operation as failed. After the last round the phase prints one JSON
object with the raw samples, which ``run.py`` turns into metrics.

Only the standard library is imported before set-up timing starts.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import resource
import shutil
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from types import SimpleNamespace

import tracer as tracing

# The linear-Gaussian problem shared by the finetune and guide phases.
STEPS, HORIZON, HIDDEN, ALPHA = 64, 8.0, (24, 24), 1.0
FT_BATCH = 256
# Iterations per round of each algorithm's run_finetune call. PCL starts
# from a random value net, so its first iterations can move the policy away
# from the target: its check needs about 50 iterations (see NOTES.md).
FT_ITERS = {"backprop": 4, "ppo": 4, "pcl": 17, "weighted-mle": 1}
FT_METRICS = {"backprop": "backprop_iter_s", "ppo": "ppo_iter_s", "pcl": "pcl_iter_s",
              "weighted-mle": "wmle_iter_s"}
EVAL_BATCH = 2048
# Guide operations: batch sizes, and the order of one round.
GUIDE_BATCH = {"residual": 10000, "posterior": 10000, "tweedie": 2000, "mc": 2000,
               "path_integral": 1}
GUIDE_ROUND = ("residual", "posterior", "tweedie", "mc", "path_integral")
FIT = dict(budget=2000, batch=2048, hidden=(32, 32), steps=100)
PI_ROLLOUTS = 256
POSTERIOR_LABEL = 1
# Oracle: one grid DP (alpha cycling through GRID_ALPHAS) and six MALA runs
# per round. The core speed of a shared host drifts within seconds, so MALA
# takes many short samples spread over the run rather than a few long ones.
ORACLE_ROUND = ("mala", "mala", "mala", "grid", "mala", "mala", "mala")
GRID_ALPHAS = (0.05, 1.0, 20.0)
MALA_DRAWS = 10000
MALA_BATCHES = 50
EXACT_TOL = 1e-10
SE_TOL = 4.0

# Stream branches of the benchmark's own draws (tiltlab uses 0..5).
BRANCH_BENCH = 100


class Recorder:
    """Runs timed operations, checks them, and keeps samples and failures."""

    def __init__(self, tr: tracing.Tracer | None = None):
        self.tr = tr
        self.samples: dict[str, list[float]] = {}
        self.sizes: dict[str, int] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.op_s = 0.0

    def _fail(self, units: int, metric: str, why: str) -> None:
        self.failed += units
        self.failures.append(f"{metric}: {why}")

    def op(self, metric: str, fn, check, units: int = 1, size: int | None = None):
        """Time ``fn()``, then check its output (see :meth:`record`).
        Returns the output, or None when the operation failed."""
        self.attempted += units
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:  # a raised error is a failed operation
            out = exc
        dt = time.perf_counter() - t0
        self.op_s += dt
        return self.record(metric, out, check, units, [dt], size)

    def record(self, metric: str, out, check, units: int, samples: list[float],
               size: int | None = None):
        """Keep ``samples`` when ``out`` is not an exception and ``check(out)``
        returns None; otherwise count ``units`` failed operations."""
        if isinstance(out, Exception):
            self._fail(units, metric, f"raised {out!r}")
            return None
        with self.paused():
            try:
                problem = check(out)
            except Exception as exc:
                problem = f"check raised {exc!r}"
        if problem:
            self._fail(units, metric, problem)
            return None
        self.samples.setdefault(metric, []).extend(samples)
        if size is not None:
            self.sizes[metric] = size
        return out

    def paused(self):
        """The benchmark's own work (checks, references) records no spans."""
        return self.tr.pause() if self.tr else nullcontext()

    def skip(self, metric: str, units: int, why: str) -> None:
        self.attempted += units
        self._fail(units, metric, why)


def _rng(seed: int, *branch: int):
    from tiltlab.streams import make_rng

    return make_rng(seed, BRANCH_BENCH, *branch)


# -- finetune -------------------------------------------------------------


def setup_finetune(seed: int, work: Path) -> SimpleNamespace:
    from tiltlab.diffusion import GaussianMixture, PolicyNet, add_residual_net, make_schedule
    from tiltlab.oracle import chain_stats
    from tiltlab.rewards import LinearReward

    sched = make_schedule(STEPS, HORIZON)
    base = GaussianMixture.std_normal(1)
    pre = add_residual_net(PolicyNet(sched, base=base), _rng(seed, 0), hidden=HIDDEN)
    target_mean, _ = chain_stats(sched, base).tilted_terminal(1.0, ALPHA)
    return SimpleNamespace(pre=pre, reward=LinearReward([1.0]), target_mean=target_mean)


def check_finetune(ctx, seed: int, result, pre_mean: float) -> str | None:
    import numpy as np
    from tiltlab.diffusion import sample_trajectory

    for rec in result.records:
        vals = (rec.mean_reward, rec.kl_estimate, rec.loss, rec.grad_norm)
        if not all(math.isfinite(v) for v in vals):
            return f"non-finite record at iteration {rec.iteration}"
    if result.records[0].kl_estimate != 0.0:
        return f"iteration 0 kl_estimate {result.records[0].kl_estimate!r} != 0"
    final_mean = float(np.mean(sample_trajectory(result.policy, _rng(seed, 1), EVAL_BATCH).terminal))
    if not abs(final_mean - ctx.target_mean) < abs(pre_mean - ctx.target_mean):
        return (f"terminal mean {final_mean:.4f} not closer to the tilted target "
                f"{ctx.target_mean:.4f} than the pre-trained {pre_mean:.4f}")
    return None


class Stepper:
    """Runs ``fn(callback)`` on a thread, one step at a time: :meth:`step`
    resumes the call and returns when it reaches its next callback (or
    returns), so the main thread decides which call runs next and only one
    runs at any moment."""

    def __init__(self, fn):
        import threading

        self._go = threading.Semaphore(0)
        self._back = threading.Semaphore(0)
        self.result = None
        self.done = False
        self.times: list[float] = []
        self._thread = threading.Thread(target=self._run, args=(fn,), daemon=True)
        self._thread.start()

    def _run(self, fn):
        self._go.acquire()
        try:
            self.result = fn(self._callback)
        except Exception as exc:  # reported as a failed operation
            self.result = exc
        self.done = True
        self._back.release()

    def _callback(self, *_):
        self._back.release()
        self._go.acquire()

    def step(self) -> float:
        """Run to the next callback; the seconds are kept as one iteration."""
        if self.done:
            return 0.0
        t0 = time.perf_counter()
        self._go.release()
        self._back.acquire()
        dt = time.perf_counter() - t0
        if not self.done:
            self.times.append(dt)
        return dt

    def finish(self):
        while not self.done:
            self.step()
        self._thread.join()
        return self.result


def run_finetune_phase(ctx, rec: Recorder, rounds: int, seed: int):
    import numpy as np
    from tiltlab.diffusion import sample_trajectory
    from tiltlab.finetune import FineTuneConfig, run_finetune

    # One run_finetune call per algorithm, stepped one iteration at a time
    # and interleaved, so every algorithm's iterations are spread over all
    # rounds of the run instead of one window of it.
    cfgs = {alg: FineTuneConfig(alg, alpha=ALPHA, batch=FT_BATCH, iterations=FT_ITERS[alg] * rounds,
                                seed=seed) for alg in FT_METRICS}
    steppers = {alg: Stepper(lambda cb, cfg=cfg: run_finetune(ctx.pre, ctx.reward, cfg, callback=cb))
                for alg, cfg in cfgs.items()}
    with rec.paused():
        pre_mean = float(np.mean(sample_trajectory(ctx.pre, _rng(seed, 1), EVAL_BATCH).terminal))
    order = []  # one round: the algorithms' iterations, interleaved
    quota = dict(FT_ITERS)
    while any(quota.values()):
        for alg in FT_METRICS:
            if quota[alg]:
                quota[alg] -= 1
                order.append(alg)
    for r in range(rounds):
        for k, alg in enumerate(order):
            rec.op_s += steppers[alg].step()
            if r == rounds - 1 and k == len(order) - 1:
                for a, metric in FT_METRICS.items():
                    result = steppers[a].finish()
                    rec.attempted += cfgs[a].iterations
                    rec.record(metric, result, lambda res: check_finetune(ctx, seed, res, pre_mean),
                               cfgs[a].iterations, steppers[a].times)
            yield


# -- guide ------------------------------------------------------------------


def setup_guide(seed: int, work: Path) -> SimpleNamespace:
    import numpy as np
    from tiltlab.diffusion import GaussianMixture, PolicyNet, add_residual_net, make_schedule
    from tiltlab.oracle import chain_stats
    from tiltlab.rewards import LinearReward

    sched = make_schedule(STEPS, HORIZON)
    base = GaussianMixture.std_normal(1)
    pre = add_residual_net(PolicyNet(sched, base=base), _rng(seed, 0), hidden=HIDDEN)
    # The two-mode base of configs/guide_posterior.yaml.
    two_modes = GaussianMixture(np.array([0.5, 0.5]), np.array([[-3.0], [3.0]]), np.array([1.0, 1.0]))
    pre_two = add_residual_net(PolicyNet(sched, base=two_modes), _rng(seed, 0), hidden=HIDDEN)
    cs = chain_stats(sched, base)
    return SimpleNamespace(pre=pre, pre_two=pre_two, two_modes=two_modes, sched=sched,
                           reward=LinearReward([1.0]), chain=cs)


def check_residual(ctx, x) -> str | None:
    import numpy as np

    n = x.shape[0]
    mean, var = float(x.mean()), float(x.var())
    m_t, v_t = ctx.chain.terminal_mean, ctx.chain.terminal_var
    se_mean, se_var = math.sqrt(v_t / n), v_t * math.sqrt(2.0 / (n - 1))
    if not np.all(np.isfinite(x)):
        return "non-finite samples"
    if abs(mean - m_t) > SE_TOL * se_mean or abs(var - v_t) > SE_TOL * se_var:
        return f"moments ({mean:.4f}, {var:.4f}) off the chain marginal ({m_t:.4f}, {v_t:.4f})"
    return None


def check_posterior(x) -> str | None:
    import numpy as np

    frac = float(np.mean(x[:, 0] > 0.0))
    if not np.all(np.isfinite(x)) or frac < 0.95:
        return f"label-side fraction {frac:.4f} < 0.95"
    return None


def check_guided(out, unguided) -> str | None:
    """Guided samples are finite and their mean reward beats the unguided
    chain driven by the same noises (a paired comparison)."""
    import numpy as np

    x, diag = out
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(diag["mean_shift_norm_per_step"]))):
        return "non-finite samples or shifts"
    gain = float(x[:, 0].mean() - unguided[:, 0].mean())
    return None if gain > 0.0 else f"mean reward gain {gain:.4f} over the unguided chain"


def run_guide_phase(ctx, rec: Recorder, rounds: int, seed: int):
    from tiltlab.diffusion import sample_trajectory
    from tiltlab.guidance import (
        FittedValueShift,
        GuidedPolicy,
        MixturePosteriorShift,
        PathIntegralShift,
        TweedieShift,
        fit_value_mc,
        value_weighted_sample,
    )

    def check_fit(vm):
        return None if math.isfinite(vm.report["final_loss"]) else "non-finite value-fit loss"

    tweedie = TweedieShift(ctx.pre, ctx.reward, ALPHA)
    path_integral = PathIntegralShift(ctx.pre, ctx.reward, ALPHA, PI_ROLLOUTS, _rng(seed, 3))
    posterior = GuidedPolicy(ctx.pre_two, MixturePosteriorShift(ctx.two_modes, ctx.sched,
                                                                 POSTERIOR_LABEL, ALPHA), ALPHA)
    i = 0
    for r in range(rounds):
        vm = rec.op("value_fit_s",
                    lambda: fit_value_mc(ctx.pre, ctx.reward, ALPHA, _rng(seed, 2, r), **FIT), check_fit)
        yield
        sources = {"tweedie": tweedie, "path_integral": path_integral,
                   "mc": FittedValueShift(vm) if vm is not None else None}
        for name in GUIDE_ROUND:
            i += 1
            n = GUIDE_BATCH[name]
            metric = f"{name}_traj_per_s"
            if name == "residual":
                rec.op(metric, lambda: sample_trajectory(ctx.pre, _rng(seed, 4, i), n).terminal,
                       lambda x: check_residual(ctx, x), size=n)
            elif name == "posterior":
                rec.op(metric, lambda: value_weighted_sample(posterior, _rng(seed, 4, i), n)[0],
                       check_posterior, size=n)
            elif sources[name] is None:
                rec.skip(metric, 1, "no fitted value model")
            else:
                guided = GuidedPolicy(ctx.pre, sources[name], ALPHA)
                rec.op(metric, lambda: value_weighted_sample(guided, _rng(seed, 4, i), n),
                       lambda out: check_guided(
                           out, sample_trajectory(ctx.pre, _rng(seed, 4, i), n).terminal),
                       size=n)
            yield


# -- oracle -------------------------------------------------------------------


def setup_oracle(seed: int, work: Path) -> SimpleNamespace:
    t0 = time.perf_counter()
    import tiltlab.harness.runner  # noqa: F401  (the import `tiltlab oracle` pays)

    import_s = time.perf_counter() - t0

    def grid_cfg(alpha):
        return {
            "kind": "oracle", "seed": seed,
            "base": {"kind": "mixture", "weights": [0.5, 0.5], "means": [[-2.0], [2.0]],
                     "stds": [1.0, 1.0]},
            "schedule": {"steps": STEPS, "horizon": HORIZON},
            "policy": {"kind": "analytic"},
            "reward": {"kind": "linear", "a": [1.0]},
            "oracle": {"check": "grid", "alpha": alpha, "steps": STEPS,
                       "grid": {"lo": -12.0, "hi": 12.0, "n": 401}},
        }

    def mala_cfg(op: int):
        return {"kind": "oracle", "seed": seed * 1000 + op,
                "oracle": {"check": "mala", "alpha": 1.0, "mean": 0.0, "var": 1.0, "slope": 1.0,
                           "samples": MALA_DRAWS, "step": 0.5}}

    return SimpleNamespace(import_s=import_s, work=work, grid_cfg=grid_cfg, mala_cfg=mala_cfg)


def _report(out: Path) -> dict:
    return json.loads((out / "oracle_report.jsonl").read_text().splitlines()[0])


def check_grid(code: int, out: Path, alpha: float) -> str | None:
    """Theorems 1-3 at 1e-10; constant spread and Bellman residual at 1e-10
    relative to the largest exp(v/alpha) in solved_grid.csv."""
    import numpy as np

    if code != 0:
        return f"exit code {code}"
    rep = _report(out)
    for key in ("theorem1_terminal_dev", "theorem2_marginal_dev", "theorem3_posterior_dev"):
        if not rep[key] <= EXACT_TOL:
            return f"{key} = {rep[key]:.3e}"
    values = np.loadtxt(out / "solved_grid.csv", delimiter=",", skiprows=1, usecols=3)
    scale = float(np.exp(values / alpha).max())
    for key in ("theorem2_constant_spread", "bellman_residual"):
        if not rep[key] / scale <= EXACT_TOL:
            return f"relative {key} = {rep[key] / scale:.3e}"
    return None


def check_mala(code: int, out: Path) -> str | None:
    """Mean and variance within 5 batch-means standard errors of the tilt."""
    import numpy as np

    if code != 0:
        return f"exit code {code}"
    rep = _report(out)
    x = np.loadtxt(out / "samples.csv", delimiter=",", skiprows=1)
    batches = x.reshape(MALA_BATCHES, -1)
    se_mean = batches.mean(axis=1).std(ddof=1) / math.sqrt(MALA_BATCHES)
    se_var = ((batches - rep["target_mean"]) ** 2).mean(axis=1).std(ddof=1) / math.sqrt(MALA_BATCHES)
    if abs(rep["sample_mean"] - rep["target_mean"]) > 5.0 * se_mean:
        return f"mean {rep['sample_mean']:.4f} vs tilt {rep['target_mean']:.4f}"
    if abs(rep["sample_var"] - rep["target_var"]) > 5.0 * se_var:
        return f"variance {rep['sample_var']:.4f} vs tilt {rep['target_var']:.4f}"
    return None


def run_oracle_phase(ctx, rec: Recorder, rounds: int, seed: int):
    from tiltlab.harness.runner import run_experiment

    i = 0
    for r in range(rounds):
        for kind in ORACLE_ROUND:
            i += 1
            out = ctx.work / f"{kind}-{i:03d}"
            if kind == "grid":
                alpha = GRID_ALPHAS[r % len(GRID_ALPHAS)]
                rec.op("grid_solve_s", lambda: run_experiment(ctx.grid_cfg(alpha), out),
                       lambda code: check_grid(code, out, alpha))
            else:
                rec.op("mala_samples_per_s", lambda: run_experiment(ctx.mala_cfg(i), out),
                       lambda code: check_mala(code, out), size=MALA_DRAWS)
            shutil.rmtree(out, ignore_errors=True)
            yield


# name -> (set-up, step generator, steps per round)
PHASES = {
    "finetune": (setup_finetune, run_finetune_phase, sum(FT_ITERS.values())),
    "guide": (setup_guide, run_guide_phase, 1 + len(GUIDE_ROUND)),
    "oracle": (setup_oracle, run_oracle_phase, len(ORACLE_ROUND)),
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--phase", choices=sorted(PHASES), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rounds", type=int, default=1)
    ap.add_argument("--work", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args(argv)
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    setup, run, per_round = PHASES[args.phase]
    n_steps = per_round * args.rounds

    t0 = time.perf_counter()
    ctx = setup(args.seed, work)
    result: dict = {"phase": args.phase, "setup_s": time.perf_counter() - t0}
    print(json.dumps({"ready": True, "setup_s": result["setup_s"], "steps": n_steps}), flush=True)
    if not args.setup_only:
        import warnings

        tr = None
        if args.trace:
            tr = tracing.Tracer()
            tracing.install(tr, extra_modules=[sys.modules[__name__]])
        rec = Recorder(tr)
        wall = 0.0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            steps = run(ctx, rec, args.rounds, args.seed)
            for _ in range(n_steps):  # one step per "step" line on stdin
                if sys.stdin.readline().strip() != "step":
                    print("expected a 'step' command on stdin", file=sys.stderr)
                    return 2
                t0 = time.perf_counter()
                next(steps)
                wall += time.perf_counter() - t0
                print("ok", flush=True)
        result.update(samples=rec.samples, sizes=rec.sizes, attempted=rec.attempted,
                      failed=rec.failed, failures=rec.failures, op_s=rec.op_s, wall_s=wall,
                      warnings=len(caught))
        if tr is not None:
            raw = tr.raw()
            raw["bench.traced_wall_s"] = wall
            raw["bench.own_s"] = wall - tr.root_time()
            if args.phase == "oracle":
                raw["harness.import_s"] = ctx.import_s
            result["raw"] = raw
            if args.spans_out:
                tr.write_spans(args.spans_out)
    import numpy
    import scipy

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["versions"] = {"python": platform.python_version(), "numpy": numpy.__version__,
                          "scipy": scipy.__version__}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

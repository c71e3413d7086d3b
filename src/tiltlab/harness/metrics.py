"""Sample-quality metrics and the append-only metric record log.

1-D Wasserstein-1 uses the exact sorted-sample formula (via scipy's
order-statistics implementation); energy distance uses the closed-form
CDF identity in 1-D (scipy's as well) and a pairwise V-statistic in
higher dimensions. scipy.stats is imported inside the two 1-D metrics, on
first use, so only runs that compute them pay for it. Moment gaps compare
against analytic references exactly when one is given.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass

import numpy as np

from ..diffusion.base import GaussianMixture
from ..errors import ContractError
from ..oracle.tilt import TiltedGaussian
from ..runfiles import write_jsonl

PAIRWISE_CAP = 2048
# Fewest rows a sample set (or a sample reference) may have.
MIN_SAMPLES = 100


def _as_samples(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    return x.reshape(-1, 1) if x.ndim == 1 else x


def wasserstein1(a, b) -> float:
    a, b = _as_samples(a), _as_samples(b)
    if a.shape[1] != 1 or b.shape[1] != 1:
        raise ContractError("the exact W1 formula is 1-D only")
    from scipy.stats import wasserstein_distance

    return float(wasserstein_distance(a[:, 0], b[:, 0]))


def energy_dist(a, b) -> float:
    """Energy distance between two sample sets (any shared dimension)."""
    a, b = _as_samples(a), _as_samples(b)
    if a.shape[1] != b.shape[1]:
        raise ContractError(f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
    if a.shape[1] == 1:
        from scipy.stats import energy_distance

        return float(energy_distance(a[:, 0], b[:, 0]))
    a, b = _cap(a), _cap(b)
    ab = _mean_pair_dist(a, b)
    aa = _mean_pair_dist(a, a)
    bb = _mean_pair_dist(b, b)
    return float(np.sqrt(max(2.0 * ab - aa - bb, 0.0)))


def _cap(x: np.ndarray) -> np.ndarray:
    if x.shape[0] <= PAIRWISE_CAP:
        return x
    stride = int(np.ceil(x.shape[0] / PAIRWISE_CAP))
    return x[::stride]


def _mean_pair_dist(a: np.ndarray, b: np.ndarray) -> float:
    diff = a[:, None, :] - b[None, :, :]
    return float(np.sqrt((diff**2).sum(axis=2)).mean())


def energy_statistic(a, b) -> float:
    """n m / (n + m) times the squared energy distance (permutation-test statistic)."""
    a, b = _as_samples(a), _as_samples(b)
    n, m = a.shape[0], b.shape[0]
    return n * m / (n + m) * energy_dist(a, b) ** 2


def energy_permutation_pvalue(a, b, rng: np.random.Generator, n_perm: int = 200) -> float:
    """Two-sample energy test p-value by label permutation."""
    a, b = _as_samples(a), _as_samples(b)
    observed = energy_statistic(a, b)
    pooled = np.vstack([a, b])
    n = a.shape[0]
    hits = 0
    for _ in range(n_perm):
        perm = rng.permutation(pooled.shape[0])
        stat = energy_statistic(pooled[perm[:n]], pooled[perm[n:]])
        hits += stat >= observed
    return (hits + 1) / (n_perm + 1)


def _analytic_moments(ref) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(ref, TiltedGaussian):
        return ref.mean, np.full(ref.dim, ref.var)
    if isinstance(ref, GaussianMixture):
        return ref.mean(), ref.variance()
    raise ContractError(f"no analytic moments for {type(ref)}")


def eval_metrics(samples, reference, reward_spec=None, rng: np.random.Generator | None = None) -> dict:
    """Compare samples against a second sample set or an analytic reference.

    Always reports moment gaps; W1 and energy distance are included for a
    sample reference directly, or for an analytic reference when an rng is
    provided to draw a matched comparison set. ``reward_spec`` adds the
    mean reward of the samples.
    """
    samples = _as_samples(samples)
    if samples.shape[0] < MIN_SAMPLES:
        raise ContractError(f"need at least {MIN_SAMPLES} samples, got {samples.shape[0]}")
    out: dict[str, float] = {"n": float(samples.shape[0])}
    if reward_spec is not None:
        from ..rewards import eval_reward

        out["mean_reward"] = float(eval_reward(reward_spec, samples).mean())

    if isinstance(reference, (TiltedGaussian, GaussianMixture)):
        ref_mean, ref_var = _analytic_moments(reference)
        if ref_mean.shape[0] != samples.shape[1]:
            raise ContractError("reference dimension does not match the samples")
        ref_samples = reference.sample(rng, samples.shape[0]) if rng is not None else None
    else:
        ref_samples = _as_samples(reference)
        if ref_samples.shape[0] < MIN_SAMPLES:
            raise ContractError(f"need at least {MIN_SAMPLES} reference samples, "
                                f"got {ref_samples.shape[0]}")
        if ref_samples.shape[1] != samples.shape[1]:
            raise ContractError("reference dimension does not match the samples")
        ref_mean = ref_samples.mean(axis=0)
        ref_var = ref_samples.var(axis=0)

    out["mean_gap"] = float(np.linalg.norm(samples.mean(axis=0) - ref_mean))
    out["var_gap"] = float(np.linalg.norm(samples.var(axis=0) - ref_var))
    if ref_samples is not None:
        out["energy_distance"] = energy_dist(samples, ref_samples)
        if samples.shape[1] == 1:
            out["w1"] = wasserstein1(samples, ref_samples)
    return out


@dataclass
class MetricRecord:
    run_id: str
    metric: str
    value: float
    n: int
    ts: float


def make_records(run_id: str, metrics: dict, n: int | None = None) -> list[MetricRecord]:
    ts = time.time()
    n_val = int(metrics.get("n", 0)) if n is None else n
    return [
        MetricRecord(run_id, name, float(value), n_val, ts)
        for name, value in sorted(metrics.items())
        if name != "n"
    ]


def append_metrics(path, records: list[MetricRecord]) -> None:
    with open(path, "a") as fh:
        write_jsonl(fh, [asdict(rec) for rec in records])

"""Isotropic Gaussian-mixture math on plain arrays.

All routines work on batches ``x`` of shape (m, d). Components are
isotropic: component k has mean ``means[k]`` (d,) and scalar variance
``variances[k]``. Everything is evaluated in log space with max-shifts so
that small variances and far tails do not overflow.

Layout: the routines work on K contiguous (m,) columns, one per component
(``_columns``), not on an (m, K) or (m, K, d) array reduced along its
short K axis. numpy runs one inner loop per output row for such a
reduction, which made it most of the cost of a mixture score; an
elementwise op on a whole column is one inner loop.

Bitwise contract: for up to seven components every routine computes the
same IEEE operations in the same order as the broadcast formulas, so its
output is byte-equal to theirs (``tests/test_gaussmix.py`` writes them
out). Sums over the components and over the coordinates run left to
right, which is the order numpy's reductions over such short axes use;
from eight terms on numpy sums pairwise, so with K >= 8 a result can
differ from the broadcast form in the last bit. ``score_and_hessian``
keeps its broadcast form for K >= 2: when d = 1, ``einsum``'s order of
summation over k depends on m and K, and no single column formula
matches it.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError

LOG_2PI = float(np.log(2.0 * np.pi))


def _as_batch(x: np.ndarray, d: int) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x.reshape(1, -1) if x.shape[0] == d else x.reshape(-1, 1)
    if x.ndim != 2 or x.shape[1] != d:
        raise ShapeError(f"expected points of dimension {d}, got array of shape {x.shape}")
    return x


def _columns(x, log_weights, means, variances):
    """Per component k its weighted log-density column ``comps[k]`` (m,),
    then the running max ``hi``, the shifted exps ``w[k] = exp(comps[k] - hi)``
    and their total. Returns (comps, hi, w, total)."""
    means = np.asarray(means, dtype=np.float64)
    x = _as_batch(x, means.shape[1])
    d = means.shape[1]
    const = log_weights - 0.5 * d * (LOG_2PI + np.log(variances))
    comps = []
    for k in range(means.shape[0]):
        sq = (x[:, 0] - means[k, 0]) ** 2
        for i in range(1, d):
            sq = sq + (x[:, i] - means[k, i]) ** 2
        comps.append(const[k] - 0.5 * sq / variances[k])
    hi = comps[0]
    for c in comps[1:]:
        hi = np.maximum(hi, c)
    w = [np.exp(c - hi) for c in comps]
    total = w[0]
    for wk in w[1:]:
        total = total + wk
    return comps, hi, w, total


def component_logpdfs(x, log_weights, means, variances):
    """Per-component weighted log densities, shape (m, K)."""
    return np.stack(_columns(x, log_weights, means, variances)[0], axis=1)


def logpdf(x, log_weights, means, variances):
    _, hi, _, total = _columns(x, log_weights, means, variances)
    return hi + np.log(total)


def responsibilities(x, log_weights, means, variances):
    _, _, w, total = _columns(x, log_weights, means, variances)
    return np.stack([wk / total for wk in w], axis=1)


def score(x, log_weights, means, variances):
    """Gradient of the mixture log density, shape (m, d)."""
    means = np.asarray(means, dtype=np.float64)
    x = _as_batch(x, means.shape[1])
    if means.shape[0] == 1:
        # One component: every responsibility is exactly 1.0, so the sum
        # below is the single pull, bit for bit.
        return (means[0] - x) / variances[0]
    _, _, w, total = _columns(x, log_weights, means, variances)
    s = (w[0] / total)[:, None] * ((means[0] - x) / variances[0])
    for k in range(1, len(w)):
        s = s + (w[k] / total)[:, None] * ((means[k] - x) / variances[k])
    return s


def score_and_hessian(x, log_weights, means, variances):
    """Score (m, d) and Hessian of the log density (m, d, d)."""
    means = np.asarray(means, dtype=np.float64)
    x = _as_batch(x, means.shape[1])
    d = means.shape[1]
    eye = np.eye(d)
    if means.shape[0] == 1:
        # The general expression with every responsibility 1.0. Keep the
        # outer product twice: s s^T - I/v - s s^T rounds p^2 - 1/v before
        # it subtracts p^2, and a plain -I/v would differ in the last bit.
        s = (means[0] - x) / variances[0]
        outer = s[:, :, None] * s[:, None, :]
        return s, outer - (1.0 / variances[0]) * eye - outer
    gamma = responsibilities(x, log_weights, means, variances)
    pulls = (means[None, :, :] - x[:, None, :]) / variances[None, :, None]
    s = (gamma[:, :, None] * pulls).sum(axis=1)
    # H = sum_k gamma_k (g_k g_k^T - I/v_k) - s s^T
    outer = np.einsum("mki,mkj->mij", gamma[:, :, None] * pulls, pulls)
    trace_part = (gamma / variances[None, :]).sum(axis=1)
    hess = outer - trace_part[:, None, None] * eye[None, :, :] - np.einsum("mi,mj->mij", s, s)
    return s, hess


def component_posterior_logprob(x, log_weights, means, variances, k):
    """log P(component = k | x), shape (m,)."""
    comps, hi, _, total = _columns(x, log_weights, means, variances)
    return comps[k] - (hi + np.log(total))


def component_posterior_grad(x, log_weights, means, variances, k):
    """Gradient of log P(component = k | x) with respect to x, shape (m, d)."""
    means = np.asarray(means, dtype=np.float64)
    x = _as_batch(x, means.shape[1])
    g_k = (means[None, k, :] - x) / variances[k]
    return g_k - score(x, log_weights, means, variances)

"""Isotropic Gaussian-mixture math on plain arrays.

All routines work on batches ``x`` of shape (m, d). Components are
isotropic: component k has mean ``means[k]`` (d,) and scalar variance
``variances[k]``. Everything is evaluated in log space with max-shifts so
that small variances and far tails do not overflow.
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


def component_logpdfs(x, log_weights, means, variances):
    """Per-component weighted log densities, shape (m, K)."""
    means = np.asarray(means, dtype=np.float64)
    x = _as_batch(x, means.shape[1])
    d = means.shape[1]
    sq = ((x[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)  # (m, K)
    return log_weights[None, :] - 0.5 * d * (LOG_2PI + np.log(variances))[None, :] - 0.5 * sq / variances[None, :]


def logpdf(x, log_weights, means, variances):
    comp = component_logpdfs(x, log_weights, means, variances)
    hi = comp.max(axis=1, keepdims=True)
    return (hi + np.log(np.exp(comp - hi).sum(axis=1, keepdims=True)))[:, 0]


def responsibilities(x, log_weights, means, variances):
    comp = component_logpdfs(x, log_weights, means, variances)
    hi = comp.max(axis=1, keepdims=True)
    w = np.exp(comp - hi)
    return w / w.sum(axis=1, keepdims=True)


def score(x, log_weights, means, variances):
    """Gradient of the mixture log density, shape (m, d)."""
    means = np.asarray(means, dtype=np.float64)
    x = _as_batch(x, means.shape[1])
    if means.shape[0] == 1:
        # One component: every responsibility is exactly 1.0, so the sum
        # below is the single pull, bit for bit.
        return (means[0] - x) / variances[0]
    gamma = responsibilities(x, log_weights, means, variances)  # (m, K)
    pulls = (means[None, :, :] - x[:, None, :]) / variances[None, :, None]  # (m, K, d)
    return (gamma[:, :, None] * pulls).sum(axis=1)


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
    comp = component_logpdfs(x, log_weights, means, variances)
    hi = comp.max(axis=1, keepdims=True)
    lse = (hi + np.log(np.exp(comp - hi).sum(axis=1, keepdims=True)))[:, 0]
    return comp[:, k] - lse


def component_posterior_grad(x, log_weights, means, variances, k):
    """Gradient of log P(component = k | x) with respect to x, shape (m, d)."""
    means = np.asarray(means, dtype=np.float64)
    x = _as_batch(x, means.shape[1])
    g_k = (means[None, k, :] - x) / variances[k]
    return g_k - score(x, log_weights, means, variances)

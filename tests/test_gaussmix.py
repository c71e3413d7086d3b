import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tiltlab import gaussmix
from tiltlab.diffusion import GaussianMixture, PolicyNet, make_schedule, reverse_mean
from tiltlab.streams import make_rng

LOG_2PI = float(np.log(2.0 * np.pi))


# -- the broadcast formulas over (m, K) and (m, K, d) arrays --------------------


def _component_logpdfs(x, log_weights, means, variances):
    d = means.shape[1]
    sq = ((x[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
    return log_weights[None, :] - 0.5 * d * (LOG_2PI + np.log(variances))[None, :] - 0.5 * sq / variances[None, :]


def _logpdf(x, log_weights, means, variances):
    comp = _component_logpdfs(x, log_weights, means, variances)
    hi = comp.max(axis=1, keepdims=True)
    return (hi + np.log(np.exp(comp - hi).sum(axis=1, keepdims=True)))[:, 0]


def _responsibilities(x, log_weights, means, variances):
    comp = _component_logpdfs(x, log_weights, means, variances)
    hi = comp.max(axis=1, keepdims=True)
    w = np.exp(comp - hi)
    return w / w.sum(axis=1, keepdims=True)


def _score(x, log_weights, means, variances):
    gamma = _responsibilities(x, log_weights, means, variances)
    pulls = (means[None, :, :] - x[:, None, :]) / variances[None, :, None]
    return (gamma[:, :, None] * pulls).sum(axis=1)


def _score_and_hessian(x, log_weights, means, variances):
    gamma = _responsibilities(x, log_weights, means, variances)
    pulls = (means[None, :, :] - x[:, None, :]) / variances[None, :, None]
    s = (gamma[:, :, None] * pulls).sum(axis=1)
    outer = np.einsum("mki,mkj->mij", gamma[:, :, None] * pulls, pulls)
    trace_part = (gamma / variances[None, :]).sum(axis=1)
    eye = np.eye(x.shape[1])[None, :, :]
    return s, outer - trace_part[:, None, None] * eye - np.einsum("mi,mj->mij", s, s)


def _component_posterior_logprob(x, log_weights, means, variances, k):
    comp = _component_logpdfs(x, log_weights, means, variances)
    hi = comp.max(axis=1, keepdims=True)
    lse = (hi + np.log(np.exp(comp - hi).sum(axis=1, keepdims=True)))[:, 0]
    return comp[:, k] - lse


def _component_posterior_grad(x, log_weights, means, variances, k):
    g_k = (means[None, k, :] - x) / variances[k]
    return g_k - _score(x, log_weights, means, variances)


@st.composite
def _mixture_cases(draw):
    """K in 2..6 components in d in 1..3, one weight near 0, variances in
    [1e-3, 1e2], m points out to |x| = 1e3 with a few non-finite rows."""
    k_count, d = draw(st.integers(2, 6)), draw(st.integers(1, 3))
    m = draw(st.sampled_from([1, 2, 7, 4096]))
    rng = make_rng(draw(st.integers(0, 2**32 - 1)))
    weights = rng.uniform(0.05, 1.0, size=k_count)
    weights[draw(st.integers(0, k_count - 1))] = 10.0 ** draw(st.floats(-300.0, -3.0))
    log_weights = np.log(weights / weights.sum())
    means = 3.0 * rng.standard_normal((k_count, d))
    variances = 10.0 ** rng.uniform(-3.0, 2.0, size=k_count)
    x = rng.standard_normal((m, d)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(m, 1))
    if m >= 7:
        x[1, 0], x[2, -1], x[3, 0] = np.inf, -np.inf, np.nan
    return x, log_weights, means, variances, draw(st.integers(0, k_count - 1))


def _assert_same(got, want):
    finite = np.isfinite(want)
    assert got.shape == want.shape
    assert np.array_equal(np.isfinite(got), finite)
    assert got[finite].tobytes() == want[finite].tobytes()


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(_mixture_cases())
def test_column_routines_are_bitwise_the_broadcast_formulas(case):
    x, log_weights, means, variances, k = case
    args = (x, log_weights, means, variances)
    with np.errstate(invalid="ignore"):
        for got, want in [
            (gaussmix.component_logpdfs, _component_logpdfs),
            (gaussmix.logpdf, _logpdf),
            (gaussmix.responsibilities, _responsibilities),
            (gaussmix.score, _score),
        ]:
            _assert_same(got(*args), want(*args))
        for got, want in zip(gaussmix.score_and_hessian(*args), _score_and_hessian(*args)):
            _assert_same(got, want)
        _assert_same(gaussmix.component_posterior_logprob(*args, k), _component_posterior_logprob(*args, k))
        _assert_same(gaussmix.component_posterior_grad(*args, k), _component_posterior_grad(*args, k))


def test_zero_weight_component_drops_out_without_warning():
    one = GaussianMixture.single([0.7], 1.3)
    two = GaussianMixture(np.array([1.0, 0.0]), np.array([[0.7], [-2.0]]), np.array([1.3, 0.4]))
    schedule = make_schedule(16, 6.0)
    x = 3.0 * make_rng(44).standard_normal((64, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(two.score(x), one.score(x))
        for t in (1, 8, 16):
            assert np.array_equal(reverse_mean(PolicyNet(schedule, base=two), x, t),
                                  reverse_mean(PolicyNet(schedule, base=one), x, t))

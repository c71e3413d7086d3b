import numpy as np
import pytest

from tiltlab.autodiff import zero_mlp
from tiltlab.diffusion import GaussianMixture, denoising_loss, make_schedule, train_denoiser
from tiltlab.errors import ContractError
from tiltlab.streams import make_rng


def test_oracle_predictor_gives_zero_loss():
    s = make_schedule(8, 2.0)
    rng = make_rng(1)
    x0 = rng.standard_normal((32, 1))
    t = rng.integers(1, 9, size=32)
    noise = rng.standard_normal((32, 1))
    stored = {"noise": noise}
    loss = denoising_loss(lambda x_t, tt: stored["noise"], s, x0, t, noise)
    assert loss == 0.0


def test_zero_predictor_expected_loss_is_dimension():
    # E||eps||^2 = d for standard-normal noises; 5% window at 1e4 samples.
    for d in (1, 2):
        s = make_schedule(8, 2.0)
        rng = make_rng(2 + d)
        n = 10000
        x0 = rng.standard_normal((n, d))
        t = rng.integers(1, 9, size=n)
        noise = rng.standard_normal((n, d))
        loss = denoising_loss(zero_mlp([d + 2, 4, d]), s, x0, t, noise)
        assert abs(loss - d) / d < 0.05


def test_empty_batch_rejected():
    s = make_schedule(4, 1.0)
    with pytest.raises(ContractError):
        denoising_loss(zero_mlp([3, 4, 1]), s, np.zeros((0, 1)), np.zeros(0), np.zeros((0, 1)))


def test_training_beats_zero_baseline_by_twenty_percent():
    s = make_schedule(16, 4.0)
    base = GaussianMixture.std_normal(1)
    model, losses = train_denoiser(base, s, make_rng(5), hidden=(24, 24), steps=2000, batch=128)

    rng = make_rng(6)
    n = 20000
    x0 = base.sample(rng, n)
    t = rng.integers(1, s.n_steps + 1, size=n)
    noise = rng.standard_normal((n, 1))
    trained = denoising_loss(model, s, x0, t, noise)
    baseline = denoising_loss(zero_mlp([3, 4, 1]), s, x0, t, noise)
    assert trained < 0.8 * baseline


def test_trained_net_approximates_analytic_eps():
    # The regression optimum is the conditional expected noise; a trained
    # net should land near the closed form on the data bulk.
    from tiltlab.diffusion import analytic_eps
    from tiltlab.autodiff import evaluate

    s = make_schedule(16, 4.0)
    base = GaussianMixture.std_normal(1)
    model, _ = train_denoiser(base, s, make_rng(7), hidden=(24, 24), steps=2500, batch=128)
    x = np.linspace(-1.5, 1.5, 9).reshape(-1, 1)
    worst = 0.0
    for t in (4, 8, 12):
        pred = evaluate(model, s.net_input(x, np.full(9, t)))
        want = analytic_eps(base, s, x, t)
        worst = max(worst, np.abs(pred - want).max())
    assert worst < 0.15

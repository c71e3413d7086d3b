import numpy as np
import pytest

from tiltlab.autodiff import (
    MlpModel,
    Tape,
    adam_init,
    adam_step,
    bind_params,
    evaluate,
    expected_param_count,
    forward_on_tape,
    gradient,
    has_zero_output,
    init_mlp,
    load_model,
    load_params,
    residual_mlp,
    save_model,
    save_params,
    zero_mlp,
)
from tiltlab.errors import ConfigError, ShapeError
from tiltlab.streams import make_rng


def test_zero_parameter_network_outputs_zero():
    model = zero_mlp([3, 5, 2])
    x = make_rng(1).standard_normal((7, 3))
    assert np.array_equal(evaluate(model, x), np.zeros((7, 2)))


def test_identity_affine_layer_returns_input():
    model = MlpModel([3, 3], "tanh", {"w0": np.eye(3), "b0": np.zeros(3)})
    v = make_rng(2).standard_normal((4, 3))
    assert np.array_equal(evaluate(model, v), v)


def test_forward_matches_hand_rolled_loops():
    # Independent oracle: the same 2-4-1 forward pass written as explicit loops.
    rng = make_rng(3)
    model = init_mlp([2, 4, 1], rng)
    x = np.array([0.3, -0.1])

    h = [0.0] * 4
    for j in range(4):
        acc = model.params["b0"][j]
        for i in range(2):
            acc += x[i] * model.params["w0"][i, j]
        h[j] = np.tanh(acc)
    out = model.params["b1"][0]
    for j in range(4):
        out += h[j] * model.params["w1"][j, 0]

    assert abs(evaluate(model, x)[0] - out) < 1e-14


def test_evaluate_shape_checks_and_determinism():
    model = init_mlp([3, 4, 2], make_rng(4))
    with pytest.raises(ShapeError):
        evaluate(model, np.ones((5, 2)))
    x = make_rng(5).standard_normal((6, 3))
    assert np.array_equal(evaluate(model, x), evaluate(model, x))


def test_param_count_invariant():
    assert expected_param_count([2, 4, 1]) == 2 * 4 + 4 + 4 * 1 + 1
    with pytest.raises(ConfigError):
        MlpModel([3, 4, 1], "tanh", {"w0": np.zeros((3, 4))})
    with pytest.raises(ConfigError):
        MlpModel([3], "tanh", {})
    with pytest.raises(ConfigError):
        MlpModel([3, 1], "sigmoid", {"w0": np.zeros((3, 1)), "b0": np.zeros(1)})


def test_glorot_bounds_and_zero_biases():
    model = init_mlp([10, 7, 2], make_rng(6))
    bound0 = np.sqrt(6.0 / 17.0)
    assert np.abs(model.params["w0"]).max() <= bound0
    assert np.array_equal(model.params["b0"], np.zeros(7))


def test_residual_mlp_zero_output_but_live_interior():
    model = residual_mlp([3, 8, 2], make_rng(7))
    x = make_rng(8).standard_normal((5, 3))
    assert np.array_equal(evaluate(model, x), np.zeros((5, 2)))
    assert np.abs(model.params["w0"]).max() > 0.0
    assert has_zero_output(model) and has_zero_output(zero_mlp([3, 8, 2]))
    assert not has_zero_output(init_mlp([3, 8, 2], make_rng(9), "relu"))
    model.params["b1"][1] = -1e-300
    assert not has_zero_output(model)


def test_mlp_gradient_vs_central_differences_spec_h():
    # The spec's exact recipe: central differences at h = 1e-5, rel err < 1e-5.
    rng = make_rng(9)
    model = init_mlp([3, 6, 4, 1], rng)
    x = rng.standard_normal((8, 3))
    y = rng.standard_normal((8, 1))

    def loss_of(params):
        m = MlpModel(model.widths, model.activation, params)
        return float(((evaluate(m, x) - y) ** 2).sum())

    tape = Tape()
    nodes = bind_params(tape, model.params)
    pred = forward_on_tape(tape, model, nodes, tape.constant(x))
    loss = tape.sumall(tape.square(tape.sub(pred, tape.constant(y))))
    names = sorted(model.params)
    grads = dict(zip(names, gradient(loss, [nodes[k] for k in names])))

    h = 1e-5
    for k in names:
        it = np.nditer(model.params[k], flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            p = {kk: vv.copy() for kk, vv in model.params.items()}
            p[k][idx] += h
            up = loss_of(p)
            p[k][idx] -= 2 * h
            dn = loss_of(p)
            fd = (up - dn) / (2 * h)
            assert abs(fd - grads[k][idx]) / max(abs(fd), 1e-8) < 1e-5


# -- Adam -----------------------------------------------------------------


def test_adam_zero_gradient_keeps_params_and_decays_moments():
    params = {"w": np.array([1.5, -2.0])}
    new, st = adam_step(params, {"w": np.zeros(2)}, adam_init(params), lr=0.1)
    assert np.array_equal(new["w"], params["w"])  # fresh state, zero grad: no motion
    # pre-loaded moments decay by their beta factors under a zero gradient
    state = adam_init(params)
    state.m["w"][:] = 1.0
    state.v["w"][:] = 1.0
    _, st2 = adam_step(params, {"w": np.zeros(2)}, state, lr=0.1)
    assert np.allclose(st2.m["w"], 0.9)
    assert np.allclose(st2.v["w"], 0.999)


def test_adam_descends_against_constant_gradient():
    params = {"w": np.array([0.0])}
    state = adam_init(params)
    for _ in range(50):
        params, state = adam_step(params, {"w": np.array([1.0])}, state, lr=0.01)
    assert params["w"][0] < -0.4  # moved opposite the gradient sign


def test_adam_first_step_is_learning_rate():
    params = {"w": np.array([0.0])}
    new, _ = adam_step(params, {"w": np.array([1.0])}, adam_init(params), lr=0.1)
    assert abs(params["w"][0] - new["w"][0] - 0.1) < 1e-8


def test_adam_validates_lr_and_shapes():
    params = {"w": np.zeros(2)}
    with pytest.raises(ConfigError):
        adam_step(params, {"w": np.zeros(2)}, adam_init(params), lr=0.0)
    with pytest.raises(ShapeError):
        adam_step(params, {"w": np.zeros(3)}, adam_init(params), lr=0.1)
    with pytest.raises(ShapeError):
        adam_step(params, {"v": np.zeros(2)}, adam_init(params), lr=0.1)


def test_adam_is_deterministic_and_pure():
    params = {"w": np.array([1.0])}
    grads = {"w": np.array([0.3])}
    st = adam_init(params)
    a1, s1 = adam_step(params, grads, st, lr=0.05)
    a2, s2 = adam_step(params, grads, st, lr=0.05)
    assert np.array_equal(a1["w"], a2["w"])
    assert params["w"][0] == 1.0  # inputs untouched
    assert st.step == 0


# -- checkpoints ----------------------------------------------------------


def test_checkpoint_round_trip_is_exact(tmp_path):
    rng = make_rng(10)
    params = {"w0": rng.standard_normal((3, 4)) * 1e-7, "b0": rng.standard_normal(4) * 1e3}
    path = tmp_path / "params.txt"
    save_params(path, params)
    back = load_params(path)
    assert set(back) == set(params)
    for k in params:
        assert np.array_equal(back[k], params[k])


def test_model_checkpoint_round_trip(tmp_path):
    model = init_mlp([4, 6, 2], make_rng(11), activation="relu")
    path = tmp_path / "model.txt"
    save_model(path, model)
    back = load_model(path)
    assert back.widths == model.widths
    assert back.activation == "relu"
    x = make_rng(12).standard_normal((5, 4))
    assert np.array_equal(evaluate(back, x), evaluate(model, x))

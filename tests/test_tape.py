import numpy as np
import pytest

from graphgen import finite_diff_check
from tiltlab import gaussmix
from tiltlab.autodiff import Tape, gradient
from tiltlab.errors import ContractError, NumericError, ShapeError
from tiltlab.streams import make_rng


def scalar(tape, v):
    return tape.param(np.array([[float(v)]]))


def test_square_derivative():
    tape = Tape()
    w = scalar(tape, 3.0)
    (g,) = gradient(tape.sumall(tape.square(w)), [w])
    assert g[0, 0] == 6.0


def test_exp_derivative_at_zero():
    tape = Tape()
    w = scalar(tape, 0.0)
    (g,) = gradient(tape.sumall(tape.exp(w)), [w])
    assert g[0, 0] == 1.0


def test_gradient_requires_scalar_output():
    tape = Tape()
    w = tape.param(np.ones((2, 2)))
    with pytest.raises(ContractError):
        gradient(tape.square(w), [w])


def test_shape_mismatch_raises():
    tape = Tape()
    a = tape.param(np.ones((2, 2)))
    b = tape.param(np.ones((3, 2)))
    with pytest.raises(ShapeError):
        tape.add(a, b)
    with pytest.raises(ShapeError):
        tape.matmul(a, b)


def test_non_finite_intermediate_raises():
    tape = Tape()
    a = tape.param(np.array([[1000.0]]))
    with pytest.raises(NumericError):
        tape.exp(a)
    b = tape.param(np.array([[-1.0]]))
    with pytest.raises(NumericError):
        tape.log(b)


def test_evaluation_is_pure():
    rng = make_rng(11)
    x = rng.standard_normal((4, 3))

    def run():
        tape = Tape()
        a = tape.param(x)
        out = tape.sumall(tape.square(tape.tanh(a)))
        (g,) = gradient(out, [a])
        return float(out.value), g

    v1, g1 = run()
    v2, g2 = run()
    assert v1 == v2
    assert np.array_equal(g1, g2)


def test_independent_subgraph_gradients_concatenate():
    rng = make_rng(12)
    xa, xb = rng.standard_normal((2, 2)), rng.standard_normal((3, 2))

    tape = Tape()
    a, b = tape.param(xa), tape.param(xb)
    joint = tape.add(tape.sumall(tape.square(a)), tape.sumall(tape.tanh(b)))
    ga_joint, gb_joint = gradient(joint, [a, b])

    tape_a = Tape()
    a2 = tape_a.param(xa)
    (ga,) = gradient(tape_a.sumall(tape_a.square(a2)), [a2])
    tape_b = Tape()
    b2 = tape_b.param(xb)
    (gb,) = gradient(tape_b.sumall(tape_b.tanh(b2)), [b2])

    assert np.array_equal(ga_joint, ga)
    assert np.array_equal(gb_joint, gb)


def test_disconnected_param_gets_zero_gradient():
    tape = Tape()
    a = scalar(tape, 1.0)
    b = scalar(tape, 2.0)
    (gb,) = gradient(tape.sumall(tape.square(a)), [b])[0:1]
    assert np.array_equal(gb, np.zeros((1, 1)))


def test_topology_is_ordered_and_acyclic():
    tape = Tape()
    a = scalar(tape, 1.0)
    out = tape.sumall(tape.exp(tape.tanh(a)))
    for node in tape.nodes:
        assert all(p < node.idx for p in node.parents)
    assert out.idx == len(tape.nodes) - 1


def test_dropped_tape_is_freed_by_reference_counting(recorded_tapes):
    def build():
        tape = Tape()
        a = tape.param(np.ones((3, 2)))
        out = tape.sumall(tape.tanh(a))
        gradient(out, [a])
        return out

    node = build()  # a surviving node does not keep its tape alive
    assert len(recorded_tapes) == 1
    assert recorded_tapes[0]() is None
    assert node.tape is None


def test_gradient_on_freed_tape_is_contract_error(recorded_tapes):
    tape = Tape()
    a = tape.param(np.ones((2, 2)))
    out = tape.sumall(tape.square(a))
    del tape
    with pytest.raises(ContractError, match="freed"):
        gradient(out, [a])


def test_foreign_node_is_contract_error(recorded_tapes):
    small, big = Tape(), Tape()
    s = small.param(np.ones((1, 1)))
    inside = big.param(np.ones((1, 1)))      # index 0: inside the small tape's range
    for _ in range(3):
        big.param(np.ones((1, 1)))
    past_end = big.param(np.ones((1, 1)))    # index 4: past the small tape's end

    def orphan():
        return Tape().param(np.ones((1, 1)))

    for foreign in (inside, past_end, orphan()):
        with pytest.raises(ContractError):
            small.add(s, foreign)
        with pytest.raises(ContractError):
            gradient(small.sumall(s), [foreign])


@pytest.mark.parametrize("seed", range(120))
def test_random_graphs_match_finite_differences(seed):
    assert finite_diff_check(seed) < 1e-5


def test_mixture_eps_vjp_matches_finite_differences():
    rng = make_rng(5)
    logw = np.log(np.array([0.4, 0.6]))
    means = np.array([[-1.0, 0.5], [2.0, -0.3]])
    variances = np.array([0.8, 1.4])
    sig = 0.7
    x0 = rng.standard_normal((3, 2))
    v = rng.standard_normal((3, 2))

    def weighted(xv):
        eps = -sig * gaussmix.score(xv, logw, means, variances)
        return float((eps * v).sum())

    tape = Tape()
    xn = tape.param(x0)
    out = tape.sumall(tape.mul(tape.mixture_eps(xn, logw, means, variances, sig), tape.constant(v)))
    (gx,) = gradient(out, [xn])

    h = 1e-6
    for i in range(3):
        for j in range(2):
            xp, xm = x0.copy(), x0.copy()
            xp[i, j] += h
            xm[i, j] -= h
            fd = (weighted(xp) - weighted(xm)) / (2 * h)
            assert abs(fd - gx[i, j]) < 1e-6 * max(1.0, abs(fd))


def test_gaussian_logpdf_vjp():
    rng = make_rng(6)
    x0, mu0 = rng.standard_normal((4, 2)), rng.standard_normal((4, 2))
    var = 0.9
    tape = Tape()
    x, mu = tape.param(x0), tape.param(mu0)
    out = tape.sumall(tape.gaussian_logpdf(x, mu, var))
    gx, gmu = gradient(out, [x, mu])
    assert np.allclose(gx, -(x0 - mu0) / var)
    assert np.allclose(gmu, (x0 - mu0) / var)

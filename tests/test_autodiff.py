"""Reverse-mode gradients: analytic cases, finite-difference checks, and the
path norm gradient with its rescaling-invariant coordinate products."""

import numpy as np
import pytest

from pathlift.autodiff import (
    grad_path_norm,
    grad_scalar,
    scalar_value,
)
from pathlift.builders import random_dag, random_params
from pathlift.engine import gradient, run
from pathlift.errors import DimensionMismatch, MissingData, PathliftError
from pathlift.graph import RELU, Architecture, ParamVector, neuron_values
from pathlift.metrics import path_norm_fast
from pathlift.transforms import random_rescaling, rescale

from conftest import pool_arch, pool_theta, random_cases, replaced
from reference import grad_check, neuron_lists


def _relu_margin(arch, theta, x):
    """Smallest |pre-activation| over relu neurons; finite differences are
    only trustworthy when every kink is at least eps away."""
    post = neuron_values(arch, theta, x)
    vec = theta.vec
    ant, in_coords, _ = neuron_lists(arch)
    margin = np.inf
    for j in arch.non_input_pos:
        if arch.kinds[j] != RELU:
            continue
        pre = vec[arch.bias_coord[j]] + float(vec[in_coords[j]] @ post[ant[j]])
        margin = min(margin, abs(pre))
    return margin


def test_grad_check_diamond(diamond):
    arch, theta = diamond
    ad, fd, rel = grad_check(arch, theta, [1.0])
    # h2's pre-activation is -2 at x=1, so its whole branch contributes 0
    np.testing.assert_allclose(ad, [3.0, 0.0, 1.0, 0.0, 3.0, 0.0, 1.0], rtol=1e-12)
    assert rel < 1e-5


def test_grad_check_chain_tight(chain2):
    arch = chain2
    theta = ParamVector(arch, [1.5, -0.75, 0.4, 0.2])
    ad, fd, rel = grad_check(arch, theta, [2.0])
    np.testing.assert_allclose(ad, [-1.5, 3.4, -0.75, 1.0], rtol=1e-12)
    assert rel < 1e-8


def test_grad_check_random_corpus():
    cases = np.random.SeedSequence(77).spawn(25)
    kept = 0
    for s in cases:
        rng = np.random.default_rng(s)
        arch = random_dag(rng, p_kpool=0.0)
        theta = random_params(arch, rng)
        x = rng.normal(size=arch.d_in)
        if _relu_margin(arch, theta, x) < 1e-3:
            continue
        kept += 1
        _, _, rel = grad_check(arch, theta, x)
        assert rel < 1e-6
    assert kept >= 15


def _sum_pool_pass(arch, theta):
    """Summed outputs and their gradient, at |theta| on the all-ones input
    with every pool summing."""
    abs_theta = ParamVector(arch, np.abs(theta.vec))
    vals, win = run(arch, abs_theta.vec, np.ones(arch.d_in), sum_pools=True)
    assert win is None
    g = gradient(arch, abs_theta.vec, vals, win, np.ones((arch.d_out, 1)))
    return float(vals[arch.output_pos].sum()), g


def test_surrogate_gradient_diamond(diamond):
    arch, theta = diamond
    value, g = _sum_pool_pass(arch, theta)
    assert value == 5.0
    np.testing.assert_array_equal(g, [3.0, 1.0, 1.0, 2.0, 3.0, 1.0, 1.0])


def test_sum_pool_gradient_pool_net(pool_net):
    arch, theta = pool_net
    # in1->m, in2->m, m->out, b(m), b(out); summed, both pool inputs count
    value, g = _sum_pool_pass(arch, theta)
    assert value == 5.0
    np.testing.assert_array_equal(g, [1.0, 1.0, 5.0, 0.0, 1.0])
    # the max pass at |theta| routes through in2 alone (3 > 2)
    _, g_max = grad_scalar(arch, ParamVector(arch, np.abs(theta.vec)), np.ones(arch.d_in))
    np.testing.assert_array_equal(g_max, [0.0, 1.0, 3.0, 0.0, 1.0])
    np.testing.assert_array_equal(grad_path_norm(arch, theta), [1.0, -1.0, 5.0, 0.0, 0.0])


def test_grad_path_norm_diamond(diamond):
    arch, theta = diamond
    np.testing.assert_array_equal(
        grad_path_norm(arch, theta), [3.0, -1.0, 1.0, 2.0, 0.0, 0.0, 0.0]
    )


def test_grad_path_norm_zero_coordinate_is_zero(diamond):
    arch, theta = diamond
    theta = replaced(theta, {0: 0.0})
    assert grad_path_norm(arch, theta)[0] == 0.0


def test_grad_path_norm_matches_path_norm_differences():
    eps = 1e-6
    for arch, theta, rng in random_cases(12, seed=4821):
        g = grad_path_norm(arch, theta)
        base = theta.vec
        for i in range(arch.n_coords):
            step = np.zeros_like(base)
            step[i] = eps
            fd = (
                path_norm_fast(arch, ParamVector(arch, base + step))
                - path_norm_fast(arch, ParamVector(arch, base - step))
            ) / (2.0 * eps)
            denom = max(abs(g[i]), abs(fd), 1e-12)
            assert abs(g[i] - fd) / denom < 1e-6


def test_coordinate_products_invariant_under_rescaling(diamond):
    arch, theta = diamond
    scores = theta.vec * grad_path_norm(arch, theta)
    np.testing.assert_array_equal(scores, [3.0, 2.0, 3.0, 2.0, 0.0, 0.0, 0.0])
    for seed in (0, 1, 2):
        factors = random_rescaling(arch, seed)
        other = rescale(arch, theta, factors)
        rescaled = other.vec * grad_path_norm(arch, other)
        # power-of-two factors only touch the exponent bits
        np.testing.assert_array_equal(rescaled, scores)


def test_coordinate_products_invariant_on_corpus():
    for arch, theta, rng in random_cases(10, seed=915):
        scores = theta.vec * grad_path_norm(arch, theta)
        other = rescale(arch, theta, random_rescaling(arch, rng))
        np.testing.assert_array_equal(other.vec * grad_path_norm(arch, other), scores)


def test_squared_error_single_weight():
    arch = Architecture([("in", "input"), ("out", "identity")], [("in", "out")])
    theta = ParamVector(arch, [2.0, 0.0])
    value, g = grad_scalar(arch, theta, [[1.0]], aggregate="squared_error", target=[[0.0]])
    assert value == 2.0
    np.testing.assert_array_equal(g, [2.0, 2.0])


def test_squared_error_target_shapes():
    arch = Architecture([("in", "input"), ("out", "identity")], [("in", "out")])
    theta = ParamVector(arch, [2.0, 0.5])
    x = [[1.0], [-1.0], [0.5]]
    flat = grad_scalar(arch, theta, x, aggregate="squared_error", target=[1.0, 0.0, 1.0])
    column = grad_scalar(
        arch, theta, x, aggregate="squared_error", target=[[1.0], [0.0], [1.0]]
    )
    assert flat[0] == column[0]
    np.testing.assert_array_equal(flat[1], column[1])
    # a (d_out,) target is shared by the whole batch
    shared = grad_scalar(arch, theta, x, aggregate="squared_error", target=[1.0])
    explicit = grad_scalar(
        arch, theta, x, aggregate="squared_error", target=[[1.0], [1.0], [1.0]]
    )
    assert shared[0] == explicit[0]
    np.testing.assert_array_equal(shared[1], explicit[1])


def test_squared_error_bad_target_shape():
    arch = Architecture([("in", "input"), ("out", "identity")], [("in", "out")])
    theta = ParamVector(arch, [2.0, 0.0])
    with pytest.raises(DimensionMismatch):
        grad_scalar(arch, theta, [[1.0], [2.0]], aggregate="squared_error", target=[1.0, 2.0, 3.0])


def test_logistic_binary_analytic():
    arch = Architecture([("in", "input"), ("out", "identity")], [("in", "out")])
    theta = ParamVector(arch, [2.0, 0.0])
    value, g = grad_scalar(arch, theta, [[1.0]], aggregate="logistic", target=[1.0])
    z = 2.0
    assert value == pytest.approx(np.logaddexp(0.0, z) - z, rel=1e-12)
    p = 1.0 / (1.0 + np.exp(-z))
    np.testing.assert_allclose(g, [p - 1.0, p - 1.0], rtol=1e-12)


def test_logistic_softmax_analytic():
    from pathlift.builders import mlp_architecture, mlp_params

    arch = mlp_architecture([2, 3])
    rng = np.random.default_rng(5)
    w = rng.normal(size=(3, 2))
    theta = mlp_params(arch, [w], biases=[rng.normal(size=3)])
    x = rng.normal(size=(4, 2))
    y = np.array([0, 2, 1, 2])
    value, g = grad_scalar(arch, theta, x, aggregate="logistic", target=y)

    out = np.stack([(w @ xi) for xi in x], axis=1)
    out += theta.vec[arch.n_edges :][:, None]
    lse = np.log(np.exp(out).sum(axis=0))
    expect = float(np.sum(lse - out[y, np.arange(4)]))
    assert value == pytest.approx(expect, rel=1e-12)

    _, _, rel = grad_check(arch, theta, x, aggregate="logistic", target=y)
    assert rel < 1e-6


def test_logistic_label_errors():
    arch = Architecture(
        [("in", "input"), ("o1", "identity"), ("o2", "identity")],
        [("in", "o1"), ("in", "o2")],
    )
    theta = ParamVector(arch, [1.0, -1.0, 0.0, 0.0])
    with pytest.raises(DimensionMismatch):
        grad_scalar(arch, theta, [[1.0]], aggregate="logistic", target=[0, 1])
    with pytest.raises(DimensionMismatch):
        grad_scalar(arch, theta, [[1.0]], aggregate="logistic", target=[2])


def test_kpool_routes_gradient_to_winner_only(pool_net):
    arch, theta = pool_net
    value, g = grad_scalar(arch, theta, [[1.0, 1.0]], aggregate="sum_outputs")
    assert value == 2.0
    # contributions are (2, -3): only in1's edge gets gradient
    np.testing.assert_array_equal(g, [1.0, 0.0, 2.0, 0.0, 1.0])
    _, _, rel = grad_check(arch, theta, [[1.0, 1.0]])
    assert rel < 1e-8


def test_kpool_tie_routes_to_first_antecedent():
    arch = pool_arch()
    theta = pool_theta(arch, w1=2.0, w2=2.0)
    _, g = grad_scalar(arch, theta, [[1.0, 1.0]], aggregate="sum_outputs")
    np.testing.assert_array_equal(g, [1.0, 0.0, 2.0, 0.0, 1.0])


def test_kpool_bias_gradient_pinned_zero(pool_net):
    arch, theta = pool_net
    _, g = grad_scalar(arch, theta, [[1.0, 1.0]], aggregate="sum_outputs")
    bias_m = arch.bias_coord[arch.position("m")]
    assert g[bias_m] == 0.0


def test_batch_gradient_is_sum_of_samples():
    rng = np.random.default_rng(31)
    arch = random_dag(rng, p_kpool=0.0)
    theta = random_params(arch, rng)
    x = rng.normal(size=(3, arch.d_in))
    _, g = grad_scalar(arch, theta, x, aggregate="sum_outputs")
    parts = sum(grad_scalar(arch, theta, xi[None, :], aggregate="sum_outputs")[1] for xi in x)
    np.testing.assert_allclose(g, parts, rtol=1e-12, atol=1e-15)


def test_missing_target_raises(diamond):
    arch, theta = diamond
    with pytest.raises(MissingData):
        grad_scalar(arch, theta, [1.0], aggregate="squared_error")
    with pytest.raises(MissingData):
        scalar_value(arch, theta, [1.0], aggregate="logistic")


def test_unknown_aggregate_raises(diamond):
    arch, theta = diamond
    with pytest.raises(PathliftError):
        grad_scalar(arch, theta, [1.0], aggregate="banana")


def test_bad_batch_shape_raises(diamond):
    arch, theta = diamond
    with pytest.raises(DimensionMismatch):
        grad_scalar(arch, theta, [[1.0, 2.0]])
    with pytest.raises(DimensionMismatch):
        grad_scalar(arch, theta, np.ones((2, 1, 1)))

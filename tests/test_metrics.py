"""Fast path norms, path-metric estimates, and layered-MLP bounds."""

import math

import numpy as np
import pytest

from pathlift import (
    Architecture,
    DominanceUnverified,
    ParamVector,
    PathliftError,
    RaggedLayers,
    conv_grid_architecture,
    forward,
    mlp_architecture,
    mlp_bounds,
    mlp_matrices,
    mlp_params,
    path_lifting,
    path_metric_exact_dominated,
    path_metric_lower,
    path_metric_oracle,
    path_metric_report,
    path_metric_upper,
    path_norm_fast,
    random_params,
    random_rescaling,
    rescale,
    same_sign_partner,
)
from pathlift.metrics import _discrepancy_sums
from conftest import bias, edge_ids, pool_arch, pool_theta, random_cases, replaced, weight
from reference import reference_refined_parts, reference_upper_refined


def pruned_pair(diamond):
    arch, theta = diamond
    return arch, theta, replaced(theta, {2: 0.0})  # zero h1->out


def test_path_norm_diamond(diamond):
    arch, theta = diamond
    assert path_norm_fast(arch, theta, q=1) == 5.0
    assert path_norm_fast(arch, theta, q=2) == 13.0


def test_path_norm_pool(pool_net):
    arch, theta = pool_net
    # the pooling neuron is replaced by a summation, so both input weights count
    assert path_norm_fast(arch, theta, q=1) == 5.0


def test_path_norm_counts_bias_paths(diamond):
    arch, theta = diamond
    theta2 = replaced(theta, {4: 0.5, 6: -1.0})
    # extra paths: b(h1)*w(h1->out) = 1.5 and b(out) = -1
    assert path_norm_fast(arch, theta2, q=1) == pytest.approx(7.5)


def test_fast_norm_equals_enumeration_on_corpus():
    for arch, theta, _ in random_cases(40, seed=401, zero_frac=0.1):
        lift = path_lifting(arch, theta)
        for q in (1.0, 2.0):
            np.testing.assert_allclose(
                path_norm_fast(arch, theta, q=q), np.sum(np.abs(lift.values) ** q), rtol=1e-9
            )


def test_surrogate_does_not_mutate_original(pool_net):
    arch, theta = pool_net
    before = forward(arch, theta, [1.0, 1.0])
    path_norm_fast(arch, theta)
    np.testing.assert_array_equal(forward(arch, theta, [1.0, 1.0]), before)


def test_metric_oracle_and_lower(diamond):
    arch, theta, theta2 = pruned_pair(diamond)
    assert path_metric_oracle(arch, theta, theta2) == 3.0
    assert path_metric_lower(arch, theta, theta2) == 3.0


def test_lower_bound_can_be_loose(diamond):
    arch, theta = diamond
    # every input-to-output path has two edges, so negating all coordinates
    # leaves the lifting unchanged
    neg = ParamVector(arch, -theta.vec)
    assert path_metric_lower(arch, theta, neg) == 0.0
    assert path_metric_oracle(arch, theta, neg) == 0.0
    # flipping a single edge moves the lifting without moving its norm
    flipped = replaced(theta, {0: -1.0})
    assert path_metric_lower(arch, theta, flipped) == 0.0
    assert path_metric_oracle(arch, theta, flipped) == 6.0


def test_exact_dominated_pruned_pair(diamond):
    arch, theta, theta2 = pruned_pair(diamond)
    assert path_metric_exact_dominated(arch, theta, theta2) == 3.0
    assert path_metric_exact_dominated(arch, theta2, theta) == 3.0


def test_exact_dominated_through_lifting_comparison(diamond):
    arch, theta, theta2 = pruned_pair(diamond)
    # rescaling hides the coordinatewise ordering but not the lifting ordering
    moved = rescale(arch, theta2, {"h1": 3.0})
    assert not np.all(np.abs(moved.vec) <= np.abs(theta.vec))
    assert path_metric_exact_dominated(arch, theta, moved) == pytest.approx(3.0)


def test_exact_dominated_rejects_incomparable(diamond):
    arch, theta = diamond
    other = ParamVector(arch, [2.0, -1.0, 3.0, 1.0, 0.0, 0.0, 0.0])
    with pytest.raises(DominanceUnverified):
        path_metric_exact_dominated(arch, theta, other)


def test_exact_dominated_requires_matching_signs():
    # one edge: theta = (1, b=0) against (-0.5, 0); |theta| >= |theta'|,
    # but the single input path flips sign, so the metric is 1.5, not 0.5
    arch = Architecture([("in", "input"), ("out", "identity")], [("in", "out")])
    t1 = ParamVector(arch, [1.0, 0.0])
    t2 = ParamVector(arch, [-0.5, 0.0])
    assert path_metric_oracle(arch, t1, t2) == 1.5
    for a, b in ((t1, t2), (t2, t1)):
        with pytest.raises(DominanceUnverified):
            path_metric_exact_dominated(arch, a, b)
    report = path_metric_report(arch, t1, t2)
    assert report.exact is None
    assert "(dominance unverified)" in report.render()


def test_exact_dominated_lifting_route_requires_matching_signs(chain2):
    # the parameters disagree in sign, and the liftings match in magnitude
    # but not in sign: (1, 0, 0) against (-1, 0, 0)
    t1 = ParamVector(chain2, [1.0, 1.0, 0.0, 0.0])
    t2 = ParamVector(chain2, [-2.0, 0.5, 0.0, 0.0])
    assert path_metric_oracle(chain2, t1, t2) == 2.0
    with pytest.raises(DominanceUnverified):
        path_metric_exact_dominated(chain2, t1, t2)


@pytest.mark.parametrize("q", [0.0, -1.0, np.inf, np.nan])
def test_q_must_be_finite_and_positive(diamond, q):
    arch, theta = diamond
    with pytest.raises(PathliftError, match="q must be"):
        path_norm_fast(arch, theta, q=q)


def test_exact_dominated_has_no_cancellation():
    # path norm about 8e8: subtracting the two path norms lost about 5e-4
    # of this metric, which is one bias path's gap
    arch = mlp_architecture((2, 8, 8, 8, 2))
    theta = ParamVector(arch, 30 * np.random.default_rng(0).normal(size=arch.n_coords))
    v = theta.vec.copy()
    v[arch.bias_coord[arch.output_pos[0]]] *= 0.999999
    other = ParamVector(arch, v)
    want = path_metric_oracle(arch, theta, other)
    assert path_metric_exact_dominated(arch, theta, other) == want
    assert path_metric_exact_dominated(arch, other, theta) == want


def test_exact_dominated_lifting_route_sums_the_lifting_gaps():
    # rescaling the shrunk partner hides the coordinatewise ordering, so the
    # liftings certify dominance; subtracting the two path norms (about 8e8)
    # lost about 5e-4 of this metric
    arch = mlp_architecture((2, 8, 8, 8, 2))
    theta = ParamVector(arch, 30 * np.random.default_rng(0).normal(size=arch.n_coords))
    v = theta.vec.copy()
    v[arch.bias_coord[arch.output_pos[0]]] *= 0.999999
    other = rescale(arch, ParamVector(arch, v), random_rescaling(arch, 1))
    assert not np.all(np.abs(other.vec) <= np.abs(theta.vec))
    want = path_metric_oracle(arch, theta, other)
    assert path_metric_exact_dominated(arch, theta, other) == want
    assert path_metric_exact_dominated(arch, other, theta) == want


def test_exact_dominated_counts_paths_through_neurons_pruning_kills():
    # pruning in->h leaves h at 0 on the smaller side; the path in->h->out
    # still has gap 1, and h's outgoing edge must carry it
    arch = Architecture(
        [("in", "input"), ("h", "relu"), ("out", "identity")], [("in", "h"), ("h", "out")]
    )
    theta = ParamVector(arch, [1.0, 1.0, 0.0, 0.0])
    pruned = replaced(theta, {0: 0.0})
    assert path_metric_oracle(arch, theta, pruned) == 1.0
    assert path_metric_exact_dominated(arch, theta, pruned) == 1.0


def test_exact_matches_oracle_on_shrunk_corpus():
    # partners theta * U(0, 1) with a third of the coordinates zeroed
    for arch, theta, rng in random_cases(100, seed=403, max_layers=5, max_width=6, p_kpool=0.4):
        u = rng.uniform(size=arch.n_coords) * (rng.random(arch.n_coords) > 0.3)
        other = ParamVector(arch, theta.vec * u)
        np.testing.assert_allclose(
            path_metric_exact_dominated(arch, theta, other),
            path_metric_oracle(arch, theta, other),
            rtol=1e-12,
        )


def test_exact_matches_oracle_on_masked_corpus():
    for arch, theta, rng in random_cases(30, seed=402):
        keep = rng.random(arch.n_coords) > 0.3
        masked = ParamVector(arch, theta.vec * keep)
        np.testing.assert_allclose(
            path_metric_exact_dominated(arch, theta, masked),
            path_metric_oracle(arch, theta, masked),
            rtol=1e-9,
        )


def test_upper_coarse_diamond(diamond):
    arch, theta, theta2 = pruned_pair(diamond)
    assert path_metric_upper(arch, theta, theta2) == pytest.approx(24.0)


def test_upper_refined_diamond(diamond):
    arch, theta, theta2 = pruned_pair(diamond)
    refined = path_metric_upper(arch, theta, theta2, refined=True)
    assert refined == pytest.approx(3.0)


def test_upper_bounds_dominate_oracle_on_corpus():
    for arch, t1, rng in random_cases(60, seed=403):
        t2 = ParamVector(arch, t1.vec * rng.uniform(-1.5, 1.5, size=arch.n_coords))
        oracle = path_metric_oracle(arch, t1, t2)
        refined = path_metric_upper(arch, t1, t2, refined=True)
        assert oracle <= refined * (1 + 1e-9) + 1e-12
        coarse = path_metric_upper(arch, t1, t2)
        assert oracle <= coarse * (1 + 1e-9) + 1e-12


def test_coarse_upper_bound_counts_the_hidden_bias(chain2):
    # the graph width (1) left out the bias of the hidden neuron: the bound
    # was 0.2174 against the oracle's 0.3742
    t1 = ParamVector(chain2, [-0.6007, -0.4442, 0.0, -0.1945])
    t2 = ParamVector(chain2, [-0.1312, -0.5095, 0.0, -0.0203])
    oracle = path_metric_oracle(chain2, t1, t2)
    assert oracle == pytest.approx(0.37418454, rel=1e-12)
    assert oracle <= path_metric_upper(chain2, t1, t2)


def test_refined_bound_exact_without_hidden_neurons():
    arch = Architecture([("in", "input"), ("out", "identity")], [("in", "out")])
    t1 = ParamVector(arch, [0.3, 0.1])
    t2 = ParamVector(arch, [0.1, -0.05])
    refined = path_metric_upper(arch, t1, t2, refined=True)
    assert refined == pytest.approx(path_metric_oracle(arch, t1, t2))


def test_upper_bounds_invariant_under_rescaling():
    for arch, t1, rng in random_cases(15, seed=404):
        t2 = ParamVector(arch, t1.vec * rng.uniform(0.2, 1.8, size=arch.n_coords))
        factors = {
            arch.ids[j]: float(rng.uniform(0.25, 4.0))
            for j in np.flatnonzero(~arch.is_input)
            if j not in arch.output_pos
        }
        r1, r2 = rescale(arch, t1, factors), rescale(arch, t2, factors)
        for refined in (False, True):
            np.testing.assert_allclose(
                path_metric_upper(arch, r1, r2, refined=refined),
                path_metric_upper(arch, t1, t2, refined=refined),
                rtol=1e-9,
            )


def test_metric_report_render(diamond):
    arch, theta, theta2 = pruned_pair(diamond)
    report = path_metric_report(arch, theta, theta2)
    assert report.lower == 3.0
    assert report.exact == 3.0
    assert report.oracle == 3.0
    assert report.upper_coarse == pytest.approx(24.0)
    text = report.render()
    assert "lower" in text and "oracle" in text


def test_metric_report_incomparable_pair(diamond):
    arch, theta = diamond
    other = ParamVector(arch, [2.0, -1.0, 3.0, 1.0, 0.0, 0.0, 0.0])
    report = path_metric_report(arch, other, theta)
    assert report.exact is None
    assert "dominates" in report.note


def test_mlp_bounds_zero_for_equal_params():
    m = [np.array([[1.0], [-2.0]]), np.array([[3.0, 1.0]])]
    out = mlp_bounds(m, m, [1.0])
    assert all(v == 0.0 for v in out.values())


def test_mlp_bounds_diamond_as_mlp():
    la = [np.array([[1.0], [-2.0]]), np.array([[3.0, 1.0]])]
    lb = [np.array([[1.0], [-2.0]]), np.array([[0.0, 1.0]])]
    out = mlp_bounds(la, lb, [1.0])
    assert out["path_metric_ub"] == pytest.approx(96.0)
    assert out["legacy"] == pytest.approx(288.0)
    assert out["recovered_same_sign"] == pytest.approx(96.0)
    assert out["recovered_any_sign"] == pytest.approx(192.0)


def test_mlp_bounds_ragged_input():
    la = [np.ones((2, 1)), np.ones((1, 2))]
    with pytest.raises(RaggedLayers):
        mlp_bounds(la, [np.ones((2, 1))], [1.0])
    with pytest.raises(RaggedLayers):
        mlp_bounds(la, la, [1.0, 1.0])


def test_mlp_architecture_refuses_widths_that_are_not_whole_numbers():
    assert mlp_architecture([2, 3.0, np.int64(2)]) == mlp_architecture((2, 3, 2))
    for widths in (["2", 3, 2], ["2", "x"], [2, 2.5, 2], [2, math.nan], [2, math.inf], [2, None], [2, 0], [2]):
        with pytest.raises(RaggedLayers):
            mlp_architecture(widths)


def test_mlp_params_follow_edge_index_and_round_trip():
    rng = np.random.default_rng(12)
    arch = mlp_architecture((2, 3, 2))
    mats = [rng.normal(size=(3, 2)), rng.normal(size=(2, 3))]
    biases = [rng.normal(size=3), rng.normal(size=2)]
    theta = mlp_params(arch, mats, biases)
    for l, m in enumerate(mats):
        for i in range(m.shape[0]):
            assert bias(theta, f"L{l + 1}n{i:03d}") == biases[l][i]
            for j in range(m.shape[1]):
                assert weight(theta, f"L{l}n{j:03d}", f"L{l + 1}n{i:03d}") == m[i, j]
    for got, want in zip(mlp_matrices(arch, theta), mats):
        np.testing.assert_array_equal(got, want)
    with pytest.raises(RaggedLayers):
        mlp_params(arch, mats, biases[:1])


def test_mlp_params_reject_incomplete_layers():
    full = mlp_architecture((2, 3, 2))
    neurons = list(zip(full.ids, full.tags))
    missing = [e for e in edge_ids(full) if e != ("L0n000", "L1n000")]
    arch = Architecture(neurons, missing)
    mats = [np.ones((3, 2)), np.ones((2, 3))]
    with pytest.raises(RaggedLayers):
        mlp_params(arch, mats)
    with pytest.raises(RaggedLayers):
        mlp_matrices(arch, ParamVector(arch, np.zeros(arch.n_coords)))
    # a skip edge breaks the layering too
    skip = Architecture(neurons, [*edge_ids(full), ("L0n000", "L2n000")])
    with pytest.raises(RaggedLayers):
        mlp_matrices(skip, ParamVector(skip, np.zeros(skip.n_coords)))


def _refined_corpus():
    cases = [(arch, t1, ParamVector(arch, t1.vec * rng.uniform(-1.5, 1.5, size=arch.n_coords)), rng)
             for arch, t1, rng in random_cases(60, seed=405, p_kpool=0.4, p_skip=0.5)]
    arch = conv_grid_architecture(side=6, channels=(2, 3), d_out=3)
    rng = np.random.default_rng(406)
    t1 = random_params(arch, rng)
    return cases + [(arch, t1, same_sign_partner(t1, rng), rng)]


def test_refined_bound_matches_reference_loops():
    for arch, t1, t2, rng in _refined_corpus():
        # integer discrepancies make every sum exact: both parts agree exactly
        d = rng.integers(0, 4, size=arch.n_coords).astype(np.float64)
        assert _discrepancy_sums(arch, d) == reference_refined_parts(arch, d)
        refined = path_metric_upper(arch, t1, t2, refined=True)
        assert refined == pytest.approx(reference_upper_refined(arch, t1, t2), rel=1e-12, abs=0)
        assert refined >= path_metric_lower(arch, t1, t2)

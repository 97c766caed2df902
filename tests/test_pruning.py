"""Pruning scores (three path-magnitude routes, magnitude, OBD), masks, and
the output-change guarantee."""

import numpy as np
import pytest

from pathlift.builders import conv_grid_architecture, mlp_architecture, random_dag, random_params
from pathlift.errors import (
    DimensionMismatch,
    InfeasibleAmount,
    MissingData,
    NonFiniteValue,
    PathliftError,
)
from pathlift.graph import Architecture, ParamVector, forward
from pathlift.metrics import path_metric_oracle
from pathlift.pruning import (
    apply_prune,
    baseline_scores,
    magnitude_scores,
    obd_fd_scores,
    ScoreVector,
    path_mag_scores,
    pruning_error_bound,
)
from pathlift.transforms import random_rescaling, rescale

from conftest import random_cases
from reference import reference_obd_fd_scores, reference_pathnorm_diff_scores

METHODS = ("autodiff", "pathnorm_diff", "bruteforce")


def _chain_net():
    arch = Architecture(
        [("in", "input"), ("m", "relu"), ("out", "identity")],
        [("in", "m"), ("m", "out")],
    )
    return arch, ParamVector(arch, [1.5, -0.75, 0.4, 0.2])


def test_path_mag_diamond_all_methods(diamond):
    arch, theta = diamond
    for method in METHODS:
        sv = path_mag_scores(arch, theta, method=method)
        assert sv.criterion == "pathmag" and sv.method == method
        np.testing.assert_array_equal(sv.values, [3.0, 2.0, 3.0, 2.0, 0.0, 0.0, 0.0])


def test_path_mag_zero_params(diamond):
    arch, _ = diamond
    theta = ParamVector(arch, np.zeros(arch.n_coords))
    for method in METHODS:
        np.testing.assert_array_equal(path_mag_scores(arch, theta, method=method).values, 0.0)


def test_path_mag_unknown_method(diamond):
    arch, theta = diamond
    with pytest.raises(PathliftError):
        path_mag_scores(arch, theta, method="guess")


def test_path_mag_three_routes_agree_on_corpus():
    for arch, theta, rng in random_cases(30, seed=7070, zero_frac=0.1):
        ad = path_mag_scores(arch, theta, method="autodiff").values
        diff = path_mag_scores(arch, theta, method="pathnorm_diff").values
        brute = path_mag_scores(arch, theta, method="bruteforce").values
        np.testing.assert_allclose(diff, ad, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(brute, ad, rtol=1e-9, atol=1e-12)


def test_pathnorm_diff_is_the_per_coordinate_loop():
    # criterion 8's corpus, and a net whose coordinates take several stacks
    cases = [(arch, theta) for arch, theta, _ in random_cases(100, seed=808)]
    arch = conv_grid_architecture(side=6, channels=(2, 3), d_out=3)
    cases.append((arch, random_params(arch, np.random.default_rng(8), zero_frac=0.2)))
    for arch, theta in cases:
        got = path_mag_scores(arch, theta, method="pathnorm_diff").values
        assert np.array_equal(got, reference_pathnorm_diff_scores(arch, theta))


def test_pathnorm_diff_is_the_per_coordinate_loop_with_many_outputs():
    # 8 or more outputs: each item's output sum must add them as path_norm_fast does
    for arch in (mlp_architecture((3, 6, 8)), conv_grid_architecture(side=6, channels=(2, 3), d_out=10)):
        theta = random_params(arch, np.random.default_rng(8), zero_frac=0.2)
        got = path_mag_scores(arch, theta, method="pathnorm_diff").values
        assert np.array_equal(got, reference_pathnorm_diff_scores(arch, theta))


def test_path_mag_bit_exact_under_rescaling():
    for arch, theta, rng in random_cases(10, seed=1212):
        factors = random_rescaling(arch, rng)
        other = rescale(arch, theta, factors)
        for method in METHODS:
            np.testing.assert_array_equal(
                path_mag_scores(arch, other, method=method).values,
                path_mag_scores(arch, theta, method=method).values,
            )


def test_magnitude_scores(diamond):
    arch, theta = diamond
    sv = magnitude_scores(arch, theta)
    np.testing.assert_array_equal(sv.values, [1.0, 2.0, 3.0, 1.0, 0.0, 0.0, 0.0])


def test_obd_fd_single_weight_analytic():
    arch = Architecture([("in", "input"), ("out", "identity")], [("in", "out")])
    theta = ParamVector(arch, [2.0, 0.0])
    sv = obd_fd_scores(arch, theta, ([[1.0]], [[0.0]]))
    # loss 0.5*(w*x + b)^2 has unit Hessian diagonal here, so the edge
    # saliency is 0.5 * 1 * 2^2
    assert sv.values[0] == pytest.approx(2.0, rel=1e-6)
    assert sv.values[1] == 0.0


def test_obd_fd_approximately_rescaling_invariant():
    arch, theta = _chain_net()
    data = ([[1.0], [-0.5], [2.0]], [[0.5], [0.0], [-1.0]])
    base = obd_fd_scores(arch, theta, data).values
    for lam in (2.0, 8.0):
        scores = obd_fd_scores(arch, rescale(arch, theta, {"m": lam}), data).values
        np.testing.assert_allclose(scores, base, rtol=1e-3, atol=1e-12)


def test_obd_data_must_be_a_pair_with_finite_targets(diamond):
    arch, theta = diamond
    for bad in (([[1.0]],), ([[1.0]], [[0.0]], [[2.0]]), 5):
        with pytest.raises(MissingData):
            obd_fd_scores(arch, theta, bad)
    for y in ([[np.nan]], [[np.inf]], [-np.inf]):
        with pytest.raises(NonFiniteValue, match="target"):
            obd_fd_scores(arch, theta, ([[1.0]], y))


def test_baseline_scores_dispatch(diamond):
    arch, theta = diamond
    assert baseline_scores(arch, theta, "magnitude").criterion == "magnitude"
    with pytest.raises(MissingData):
        baseline_scores(arch, theta, "obd_fd")
    with pytest.raises(PathliftError):
        baseline_scores(arch, theta, "coinflip")


def test_a_mask_refuses_parameters_of_another_architecture():
    small, big = mlp_architecture((2, 3, 2)), mlp_architecture((2, 4, 2))
    theta = random_params(small, 0)
    _, mask = apply_prune(theta, magnitude_scores(small, theta), count=2)
    with pytest.raises(DimensionMismatch, match="mask covers 17 coordinates, the parameters 22"):
        mask.apply(random_params(big, 0))


def test_apply_prune_diamond_half_edges(diamond):
    arch, theta = diamond
    scores = path_mag_scores(arch, theta)
    pruned_theta, mask = apply_prune(theta, scores, fraction=0.5, edges_only=True)
    assert mask.pruned == (1, 3)
    np.testing.assert_array_equal(pruned_theta.vec, [1.0, 0.0, 3.0, 0.0, 0.0, 0.0, 0.0])
    np.testing.assert_array_equal(mask.keep, [True, False, True, False, True, True, True])
    assert mask.hamming(mask) == 0


def test_apply_prune_fraction_zero_is_noop(diamond):
    arch, theta = diamond
    pruned_theta, mask = apply_prune(theta, path_mag_scores(arch, theta), fraction=0.0)
    assert mask.pruned == ()
    np.testing.assert_array_equal(pruned_theta.vec, theta.vec)


def test_apply_prune_tie_breaks_to_earlier_coordinate(diamond):
    arch, theta = diamond
    flat = ParamVector(arch, np.ones(arch.n_coords))
    _, mask = apply_prune(flat, magnitude_scores(arch, flat), count=1)
    assert mask.pruned == (0,)


def test_apply_prune_infeasible_amounts(diamond):
    arch, theta = diamond
    scores = path_mag_scores(arch, theta)
    with pytest.raises(InfeasibleAmount):
        apply_prune(theta, scores, fraction=0.5, count=1)
    with pytest.raises(InfeasibleAmount):
        apply_prune(theta, scores)
    with pytest.raises(InfeasibleAmount):
        apply_prune(theta, scores, fraction=1.5)
    with pytest.raises(InfeasibleAmount):
        apply_prune(theta, scores, fraction=-0.1)
    with pytest.raises(InfeasibleAmount):
        apply_prune(theta, scores, count=arch.n_coords + 1)


def _misfit_scores(arch, theta):
    """Score vectors 5 entries too long, 2 too short, and one row too many."""
    v = magnitude_scores(arch, theta).values
    return [ScoreVector("magnitude", "abs", w) for w in (np.r_[v, np.zeros(5)], v[:-2], v[None, :])]


def test_apply_prune_refuses_scores_that_do_not_fit(diamond):
    arch, theta = diamond
    for scores in _misfit_scores(arch, theta):
        with pytest.raises(DimensionMismatch):
            apply_prune(theta, scores, count=2)


def test_masks_bit_exact_under_rescaling():
    for arch, theta, rng in random_cases(10, seed=9443):
        scores = path_mag_scores(arch, theta)
        _, mask = apply_prune(theta, scores, fraction=0.4, edges_only=True)
        other = rescale(arch, theta, random_rescaling(arch, rng))
        _, mask_r = apply_prune(other, path_mag_scores(arch, other), fraction=0.4, edges_only=True)
        assert mask_r.pruned == mask.pruned
        assert mask_r.hamming(mask) == 0


def test_pruning_error_bound_diamond(diamond):
    arch, theta = diamond
    report = pruning_error_bound(arch, theta, [1, 3], [1.0])
    assert report.bound == 4.0
    assert report.lhs == 0.0
    assert report.holds


def test_pruning_error_bound_tight(diamond):
    arch, theta = diamond
    report = pruning_error_bound(arch, theta, [2], [2.0])
    assert report.bound == 6.0
    assert report.lhs == 6.0
    assert report.holds


def test_pruning_error_bound_counts_a_repeated_coordinate_once(diamond):
    arch, theta = diamond
    once = pruning_error_bound(arch, theta, [0], [1.0])
    assert once.bound == 3.0
    assert pruning_error_bound(arch, theta, [0, 0], [1.0]) == once


def test_pruning_error_bound_index_range(diamond):
    arch, theta = diamond
    with pytest.raises(InfeasibleAmount):
        pruning_error_bound(arch, theta, [99], [1.0])


def test_pruning_error_bound_checks_the_input(diamond):
    arch, theta = diamond
    for x, error in (([], DimensionMismatch), ([1.0, 2.0], DimensionMismatch), ([np.nan], NonFiniteValue)):
        with pytest.raises(error):
            pruning_error_bound(arch, theta, [0], x)


def test_pruning_error_bound_refuses_scores_that_do_not_fit(diamond):
    arch, theta = diamond
    for scores in _misfit_scores(arch, theta):
        with pytest.raises(DimensionMismatch):
            pruning_error_bound(arch, theta, [1], [1.0], scores=scores)


def test_pruning_error_bound_random_trials():
    for arch, theta, rng in random_cases(25, seed=31337):
        n_pick = int(rng.integers(1, arch.n_coords + 1))
        idx = rng.choice(arch.n_coords, size=n_pick, replace=False)
        x = rng.normal(scale=2.0, size=arch.d_in)
        report = pruning_error_bound(arch, theta, idx, x)
        assert report.holds, (report.lhs, report.bound)


def test_score_sum_dominates_joint_metric():
    # paths through several removed coordinates are counted once per
    # coordinate in the score sum but once in the metric
    for arch, theta, rng in random_cases(15, seed=606):
        scores = path_mag_scores(arch, theta).values
        n_pick = int(rng.integers(1, arch.n_coords + 1))
        idx = rng.choice(arch.n_coords, size=n_pick, replace=False)
        keep = np.ones(arch.n_coords)
        keep[idx] = 0.0
        masked = ParamVector(arch, theta.vec * keep)
        metric = path_metric_oracle(arch, theta, masked)
        assert metric <= float(scores[idx].sum()) * (1.0 + 1e-9) + 1e-12


def test_kpool_pinned_bias_never_eligible(pool_net):
    arch, theta = pool_net
    bias_m = int(arch.bias_coord[arch.position("m")])
    scores = magnitude_scores(arch, theta)
    pruned_theta, mask = apply_prune(theta, scores, count=4)
    assert bool(mask.keep[bias_m])
    assert bias_m not in mask.pruned
    with pytest.raises(InfeasibleAmount):
        apply_prune(theta, scores, count=5)


def test_obd_fd_is_the_per_coordinate_loop():
    rng = np.random.default_rng(12)
    cases = [(arch, theta) for arch, theta, _ in random_cases(8, 41, zero_frac=0.2, p_kpool=0.4)]
    mlp = mlp_architecture((2, 16, 16, 2))
    cases.append((mlp, random_params(mlp, rng)))
    for arch, theta in cases:
        x = rng.normal(size=(256, arch.d_in))
        for loss, y in (("squared_error", rng.normal(size=(256, arch.d_out))),
                        ("logistic", rng.integers(0, 2, size=256))):
            got = obd_fd_scores(arch, theta, (x, y), loss=loss).values
            assert got.tobytes() == reference_obd_fd_scores(arch, theta, (x, y), loss=loss).tobytes()
    arch, theta = _chain_net()
    single = ([1.0], [0.5])  # one input, not a batch
    assert obd_fd_scores(arch, theta, single).values.tobytes() == reference_obd_fd_scores(arch, theta, single).tobytes()


def test_pruning_amounts_of_the_wrong_type_raise_typed_errors(diamond):
    arch, theta = diamond
    for bad in ([0.7], ["x"], [[1, 2]], [True], 3, [1, None]):
        with pytest.raises(InfeasibleAmount):
            pruning_error_bound(arch, theta, bad, [1.0])
    for bad in ("a", "0.5", True, None):
        with pytest.raises(InfeasibleAmount):
            apply_prune(theta, magnitude_scores(arch, theta), fraction=bad)
    assert pruning_error_bound(arch, theta, np.array([1, 3]), [1.0]) == pruning_error_bound(arch, theta, [1, 3], [1.0])
    assert pruning_error_bound(arch, theta, [], [1.0]).bound == 0.0

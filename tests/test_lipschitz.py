"""Output-gap bound, proof trajectory, telescoping, and the two witnesses."""

import math
import tracemalloc

import numpy as np
import pytest

from pathlift import engine
from pathlift.builders import mlp_architecture, random_dag, random_params, same_sign_partner
from pathlift.errors import (
    DimensionMismatch,
    MixedZeroCoordinate,
    NonFiniteValue,
    PathExplosion,
    PathliftError,
    SignConditionViolated,
)
from pathlift.graph import Architecture, ParamVector, forward
from pathlift.lipschitz import (
    MAX_SAMPLED_ENTRIES,
    activation_breakpoints,
    bound_rhs,
    check_sign_condition,
    equality_witness,
    sign_counterexample,
    trajectory_point,
    verify_bound,
)
from pathlift.paths import enumerate_paths, path_lifting
from pathlift.transforms import random_rescaling, rescale

from conftest import random_cases
from reference import reference_activation_breakpoints


def _single_edge(w1, w2):
    arch = Architecture([("in", "input"), ("out", "identity")], [("in", "out")])
    return arch, ParamVector(arch, [w1, 0.0]), ParamVector(arch, [w2, 0.0])


def test_bound_rhs_diamond_pruned_pair(diamond):
    arch, theta = diamond
    theta2 = theta.replace({2: 0.0})
    assert bound_rhs(arch, theta, theta2, [2.0]) == 6.0
    # below |x|=1 the input factor clamps to 1
    assert bound_rhs(arch, theta, theta2, [0.5]) == 3.0


def test_bound_rhs_equal_params_is_zero(diamond):
    arch, theta = diamond
    assert bound_rhs(arch, theta, theta, [3.0]) == 0.0


@pytest.mark.parametrize("variant", ["main", "split"])
def test_bound_rhs_checks_the_input(variant):
    # the entry 50 is not an input of the network, so it must not set |x|_inf
    arch = mlp_architecture((2, 3, 1))
    theta = random_params(arch, np.random.default_rng(0))
    other = theta.replace({0: 0.0})
    for x in ([3.0, 1.0, 50.0], []):
        with pytest.raises(DimensionMismatch):
            bound_rhs(arch, theta, other, x, variant=variant)
        with pytest.raises(DimensionMismatch):
            verify_bound(arch, theta, other, x, variant=variant)
    with pytest.raises(NonFiniteValue):
        bound_rhs(arch, theta, other, [1.0, np.inf], variant=variant)


def test_sign_condition_carries_labels(chain2):
    arch = chain2
    t1 = ParamVector(arch, [1.0, 1.0, 0.0, 0.0])
    t2 = ParamVector(arch, [-1.0, -1.0, 0.0, 0.0])
    with pytest.raises(SignConditionViolated) as err:
        check_sign_condition(t1, t2)
    assert err.value.coords == ["in->m", "m->out"]
    with pytest.raises(SignConditionViolated):
        bound_rhs(arch, t1, t2, [1.0])


def test_sign_condition_sees_signs_whose_product_underflows(chain2):
    # 1e-200 * -1e-200 rounds to -0.0, yet the signs disagree
    t1 = ParamVector(chain2, [1e-200, 1.0, 0.0, 0.0])
    t2 = ParamVector(chain2, [-1e-200, 1.0, 0.0, 0.0])
    with pytest.raises(SignConditionViolated) as err:
        check_sign_condition(t1, t2)
    assert err.value.coords == ["in->m"]


def test_verify_bound_tight_case(diamond):
    arch, theta = diamond
    theta2 = theta.replace({2: 0.0})
    report = verify_bound(arch, theta, theta2, [2.0])
    assert report.holds
    assert report.lhs == 6.0
    assert report.rhs == 6.0
    assert report.slack == 0.0
    assert report.metric_method == "oracle"
    assert "holds" in report.render()


def test_verify_bound_random_corpus_both_variants():
    for arch, theta, rng in random_cases(50, seed=3207):
        other = same_sign_partner(theta, rng, zero_frac=0.1)
        x = rng.normal(scale=1.5, size=arch.d_in)
        for variant in ("main", "split"):
            report = verify_bound(arch, theta, other, x, variant=variant)
            assert report.holds, (variant, report.lhs, report.rhs)


def test_bound_rhs_invariant_under_independent_rescalings():
    for arch, theta, rng in random_cases(8, seed=6410):
        other = same_sign_partner(theta, rng)
        x = rng.normal(size=arch.d_in)
        base_main = bound_rhs(arch, theta, other, x)
        base_split = bound_rhs(arch, theta, other, x, variant="split")
        t_r = rescale(arch, theta, random_rescaling(arch, rng))
        o_r = rescale(arch, other, random_rescaling(arch, rng))
        # power-of-two factors leave the liftings bit-identical
        assert bound_rhs(arch, t_r, o_r, x) == base_main
        assert bound_rhs(arch, t_r, o_r, x, variant="split") == base_split


def test_trajectory_point_values():
    arch, t1, t2 = _single_edge(1.0, 4.0)
    assert trajectory_point(t1, t2, 0.5).vec[0] == 2.0
    arch, t1, t2 = _single_edge(-4.0, -16.0)
    assert trajectory_point(t1, t2, 0.5).vec[0] == -8.0


def test_trajectory_endpoints_exact():
    for arch, theta, rng in random_cases(10, seed=88):
        other = same_sign_partner(theta, rng)
        np.testing.assert_array_equal(trajectory_point(theta, other, 0.0).vec, theta.vec)
        np.testing.assert_array_equal(trajectory_point(theta, other, 1.0).vec, other.vec)


def test_trajectory_mixed_zero_raises(diamond):
    arch, theta = diamond
    pruned = theta.replace({2: 0.0})
    with pytest.raises(MixedZeroCoordinate):
        trajectory_point(theta, pruned, 0.5)


def test_trajectory_keeps_shared_zeros(diamond):
    arch, theta = diamond
    point = trajectory_point(theta, theta.replace({0: 2.0}), 0.37)
    # all three biases are zero on both sides
    np.testing.assert_array_equal(point.vec[arch.n_edges :], 0.0)


def test_trajectory_sign_violation_raises():
    arch, t1, t2 = _single_edge(1.0, -1.0)
    with pytest.raises(SignConditionViolated):
        trajectory_point(t1, t2, 0.5)


def test_lifting_monotone_along_trajectory():
    ts = np.linspace(0.0, 1.0, 11)
    for arch, theta, rng in random_cases(20, seed=5150):
        other = same_sign_partner(theta, rng)
        values = np.stack(
            [path_lifting(arch, trajectory_point(theta, other, t)).values for t in ts]
        )
        diffs = np.diff(values, axis=0)
        tol = 1e-12 * max(1.0, float(np.abs(values).max()))
        for col in range(values.shape[1]):
            d = diffs[:, col]
            assert d.min() >= -tol or d.max() <= tol


def test_breakpoint_micro_case():
    arch = Architecture(
        [("in1", "input"), ("in2", "input"), ("h", "relu"), ("out", "identity")],
        [("in1", "h"), ("in2", "h"), ("h", "out")],
    )
    t1 = ParamVector(arch, [1.0, 2.0, 1.0, 0.0, 0.0])
    t2 = ParamVector(arch, [1.0, 0.25, 1.0, 0.0, 0.0])
    # pre-activation of h along the trajectory is 1 - 2**(1 - 3t)
    found, report = activation_breakpoints(arch, t1, t2, [1.0, -1.0])
    assert len(found) == 1
    assert abs(found[0].t - 1.0 / 3.0) <= 1e-8
    # the three paths through h flip; the bare output path never does
    assert found[0].changed_paths == (0, 1, 2)
    assert found[0].n_changed == 3
    assert report.segment_sum == report.endpoint_metric == 1.75
    assert report.rel_err == 0.0
    assert report.boundaries[0] == 0.0 and report.boundaries[-1] == 1.0


def _micro_pair():
    """The micro case's net: its one breakpoint sits at t = 1/3."""
    arch = Architecture(
        [("in1", "input"), ("in2", "input"), ("h", "relu"), ("out", "identity")],
        [("in1", "h"), ("in2", "h"), ("h", "out")],
    )
    t1 = ParamVector(arch, [1.0, 2.0, 1.0, 0.0, 0.0])
    t2 = ParamVector(arch, [1.0, 0.25, 1.0, 0.0, 0.0])
    return arch, t1, t2, [1.0, -1.0]


def _limit_passes(monkeypatch, limit=200):
    """Fail, rather than hang, once more than ``limit`` engine passes ran."""
    passes = []
    run = engine.run

    def counted(*a, **k):
        passes.append(1)
        assert len(passes) <= limit, "bisection did not terminate"
        return run(*a, **k)

    monkeypatch.setattr(engine, "run", counted)


@pytest.mark.parametrize("width", [0.0, 1e-17])
def test_breakpoints_stop_at_the_float_spacing(monkeypatch, width):
    _limit_passes(monkeypatch)
    found, report = activation_breakpoints(*_micro_pair(), width=width)
    assert len(found) == 1 and abs(found[0].t - 1.0 / 3.0) <= 1e-15
    assert found[0].changed_paths == (0, 1, 2)
    assert report.rel_err == 0.0


@pytest.mark.parametrize(
    "kwargs",
    [{"samples": 0}, {"samples": -1}, {"width": math.nan}, {"width": -1.0}, {"samples": 2.5}, {"samples": "3"}],
    ids=["samples-0", "samples-negative", "width-nan", "width-negative", "samples-float", "samples-str"],
)
def test_breakpoints_reject_out_of_range_arguments(monkeypatch, kwargs):
    _limit_passes(monkeypatch)
    with pytest.raises(PathliftError):
        activation_breakpoints(*_micro_pair(), **kwargs)


def test_breakpoints_identical_params(diamond):
    arch, theta = diamond
    found, report = activation_breakpoints(arch, theta, theta, [1.0], samples=16)
    assert found == []
    assert report.boundaries == (0.0, 1.0)
    assert report.segment_sum == 0.0
    assert report.endpoint_metric == 0.0
    assert report.rel_err == 0.0


def test_telescoping_matches_endpoint_metric_without_breakpoints(diamond):
    arch, theta = diamond
    other = theta.replace({2: 1.0, 1: -0.5})
    found, report = activation_breakpoints(arch, theta, other, [1.0], samples=16)
    assert report.endpoint_metric == pytest.approx(3.5, rel=1e-12)
    assert report.rel_err <= 1e-9


def test_telescoping_random_corpus():
    for arch, theta, rng in random_cases(12, seed=2024):
        other = same_sign_partner(theta, rng)
        x = rng.normal(size=arch.d_in)
        _, report = activation_breakpoints(arch, theta, other, x, samples=32)
        assert report.rel_err <= 1e-9


def _breakpoint_corpus():
    """The benchmark's corpus: 100 random DAGs with same-sign partners and
    inputs, 32 of which have activation changes along the trajectory."""
    corpus = []
    for child in np.random.SeedSequence(4).spawn(100):
        r = np.random.default_rng(child)
        arch = random_dag(r, max_layers=5, max_width=6)
        t1 = random_params(arch, r)
        t2 = same_sign_partner(t1, r)
        corpus.append((arch, t1, t2, r.normal(scale=1.5, size=arch.d_in)))
    return corpus


def test_breakpoints_equal_the_reference_loop_on_the_benchmark_corpus():
    found = 0
    for arch, t1, t2, x in _breakpoint_corpus():
        got = activation_breakpoints(arch, t1, t2, x, samples=32)
        assert got == reference_activation_breakpoints(arch, t1, t2, x, samples=32)
        found += len(got[0])
    assert found == 50


def test_breakpoints_equal_the_reference_loop_on_criterion_11_nets():
    for arch, theta, rng in random_cases(100, seed=1111):
        partner = same_sign_partner(theta, rng)
        x = rng.normal(size=arch.d_in)
        got = activation_breakpoints(arch, theta, partner, x, samples=32)
        assert got == reference_activation_breakpoints(arch, theta, partner, x, samples=32)
    arch = Architecture(
        [("in1", "input"), ("in2", "input"), ("h", "relu"), ("out", "identity")],
        [("in1", "h"), ("in2", "h"), ("h", "out")],
    )
    t1 = ParamVector(arch, [1.0, 2.0, 1.0, 0.0, 0.0])
    t2 = ParamVector(arch, [1.0, 0.25, 1.0, 0.0, 0.0])
    got = activation_breakpoints(arch, t1, t2, [1.0, -1.0])
    assert got == reference_activation_breakpoints(arch, t1, t2, [1.0, -1.0])


def test_breakpoints_equal_the_reference_loop_on_a_large_table():
    arch = mlp_architecture([4, 16, 16, 16, 2])  # 41,506 paths
    rng = np.random.default_rng(1)
    t1 = random_params(arch, rng)
    t2 = same_sign_partner(t1, rng)
    x = rng.normal(size=arch.d_in)
    got = activation_breakpoints(arch, t1, t2, x, samples=8)
    assert len(got[0]) == 7
    assert got == reference_activation_breakpoints(arch, t1, t2, x, samples=8)


def test_breakpoints_take_one_pass_plus_one_per_halving(monkeypatch):
    passes = []
    run = engine.run
    monkeypatch.setattr(engine, "run", lambda *a, **k: passes.append(a[1].shape) or run(*a, **k))
    samples, width = 32, 1e-10
    # every interval starts 1/samples wide, so all take the same halvings
    halvings = math.ceil(math.log2(1.0 / samples / width))
    for arch, t1, t2, x in _breakpoint_corpus()[:40]:
        passes.clear()
        found, _ = activation_breakpoints(arch, t1, t2, x, samples=samples, width=width)
        assert len(passes) == 1 + (halvings if found else 0)
        assert passes[0] == (samples + 1, arch.n_coords)


def _single_edge_pair(w1, w2):
    arch, t1, t2 = _single_edge(w1, w2)
    return arch, t1, t2, [1.0]


@pytest.mark.parametrize(
    "case, error",
    [
        (lambda: _single_edge_pair(1.0, -1.0), SignConditionViolated),
        (lambda: _single_edge_pair(1.0, 0.0), MixedZeroCoordinate),
        # the point at t = 1/3 of max * max rounds past the largest double
        (lambda: _single_edge_pair(np.finfo(float).max, np.finfo(float).max), NonFiniteValue),
        (lambda: _single_edge_pair(1.0, 2.0)[:3] + ([1.0, 2.0],), DimensionMismatch),
        (lambda: _single_edge_pair(1.0, 2.0)[:3] + ([np.nan],), NonFiniteValue),
    ],
    ids=["sign", "mixed-zero", "overflow", "input-length", "input-nan"],
)
def test_breakpoint_checks_raise_like_the_reference_loop(case, error):
    arch, t1, t2, x = case()
    for breakpoints in (activation_breakpoints, reference_activation_breakpoints):
        with pytest.raises(error):
            breakpoints(arch, t1, t2, x, samples=3)


def test_breakpoints_refuse_over_the_path_cap(monkeypatch):
    arch, t1, t2, x = _breakpoint_corpus()[0]
    monkeypatch.setenv("PATHLIFT_PATH_CAP", "1")
    for breakpoints in (activation_breakpoints, reference_activation_breakpoints):
        with pytest.raises(PathExplosion):
            breakpoints(arch, t1, t2, x, samples=3)


def test_equality_witness_chain():
    w = equality_witness(2, 2.0, 1.0, 1.0)
    assert w.predicted == 3.0
    assert w.report.lhs == 3.0
    assert w.report.rhs == 3.0
    assert w.report.slack == 0.0
    assert w.report.holds


def test_equality_witness_needs_a_whole_chain_length():
    assert equality_witness(3.0, 2.0, 1.0, 1.0).arch.n_edges == 3
    for d in (math.nan, math.inf, 2.5, 0, -1, "x", None):
        with pytest.raises(PathliftError, match="chain length"):
            equality_witness(d, 2.0, 1.0, 1.0)


def test_equality_witness_equal_weights():
    w = equality_witness(3, 1.5, 1.5, 2.0)
    assert w.predicted == 0.0
    assert w.report.lhs == 0.0 and w.report.rhs == 0.0


def test_equality_witness_single_edge():
    w = equality_witness(1, 5.0, 3.0, 2.0)
    assert w.predicted == 4.0
    assert w.report.lhs == 4.0 and w.report.rhs == 4.0


def test_equality_witness_random_draws():
    rng = np.random.default_rng(414)
    for _ in range(25):
        d = int(rng.integers(1, 5))
        a, b, x0 = rng.uniform(0.25, 4.0, size=3)
        w = equality_witness(d, a, b, x0)
        assert abs(w.report.slack) <= 1e-12 * w.report.rhs + 1e-15
        assert w.report.lhs == pytest.approx(w.predicted, rel=1e-12, abs=1e-15)


def test_equality_witness_rejects_bad_inputs():
    with pytest.raises(PathliftError):
        equality_witness(2, -1.0, 1.0, 1.0)
    with pytest.raises(PathliftError):
        equality_witness(2, 1.0, 1.0, 0.0)
    with pytest.raises(PathliftError):
        equality_witness(0, 1.0, 1.0, 1.0)


def test_sign_counterexample_values():
    ce = sign_counterexample()
    assert ce.path_metric == 0.0
    assert ce.lhs == 1.0
    assert ce.rhs_ignoring_signs == 0.0
    # the two networks really do differ at the probe input
    assert float(forward(ce.arch, ce.theta, [1.0])[0]) == 1.0
    assert float(forward(ce.arch, ce.theta_prime, [1.0])[0]) == 0.0
    # at x = -1 the roles flip and the gap is again 1
    gap = abs(
        float(forward(ce.arch, ce.theta, [-1.0])[0])
        - float(forward(ce.arch, ce.theta_prime, [-1.0])[0])
    )
    assert gap == 1.0
    # at x = 0 both networks output 0
    assert float(forward(ce.arch, ce.theta, [0.0])[0]) == 0.0
    assert float(forward(ce.arch, ce.theta_prime, [0.0])[0]) == 0.0
    with pytest.raises(SignConditionViolated):
        bound_rhs(ce.arch, ce.theta, ce.theta_prime, ce.x)


def test_breakpoints_refuse_too_many_samples_before_allocating(monkeypatch):
    _limit_passes(monkeypatch, limit=0)
    arch, t1, t2, x = _micro_pair()
    per_sample = len(enumerate_paths(arch)) + arch.n_coords + arch.n_neurons
    tracemalloc.start()
    try:
        for samples in (10**12, MAX_SAMPLED_ENTRIES // per_sample):
            with pytest.raises(PathliftError, match="samples"):
                activation_breakpoints(arch, t1, t2, x, samples=samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20

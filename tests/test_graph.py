"""Architecture validation and forward evaluation."""

import io
import re

import numpy as np
import pytest

from pathlift import (
    Architecture,
    ArchitectureError,
    BadPoolArity,
    CycleDetected,
    DanglingEdge,
    DimensionMismatch,
    DuplicateDeclaration,
    NonIdentityOutput,
    ParamVector,
    conv_grid_architecture,
    forward,
    load_network,
    neuron_values,
    path_metric_upper,
    path_norm_fast,
    random_params,
    same_sign_partner,
    save_network,
)
from pathlift.graph import KPOOL

from conftest import bias, diamond_arch, diamond_theta, pool_arch, pool_theta, random_cases, replaced, weight


def test_diamond_topological_order(diamond):
    arch, _ = diamond
    assert arch.ids == ("in", "h1", "h2", "out")
    assert tuple(arch.ids[j] for j in arch.input_pos) == ("in",)
    assert tuple(arch.ids[j] for j in arch.output_pos) == ("out",)
    assert arch.n_edges == 4
    assert arch.n_coords == 7


def test_canonical_coordinate_labels(diamond):
    arch, _ = diamond
    assert arch.coord_labels == (
        "in->h1", "in->h2", "h1->out", "h2->out",
        "bias(h1)", "bias(h2)", "bias(out)",
    )


def test_cycle_detected():
    with pytest.raises(CycleDetected):
        Architecture(
            [("in", "input"), ("h1", "relu"), ("h2", "relu"), ("out", "identity")],
            [("in", "h1"), ("in", "h2"), ("h1", "out"), ("h2", "out"), ("out", "in")],
        )


def test_dangling_edge():
    with pytest.raises(DanglingEdge):
        Architecture([("in", "input"), ("out", "identity")], [("in", "ghost")])


def test_duplicate_neuron():
    with pytest.raises(DuplicateDeclaration):
        Architecture(
            [("in", "input"), ("in", "relu"), ("out", "identity")], [("in", "out")]
        )


def test_duplicate_edge():
    with pytest.raises(DuplicateDeclaration):
        Architecture(
            [("in", "input"), ("out", "identity")], [("in", "out"), ("in", "out")]
        )


def test_bad_pool_arity():
    with pytest.raises(BadPoolArity):
        Architecture(
            [("a", "input"), ("b", "input"), ("m", ("kpool", 3)), ("out", "identity")],
            [("a", "m"), ("b", "m"), ("m", "out")],
        )


def test_non_identity_output():
    with pytest.raises(NonIdentityOutput):
        Architecture([("in", "input"), ("out", "relu")], [("in", "out")])


def test_forward_diamond(diamond):
    arch, theta = diamond
    out, values = forward(arch, theta, [1.0], trace=True)
    np.testing.assert_allclose(out, [3.0])
    assert values["h1"] == 1.0
    assert values["h2"] == 0.0


def test_forward_zero_parameters(diamond):
    arch, _ = diamond
    out = forward(arch, ParamVector(arch, np.zeros(arch.n_coords)), [5.0])
    np.testing.assert_array_equal(out, [0.0])


def test_forward_pool(pool_net):
    arch, theta = pool_net
    np.testing.assert_allclose(forward(arch, theta, [1.0, 1.0]), [2.0])


def test_pool_picks_kth_largest():
    arch = Architecture(
        [("a", "input"), ("b", "input"), ("c", "input"),
         ("m", ("kpool", 2)), ("out", "identity")],
        [("a", "m"), ("b", "m"), ("c", "m"), ("m", "out")],
    )
    # coordinates: a->m, b->m, c->m, m->out, b(m) pinned to 0, b(out)
    theta = ParamVector(arch, [1.0, 1.0, 1.0, 1.0, 0.0, 0.0])
    # contributions 3, 1, 2: the 2nd largest is 2
    np.testing.assert_allclose(forward(arch, theta, [3.0, 1.0, 2.0]), [2.0])


def test_pool_bias_pinned_to_zero(pool_net):
    arch, _ = pool_net
    theta = ParamVector(arch, [2.0, -3.0, 1.0, 7.0, 0.0])
    assert bias(theta, "m") == 0.0


def test_dimension_mismatch(diamond):
    arch, theta = diamond
    with pytest.raises(DimensionMismatch):
        forward(arch, theta, [1.0, 2.0])
    with pytest.raises(DimensionMismatch):
        ParamVector(arch, [1.0, 2.0])


def test_param_replace(diamond):
    arch, theta = diamond
    theta2 = replaced(theta, {2: 0.0})
    assert weight(theta2, "h1", "out") == 0.0
    assert weight(theta, "h1", "out") == 3.0


def test_params_read_only(diamond):
    _, theta = diamond
    with pytest.raises(ValueError):
        theta.vec[0] = 9.0


def test_input_neuron_rules():
    with pytest.raises(Exception, match="antecedent"):
        Architecture(
            [("a", "input"), ("b", "input"), ("out", "identity")],
            [("a", "b"), ("b", "out")],
        )


def test_neuron_values_order(diamond):
    arch, theta = diamond
    vals = neuron_values(arch, theta, [1.0])
    np.testing.assert_allclose(vals, [1.0, 1.0, 0.0, 3.0])


def test_architecture_structural_equality():
    a = diamond_arch()
    b = diamond_arch()
    assert a == b
    c = Architecture(
        [("in", "input"), ("h1", "identity"), ("h2", "relu"), ("out", "identity")],
        [("in", "h1"), ("in", "h2"), ("h1", "out"), ("h2", "out")],
    )
    assert a != c


def test_forward_matches_trace_on_corpus():
    for arch, theta, rng in random_cases(20, seed=101):
        x = rng.normal(size=arch.d_in)
        out, values = forward(arch, theta, x, trace=True)
        assert len(values) == arch.n_neurons
        np.testing.assert_allclose(out, [values[arch.ids[j]] for j in arch.output_pos])


@pytest.mark.parametrize(
    "neurons, edges, entry",
    [
        ([("a", "input"), ("b", "identity")], [("a", "b", "c")], "edge entry ('a', 'b', 'c')"),
        ([("a", "input"), ("b", "identity")], [("a",)], "edge entry ('a',)"),
        ([("a", "input"), ("b", "identity")], [1], "edge entry 1:"),
        ([("a", "input"), ("b", "identity")], ["ab"], "edge entry 'ab'"),
        ([("a", "input", "x"), ("b", "identity")], [("a", "b")], "neuron entry ('a', 'input', 'x')"),
    ],
    ids=["edge triple", "edge single", "edge int", "edge string", "neuron triple"],
)
def test_malformed_declarations_are_architecture_errors(neurons, edges, entry):
    with pytest.raises(ArchitectureError, match=re.escape(entry)):
        Architecture(neurons, edges)


def test_equality_compares_edges():
    neurons = [("a", "input"), ("b", "input"), ("h", "relu"), ("out", "identity")]
    edges = [("a", "h"), ("b", "h"), ("h", "out"), ("a", "out")]
    one = Architecture(neurons, edges)
    assert one == Architecture(neurons[::-1], edges[::-1])
    assert one != Architecture(neurons, edges[:3] + [("b", "out")])


def test_id_views_are_built_on_first_access(tmp_path):
    # loading a network file and running the forward pass, the path norm and
    # the refined bound reads no id view of the architecture
    arch = conv_grid_architecture(side=6, channels=(2, 3), d_out=3)
    rng = np.random.default_rng(3)
    theta = random_params(arch, rng)
    save_network(tmp_path / "net.json", arch, theta)
    save_network(tmp_path / "other.json", arch, same_sign_partner(theta, rng))
    loaded, t1 = load_network(tmp_path / "net.json")
    other, t2 = load_network(tmp_path / "other.json")
    assert other == loaded
    forward(loaded, t1, rng.normal(size=loaded.d_in))
    path_norm_fast(loaded, t1)
    path_metric_upper(loaded, t1, t2, refined=True)
    assert "coord_labels" not in vars(loaded)
    assert loaded.coord_labels == arch.coord_labels
    assert "coord_labels" in vars(loaded)


def _assert_levels(arch):
    """The levels partition the non-input positions by depth, in ascending
    rows, each with exactly its rows' incoming edges, row by row."""
    fan = np.diff(arch.in_ptr)
    assert len(arch.levels) == arch.depth.max(initial=0)
    seen = [rows for rows, _, _ in arch.levels]
    assert np.array_equal(np.sort(np.concatenate(seen)) if seen else [], arch.non_input_pos)
    for d, (rows, edges, starts) in enumerate(arch.levels, start=1):
        assert rows.dtype == edges.dtype == starts.dtype == np.intp
        assert np.all(arch.depth[rows] == d) and np.all(np.diff(rows) > 0)
        assert np.array_equal(edges, np.flatnonzero(np.isin(arch.dst, rows)))
        assert np.array_equal(arch.dst[edges], np.repeat(rows, fan[rows]))
        assert np.array_equal(starts, np.cumsum(fan[rows]) - fan[rows])


def test_levels_group_the_neurons_by_depth():
    cases = [arch for arch, _, _ in random_cases(40, seed=1313, p_kpool=0.4, p_skip=0.5)]
    assert any(np.any(arch.kinds == KPOOL) for arch in cases)
    assert any(np.any(arch.depth[arch.src] < arch.depth[arch.dst] - 1) for arch in cases)  # skip edges
    names = ["in"] + [f"m{k:02d}" for k in range(1, 40)] + ["out"]
    chain = Architecture(
        [("in", "input")] + [(n, "relu") for n in names[1:-1]] + [("out", "identity")],
        list(zip(names[:-1], names[1:])),
    )
    # ids that run against the topological order: z, y, x, a
    backwards = Architecture(
        [("a", "identity"), ("x", "relu"), ("y", "relu"), ("z", "input")],
        [("z", "y"), ("y", "x"), ("z", "x"), ("x", "a"), ("z", "a")],
    )
    assert backwards.ids == ("z", "y", "x", "a")
    cases += [conv_grid_architecture(side=6, channels=(2, 3), d_out=3), chain, backwards]
    for arch in cases:
        _assert_levels(arch)
    assert len(chain.levels) == 40
    assert [rows.tolist() for rows, _, _ in backwards.levels] == [[1], [2], [3]]


def test_a_network_of_inputs_has_no_levels():
    arch = Architecture([("a", "input"), ("b", "input")], [])
    assert arch.levels == ()
    _assert_levels(arch)


def _param_vector_calls():
    """Every public call that takes a ParamVector, as (name, call of one
    parameter argument): the other arguments are valid, on a (2, 3, 2) MLP."""
    import pathlift as pl

    arch = pl.mlp_architecture((2, 3, 2))
    th = pl.random_params(arch, 0)
    x, xs, labels = np.ones(2), np.ones((4, 2)), np.zeros(4, dtype=int)
    data = (xs, np.ones((4, 2)))
    scores = pl.magnitude_scores(arch, th)
    mask = pl.apply_prune(th, scores, count=1)[1]
    return {
        "forward": lambda t: pl.forward(arch, t, x),
        "neuron_values": lambda t: pl.neuron_values(arch, t, x),
        "scalar_value": lambda t: pl.scalar_value(arch, t, xs),
        "grad_scalar": lambda t: pl.grad_scalar(arch, t, xs),
        "grad_path_norm": lambda t: pl.grad_path_norm(arch, t),
        "mlp_matrices": lambda t: pl.mlp_matrices(arch, t),
        "same_sign_partner": lambda t: pl.same_sign_partner(t, 0),
        "sgd_train": lambda t: pl.sgd_train(arch, t, xs, labels, pl.epoch_seeds(0, 1), 0.1, 2),
        "accuracy": lambda t: pl.accuracy(arch, t, xs, labels),
        "check_sign_condition(t, th)": lambda t: pl.check_sign_condition(t, th),
        "check_sign_condition(th, t)": lambda t: pl.check_sign_condition(th, t),
        "bound_rhs": lambda t: pl.bound_rhs(arch, th, t, x),
        "verify_bound(t, th)": lambda t: pl.verify_bound(arch, t, th, x),
        "verify_bound(th, t)": lambda t: pl.verify_bound(arch, th, t, x),
        "trajectory_point(t, th)": lambda t: pl.trajectory_point(t, th, 0.5),
        "trajectory_point(th, t)": lambda t: pl.trajectory_point(th, t, 0.5),
        "activation_breakpoints": lambda t: pl.activation_breakpoints(arch, t, th, x),
        "path_norm_fast": lambda t: pl.path_norm_fast(arch, t),
        "path_metric_oracle": lambda t: pl.path_metric_oracle(arch, th, t),
        "path_metric_lower": lambda t: pl.path_metric_lower(arch, t, th),
        "path_metric_exact_dominated": lambda t: pl.path_metric_exact_dominated(arch, t, th),
        "path_metric_upper": lambda t: pl.path_metric_upper(arch, th, t, refined=True),
        "path_metric_report": lambda t: pl.path_metric_report(arch, t, th),
        "save_network": lambda t: pl.save_network(io.StringIO(), arch, t),
        "path_lifting": lambda t: pl.path_lifting(arch, t),
        "path_activations": lambda t: pl.path_activations(arch, t, x),
        "linearized_output": lambda t: pl.linearized_output(arch, t, x),
        "path_mag_scores": lambda t: pl.path_mag_scores(arch, t),
        "path_mag_scores(bruteforce)": lambda t: pl.path_mag_scores(arch, t, method="bruteforce"),
        "magnitude_scores": lambda t: pl.magnitude_scores(arch, t),
        "obd_scores": lambda t: pl.obd_scores(arch, t, data),
        "baseline_scores": lambda t: pl.baseline_scores(arch, t, "magnitude"),
        "apply_prune": lambda t: pl.apply_prune(t, scores, count=1),
        "Mask.apply": lambda t: mask.apply(t),
        "pruning_error_bound": lambda t: pl.pruning_error_bound(arch, t, [0], x),
        "rescale": lambda t: pl.rescale(arch, t, {}),
        "normalize": lambda t: pl.normalize(arch, t),
    }, th


@pytest.mark.parametrize("name", sorted(_param_vector_calls()[0]))
def test_a_theta_that_is_no_param_vector_is_a_dimension_mismatch(name):
    calls, th = _param_vector_calls()
    call = calls[name]
    call(th)  # the call itself is valid
    for bad in (None, th.vec.tolist(), th.vec.copy()):
        with pytest.raises(DimensionMismatch):
            call(bad)

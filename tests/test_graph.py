"""Architecture validation and forward evaluation."""

import numpy as np
import pytest

from pathlift import (
    Architecture,
    BadPoolArity,
    CycleDetected,
    DanglingEdge,
    DimensionMismatch,
    DuplicateDeclaration,
    NonIdentityOutput,
    ParamVector,
    UnknownNeuron,
    forward,
    neuron_values,
)
from conftest import diamond_arch, diamond_theta, pool_arch, pool_theta, random_cases


def test_diamond_topological_order(diamond):
    arch, _ = diamond
    assert arch.ids == ("in", "h1", "h2", "out")
    assert arch.input_ids == ("in",)
    assert arch.output_ids == ("out",)
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
    out = forward(arch, ParamVector.zeros(arch), [5.0])
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
    theta = ParamVector.from_maps(
        arch, {("a", "m"): 1.0, ("b", "m"): 1.0, ("c", "m"): 1.0, ("m", "out"): 1.0}
    )
    # contributions 3, 1, 2: the 2nd largest is 2
    np.testing.assert_allclose(forward(arch, theta, [3.0, 1.0, 2.0]), [2.0])


def test_pool_bias_pinned_to_zero(pool_net):
    arch, _ = pool_net
    theta = ParamVector(arch, [2.0, -3.0, 1.0, 7.0, 0.0])
    assert theta.bias("m") == 0.0


def test_dimension_mismatch(diamond):
    arch, theta = diamond
    with pytest.raises(DimensionMismatch):
        forward(arch, theta, [1.0, 2.0])
    with pytest.raises(DimensionMismatch):
        ParamVector(arch, [1.0, 2.0])


def test_param_accessors(diamond):
    arch, theta = diamond
    assert theta.weight("in", "h2") == -2.0
    assert theta.bias("out") == 0.0
    with pytest.raises(UnknownNeuron):
        theta.weight("h1", "h2")
    with pytest.raises(UnknownNeuron):
        theta.bias("in")


def test_param_replace(diamond):
    arch, theta = diamond
    theta2 = theta.replace({2: 0.0})
    assert theta2.weight("h1", "out") == 0.0
    assert theta.weight("h1", "out") == 3.0


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
        np.testing.assert_allclose(out, [values[v] for v in arch.output_ids])

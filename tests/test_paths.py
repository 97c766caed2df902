"""Path enumeration, liftings, activations, and the inner-product identity."""

import tracemalloc

import numpy as np
import pytest

from pathlift import (
    Architecture,
    DimensionMismatch,
    NonFiniteValue,
    ParamVector,
    PathExplosion,
    conv_grid_architecture,
    count_paths,
    enumerate_paths,
    format_path,
    lifting_length,
    linearized_output,
    max_path_length,
    mlp_architecture,
    path_activations,
    path_lifting,
    random_params,
    save_path_table,
    forward,
)
from conftest import (
    diamond_arch,
    diamond_theta,
    oracle_paths,
    oracle_phi,
    pool_arch,
    pool_theta,
    random_cases,
    replaced,
)
from reference import reference_count_paths


def test_diamond_paths(diamond):
    arch, _ = diamond
    assert enumerate_paths(arch) == [
        ("in", "h1", "out"),
        ("in", "h2", "out"),
        ("h1", "out"),
        ("h2", "out"),
        ("out",),
    ]


def test_single_edge_paths():
    arch = Architecture([("in", "input"), ("out", "identity")], [("in", "out")])
    assert enumerate_paths(arch) == [("in", "out"), ("out",)]


def test_count_matches_enumeration_on_corpus():
    for arch, _, _ in random_cases(30, seed=202):
        assert count_paths(arch) == len(enumerate_paths(arch))


def test_lifting_length_is_the_lifting_count_and_refuses_over_the_cap(monkeypatch):
    for arch, theta, _ in random_cases(30, seed=203):
        assert lifting_length(arch) == len(path_lifting(arch, theta)) == count_paths(arch)
    arch = mlp_architecture((3, 4, 4, 2))
    monkeypatch.setenv("PATHLIFT_PATH_CAP", str(count_paths(arch) - 1))
    with pytest.raises(PathExplosion):
        lifting_length(arch)


def test_count_matches_reference_loop():
    cases = [arch for arch, _, _ in random_cases(60, seed=208, max_layers=6, p_kpool=0.4)]
    cases += [conv_grid_architecture(), mlp_architecture([10] * 8)]
    for arch in cases:
        assert count_paths(arch) == reference_count_paths(arch)


def test_count_is_an_exact_int_on_a_deep_mlp():
    # c = 1 + 8 c per layer; 8 outputs of the 40th layer
    c = 1
    for _ in range(39):
        c = 1 + 8 * c
    count = count_paths(mlp_architecture([8] * 40))
    assert type(count) is int and count == 8 * c
    assert count > 2**53  # past float64's exact integers


def test_canonical_order_matches_oracle_on_corpus():
    for arch, _, _ in random_cases(30, seed=203):
        assert list(enumerate_paths(arch)) == oracle_paths(arch)


def test_path_explosion_reports_count_without_materializing():
    # a fully connected stack of 8 layers of width 10 has
    # 10 + 10*10 + ... + 10**8 = 111_111_110 paths
    arch = mlp_architecture([10] * 8)
    n = count_paths(arch)
    assert n == 111_111_110
    with pytest.raises(PathExplosion) as err:
        enumerate_paths(arch)
    assert err.value.count == n
    assert err.value.cap == 10**6


def test_path_cap_argument(diamond, monkeypatch):
    arch, _ = diamond
    monkeypatch.setenv("PATHLIFT_PATH_CAP", "4")
    with pytest.raises(PathExplosion):
        enumerate_paths(arch)
    monkeypatch.setenv("PATHLIFT_PATH_CAP", "5")
    assert len(enumerate_paths(arch)) == 5


def test_path_cap_env_override(diamond, monkeypatch):
    arch, _ = diamond
    monkeypatch.setenv("PATHLIFT_PATH_CAP", "3")
    with pytest.raises(PathExplosion) as err:
        enumerate_paths(arch)
    assert err.value.cap == 3


def test_max_path_length(diamond):
    assert max_path_length(diamond[0]) == 2
    assert max_path_length(mlp_architecture([2, 3, 3, 1])) == 3


def test_format_path():
    assert format_path(("in", "h1", "out")) == "in->h1->out"


def test_diamond_lifting(diamond):
    arch, theta = diamond
    lift = path_lifting(arch, theta)
    np.testing.assert_array_equal(lift.values, [3.0, -2.0, 0.0, 0.0, 0.0])
    np.testing.assert_array_equal(lift.values[lift.input_start], [3.0, -2.0])
    np.testing.assert_array_equal(lift.values[~lift.input_start], [0.0, 0.0, 0.0])
    assert np.sum(np.abs(lift.values)) == 5.0


def test_lifting_uses_start_bias(diamond):
    arch, theta = diamond
    theta2 = replaced(theta, {4: 0.5, 6: -1.0})  # b(h1), b(out)
    lift = path_lifting(arch, theta2)
    # bias-started paths: h1->out carries b(h1) * w(h1->out), out carries b(out)
    np.testing.assert_array_equal(lift.values, [3.0, -2.0, 1.5, 0.0, -1.0])


def test_lifting_matches_oracle_on_corpus():
    for arch, theta, rng in random_cases(30, seed=204, zero_frac=0.1):
        paths = oracle_paths(arch)
        lift = path_lifting(arch, theta)
        assert list(lift.paths) == paths
        np.testing.assert_allclose(lift.values, oracle_phi(arch, theta, paths), rtol=1e-12)


def test_diamond_activations(diamond):
    arch, theta = diamond
    np.testing.assert_array_equal(path_activations(arch, theta, [1.0]), [1, 0, 1, 0, 1])


def test_stacked_path_activations_are_the_per_vector_ones():
    for arch, theta, rng in random_cases(20, seed=2100, zero_frac=0.2, p_kpool=0.4):
        stack = np.stack([theta.vec, random_params(arch, rng).vec, -theta.vec])
        x = rng.normal(size=arch.d_in)
        acts = path_activations(arch, stack, x)
        assert acts.shape == (3, count_paths(arch))
        for row, vec in zip(acts, stack):
            assert np.array_equal(row, path_activations(arch, ParamVector(arch, vec), x))
    for bad in (stack[:, 1:], stack[0]):
        with pytest.raises(DimensionMismatch):
            path_activations(arch, bad, x)
    stack[1, 0] = np.nan
    with pytest.raises(NonFiniteValue):
        path_activations(arch, stack, x)


def test_stacked_path_lifting_is_the_per_vector_ones():
    for arch, theta, rng in random_cases(20, seed=2101, zero_frac=0.2, p_kpool=0.4):
        stack = np.stack([theta.vec, random_params(arch, rng).vec, -theta.vec])
        lift = path_lifting(arch, stack)
        assert lift.values.shape == (3, count_paths(arch)) and len(lift) == count_paths(arch)
        for row, vec in zip(lift.values, stack):
            assert np.array_equal(row, path_lifting(arch, ParamVector(arch, vec)).values)
    for bad in (stack[:, 1:], stack[0]):
        with pytest.raises(DimensionMismatch):
            path_lifting(arch, bad)


def test_stacked_path_activations_hold_one_boolean_per_path_and_row():
    # 16 edges deep: a gather of every path's edges would hold 16 booleans
    # per path and row, twice the float64 result
    arch = mlp_architecture([1] + [2] * 15 + [1])
    rng = np.random.default_rng(7)
    stack = np.stack([random_params(arch, rng).vec for _ in range(33)])
    x = [1.0]
    path_activations(arch, ParamVector(arch, stack[0]), x)  # caches the path table untraced
    tracemalloc.start()
    try:
        acts = path_activations(arch, stack, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert acts.shape == (33, count_paths(arch)) and max_path_length(arch) == 16
    assert peak <= acts.nbytes + 2 * acts.size + (1 << 16)


def test_activation_closed_at_exact_zero():
    arch = Architecture(
        [("in", "input"), ("m", "relu"), ("out", "identity")],
        [("in", "m"), ("m", "out")],
    )
    theta = ParamVector(arch, [1.0, 1.0, 0.0, 0.0])
    # pre-activation of m is exactly 0, so the gate is closed
    np.testing.assert_array_equal(path_activations(arch, theta, [0.0]), [0, 0, 1])


def test_pool_tie_activates_first_antecedent_only():
    arch = pool_arch()
    theta = pool_theta(arch, w1=2.0, w2=2.0)
    # paths: in1->m->out, in2->m->out, m->out? (m starts a path), out
    acts = path_activations(arch, theta, [1.0, 1.0])
    paths = enumerate_paths(arch)
    by_path = dict(zip(paths, acts))
    assert by_path[("in1", "m", "out")] == 1
    assert by_path[("in2", "m", "out")] == 0


def test_linearized_output_diamond(diamond):
    arch, theta = diamond
    np.testing.assert_allclose(linearized_output(arch, theta, [1.0]), [3.0])


def test_linearized_output_pool(pool_net):
    arch, theta = pool_net
    np.testing.assert_allclose(linearized_output(arch, theta, [1.0, 1.0]), [2.0])


def test_linearized_equals_forward_on_corpus():
    for arch, theta, rng in random_cases(40, seed=206, zero_frac=0.1):
        for _ in range(3):
            x = rng.normal(scale=1.5, size=arch.d_in)
            np.testing.assert_allclose(
                linearized_output(arch, theta, x),
                forward(arch, theta, x),
                rtol=1e-9,
                atol=1e-12,
            )


def test_save_path_table(tmp_path, diamond):
    arch, theta = diamond
    lift = path_lifting(arch, theta)
    out = tmp_path / "table.tsv"
    save_path_table(out, lift.paths, lift.values)
    lines = out.read_text().splitlines()
    assert lines[0] == "path\tvalue"
    assert lines[1] == "in->h1->out\t3.0"
    assert len(lines) == 6

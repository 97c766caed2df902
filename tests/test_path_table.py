"""The path table against the per-path reference loops, its cache, and a
chain too deep for recursive enumeration."""

import tracemalloc

import numpy as np
import pytest

from pathlift import (
    Architecture,
    DimensionMismatch,
    ParamVector,
    PathExplosion,
    enumerate_paths,
    forward,
    linearized_output,
    mlp_architecture,
    path_activations,
    path_lifting,
    random_params,
)
from pathlift.graph import KPOOL
from pathlift.pruning import path_mag_scores

from conftest import oracle_paths, random_cases
from reference import (
    _edge,
    reference_activations,
    reference_bruteforce_scores,
    reference_lifting,
    reference_linearized,
    reference_positions,
)


def _corpus():
    """Random DAGs with pools and skip edges, half of them with zeroed
    coordinates, and the (4, 12, 12, 12, 2) MLP."""
    cases = random_cases(40, seed=909, p_kpool=0.4, p_skip=0.5)
    cases += random_cases(40, seed=910, zero_frac=0.3, p_kpool=0.4, p_skip=0.5)
    rng = np.random.default_rng(911)
    mlp = mlp_architecture((4, 12, 12, 12, 2))
    cases.append((mlp, random_params(mlp, rng), rng))
    return cases


def test_table_matches_reference_loops():
    cases = _corpus()
    assert any(np.any(arch.kinds == KPOOL) for arch, _, _ in cases)
    assert any(np.any(theta.vec == 0.0) for _, theta, _ in cases)
    for arch, theta, rng in cases:
        lift = path_lifting(arch, theta)
        assert np.array_equal(lift.values, reference_lifting(arch, theta))
        for _ in range(2):
            x = rng.normal(scale=1.5, size=arch.d_in)
            assert np.array_equal(path_activations(arch, theta, x), reference_activations(arch, theta, x))
            assert np.array_equal(linearized_output(arch, theta, x), reference_linearized(arch, theta, x))
        brute = path_mag_scores(arch, theta, method="bruteforce").values
        assert np.array_equal(brute, reference_bruteforce_scores(arch, theta))


def test_coordinate_sums_add_in_canonical_path_order():
    # a path from a hidden neuron reaches an edge after fewer edges than one
    # from an input, so one edge sits at several positions along its paths;
    # signed weights of spread magnitudes make any other order change bits
    spread = 0
    for arch, theta, rng in random_cases(30, seed=913, p_skip=0.5):
        lift = path_lifting(arch, theta)
        w = rng.normal(size=len(lift)) * 10.0 ** rng.integers(-8, 9, size=len(lift))
        want, steps = np.zeros(arch.n_coords), {}
        for wi, p in zip(w.tolist(), reference_positions(arch)):
            if arch.bias_coord[p[0]] >= 0:
                want[arch.bias_coord[p[0]]] += wi
            for k, (u, v) in enumerate(zip(p[:-1], p[1:])):
                e = _edge(arch, u, v)
                want[e] += wi
                steps.setdefault(e, set()).add(k)
        spread += any(len(ks) > 1 for ks in steps.values())
        assert np.array_equal(lift.coordinate_sums(w), want)
    assert spread >= 20


@pytest.mark.parametrize("n", [4, 6])
def test_coordinate_sums_refuse_weights_of_another_length(diamond, n):
    lift = path_lifting(*diamond)
    with pytest.raises(DimensionMismatch, match="one entry per path"):
        lift.coordinate_sums(np.ones(n))


def test_table_order_matches_oracle_with_single_ends():
    for arch, _, _ in random_cases(15, seed=912, p_kpool=0.4):
        assert enumerate_paths(arch) == oracle_paths(arch)


def test_cache_still_checks_the_cap(diamond, monkeypatch):
    arch, theta = diamond
    assert len(path_lifting(arch, theta)) == 5
    monkeypatch.setenv("PATHLIFT_PATH_CAP", "4")
    with pytest.raises(PathExplosion) as err:
        path_lifting(arch, theta)
    assert err.value.count == 5
    monkeypatch.setenv("PATHLIFT_PATH_CAP", "5")
    assert len(path_lifting(arch, theta)) == 5


def test_length_does_not_build_id_tuples(diamond):
    arch, theta = diamond
    lift = path_lifting(arch, theta)
    assert len(lift) == 5
    assert "paths" not in vars(lift)
    assert lift.paths[0] == ("in", "h1", "out")


def _chain(d):
    names = ["in"] + [f"m{k:04d}" for k in range(1, d)] + ["out"]
    return Architecture(
        [("in", "input")] + [(n, "relu") for n in names[1:-1]] + [("out", "identity")],
        list(zip(names[:-1], names[1:])),
    )


def test_chain_of_3000_edges():
    d = 3000
    arch = _chain(d)
    # weights alternate 2, 1/2; every bias is 1/4 except b(out) = -1
    weights = np.where(np.arange(d) % 2 == 0, 2.0, 0.5)
    biases = np.full(d, 0.25)
    biases[-1] = -1.0
    theta = ParamVector(arch, np.concatenate([weights, biases]))
    lift = path_lifting(arch, theta)
    assert len(lift) == d + 1
    # the input path multiplies 1500 pairs (2, 1/2); a path from m_k keeps a
    # leading 1/2 exactly when k is odd
    k = np.arange(1, d)
    want = np.concatenate([[1.0], np.where(k % 2 == 0, 0.25, 0.125), [-1.0]])
    assert np.array_equal(lift.values, want)
    assert lift.paths[0][0] == "in" and len(lift.paths[0]) == d + 1
    assert lift.paths[1] == tuple(arch.ids[1:])
    x = [0.5]
    assert np.array_equal(linearized_output(arch, theta, x), forward(arch, theta, x))


def test_chain_lifting_holds_about_one_double_per_path():
    arch = _chain(3000)
    theta = ParamVector(arch, np.full(arch.n_coords, 0.5))
    path_lifting(arch, theta)  # caches the path table untraced
    tracemalloc.start()
    try:
        lift = path_lifting(arch, theta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the padded vector, the result and one gathered column with its index;
    # a gather of the whole table would hold 3,001 x 3,001 doubles (72 MB)
    assert peak <= 8 * (arch.n_coords + 1) + 3 * lift.values.nbytes + (1 << 14)

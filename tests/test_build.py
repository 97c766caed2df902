"""The array-built Architecture against the per-edge reference constructor."""

import numpy as np
import pytest

from pathlift import Architecture, ArchitectureError, conv_grid_architecture, mlp_architecture, random_dag
from pathlift.graph import _EdgeColumns

from conftest import edge_ids
from reference import ReferenceArchitecture, neuron_lists


def _assert_same(got, want, name):
    assert type(got) is type(want), name
    if isinstance(want, np.ndarray):
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert np.array_equal(got, want), name
    elif isinstance(want, (list, tuple)):
        assert len(got) == len(want), name
        for g, w in zip(got, want):
            _assert_same(g, w, name)
    elif isinstance(want, dict):
        assert list(got) == list(want), name  # same keys, same order
        for k in want:
            _assert_same(got[k], want[k], name)
    else:
        assert got == want, name


def _public(arch):
    return {k: v for k, v in vars(arch).items() if not k.startswith("_")}


def _assert_all_alike(got, want):
    """Every attribute the reference builds, read from ``got`` by getattr,
    so views built on first access are compared too; the per-neuron lists
    the reference keeps are compared with those sliced from ``got``'s CSR
    arrays, and its edge ids with those read from ``got``'s src/dst."""
    lists = dict(zip(("ant", "in_coords", "out_coords"), neuron_lists(got)), edges=edge_ids(got))
    for name, value in _public(want).items():
        _assert_same(lists[name] if name in lists else getattr(got, name), value, name)


def _assert_builds_alike(neurons, edges):
    got, want = Architecture(neurons, edges), ReferenceArchitecture(neurons, edges)
    # whatever the constructor sets is among what the comparison checks
    assert _public(got).keys() <= _public(want).keys()
    _assert_all_alike(got, want)


def _shuffled(arch, rng):
    neurons = list(zip(arch.ids, arch.tags))
    edges = edge_ids(arch)
    return [neurons[i] for i in rng.permutation(len(neurons))], [edges[i] for i in rng.permutation(len(edges))]


def test_build_matches_reference_on_random_dags():
    kpools = skips = 0
    for child in np.random.SeedSequence(2024).spawn(120):
        rng = np.random.default_rng(child)
        arch = random_dag(rng, max_layers=5, max_width=6, p_skip=0.5, p_kpool=0.4)
        kpools += int(np.sum(arch.pool_k > 0))
        skips += sum(int(u[1]) < int(v[1]) - 1 for u, v in edge_ids(arch))  # ids are L<layer>n<i>
        _assert_builds_alike(*_shuffled(arch, rng))
    assert kpools and skips


@pytest.mark.parametrize(
    "arch",
    [mlp_architecture((4, 12, 12, 12, 2)), conv_grid_architecture(side=6, channels=(2, 3), d_out=3)],
    ids=["mlp", "conv_grid"],
)
def test_build_matches_reference_on_layered_nets(arch):
    _assert_builds_alike(*_shuffled(arch, np.random.default_rng(5)))


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(side=5, channels=(2, 2), d_out=2),
        dict(side=2, channels=(2,), d_out=2),
        dict(side=6, channels=(2,), kernel=0, d_out=2),
        dict(side=6, channels=(2,), pool=0, d_out=2),
    ],
    ids=["pooled-grid-empty", "side-below-kernel", "kernel-0", "pool-0"],
)
def test_conv_grid_refuses_an_empty_grid(kwargs):
    want = {"kernel": 3, "pool": 2, **kwargs}
    message = f"^side {want['side']}, kernel {want['kernel']} and pool {want['pool']} leave an empty"
    with pytest.raises(ArchitectureError, match=message):
        conv_grid_architecture(**kwargs)


def test_build_matches_reference_on_raw_ids_and_tags():
    neurons = [(2, "input"), (10, "input"), (7, {"kpool": 2}), (1, "relu"), ("z", "identity")]
    edges = [(2, 7), (10, 7), (2, 1), (7, "z"), (1, "z"), (10, "z")]
    _assert_builds_alike(neurons, edges)
    _assert_builds_alike([("only", "input")], [])
    _assert_builds_alike([], [])


_MALFORMED = {
    "cycle": (
        [("in", "input"), ("h1", "relu"), ("h2", "relu"), ("out", "identity")],
        [("in", "h1"), ("h1", "h2"), ("h2", "h1"), ("h2", "out")],
    ),
    "dangling edge": ([("in", "input"), ("out", "identity")], [("in", "out"), ("in", "ghost")]),
    "duplicate ids": ([("b", "input"), ("a", "input"), ("b", "relu"), ("a", "identity")], []),
    "duplicate edges": (
        [("in", "input"), ("out", "identity")],
        [("in", "out"), ("in", "out"), ("in", "out")],
    ),
    "pool arity too high": (
        [("a", "input"), ("b", "input"), ("m", ("kpool", 3)), ("out", "identity")],
        [("a", "m"), ("b", "m"), ("m", "out")],
    ),
    "pool arity zero": (
        [("a", "input"), ("m", ("kpool", 0)), ("out", "identity")],
        [("a", "m"), ("m", "out")],
    ),
    "non-identity output": ([("in", "input"), ("out", "relu")], [("in", "out")]),
    "input with antecedents": (
        [("a", "input"), ("b", "input"), ("out", "identity")],
        [("a", "b"), ("b", "out")],
    ),
    "hidden without antecedents": ([("a", "input"), ("h", "relu"), ("out", "identity")], [("a", "out"), ("h", "out")]),
    "unknown activation": ([("a", "input"), ("b", "gelu")], [("a", "b")]),
    # several problems at once: the earlier check wins
    "dangling before duplicate edge": (
        [("in", "input"), ("out", "identity")],
        [("in", "out"), ("in", "out"), ("out", "nowhere")],
    ),
    "duplicate edge before cycle": (
        [("a", "input"), ("h", "relu"), ("g", "relu"), ("out", "identity")],
        [("a", "h"), ("h", "g"), ("g", "h"), ("g", "h"), ("g", "out")],
    ),
    "antecedent rule before output rule": (
        [("a", "input"), ("b", "input"), ("out", "relu")],
        [("a", "b"), ("b", "out")],
    ),
    "output rule before pool arity": (
        [("a", "input"), ("m", ("kpool", 2)), ("h", "relu"), ("out", "identity")],
        [("a", "m"), ("m", "out"), ("a", "h")],
    ),
    "first neuron in topological order wins": (
        [("z", "input"), ("y", "relu"), ("a", "input"), ("x", "identity")],
        [("z", "a"), ("z", "x"), ("a", "x")],
    ),
}


@pytest.mark.parametrize("case", list(_MALFORMED), ids=list(_MALFORMED))
def test_build_errors_match_reference(case):
    neurons, edges = _MALFORMED[case]
    with pytest.raises(ArchitectureError) as want:
        ReferenceArchitecture(neurons, edges)
    with pytest.raises(ArchitectureError) as got:
        Architecture(neurons, edges)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)


def _mutate(arch, rng):
    """A random DAG with one to three random structural faults."""
    neurons, edges = _shuffled(arch, rng)
    ids = [nid for nid, _ in neurons]
    for _ in range(int(rng.integers(1, 4))):
        kind = int(rng.integers(6))
        if kind == 0 and edges:  # reversed edge: a cycle, or an input with antecedents
            u, v = edges[int(rng.integers(len(edges)))]
            edges.append((v, u))
        elif kind == 1 and edges:
            edges.insert(int(rng.integers(len(edges) + 1)), edges[int(rng.integers(len(edges)))])
        elif kind == 2:
            edges.append((ids[int(rng.integers(len(ids)))], "ghost"))
        elif kind == 3:
            neurons.append((ids[int(rng.integers(len(ids)))], "relu"))
        elif kind == 4:  # pool arity
            j = int(rng.integers(len(neurons)))
            neurons[j] = (neurons[j][0], ("kpool", int(rng.integers(0, 5))))
        else:  # output and antecedent rules
            j = int(rng.integers(len(neurons)))
            neurons[j] = (neurons[j][0], ["relu", "input", "identity"][int(rng.integers(3))])
    return neurons, edges


def test_build_errors_match_reference_on_mutated_corpus():
    seen = set()
    for child in np.random.SeedSequence(77).spawn(300):
        rng = np.random.default_rng(child)
        neurons, edges = _mutate(random_dag(rng, p_kpool=0.4, p_skip=0.4), rng)
        try:
            want = ReferenceArchitecture(neurons, edges)
        except ArchitectureError as exc:
            with pytest.raises(ArchitectureError) as got:
                Architecture(neurons, edges)
            assert type(got.value) is type(exc)
            assert str(got.value) == str(exc)
            seen.add(type(exc).__name__)
        else:
            _assert_all_alike(Architecture(neurons, edges), want)
    assert seen >= {
        "ArchitectureError", "BadPoolArity", "CycleDetected", "DanglingEdge",
        "DuplicateDeclaration", "NonIdentityOutput",
    }


def test_build_matches_reference_with_ids_against_the_topological_order():
    # random ids make edges run down the id order too, so Kahn's heap runs
    # instead of the shortcut taken when every edge runs up the id order
    against = 0
    for child in np.random.SeedSequence(31).spawn(60):
        rng = np.random.default_rng(child)
        arch = random_dag(rng, max_layers=5, max_width=6, p_skip=0.5, p_kpool=0.4)
        name = dict(zip(arch.ids, (f"v{i:03d}" for i in rng.permutation(arch.n_neurons))))
        neurons = [(name[nid], tag) for nid, tag in zip(arch.ids, arch.tags)]
        edges = [(name[u], name[v]) for u, v in edge_ids(arch)]
        against += any(u > v for u, v in edges)
        _assert_builds_alike(*_shuffled(Architecture(neurons, edges), rng))
    assert against >= 50


def _columns(edges):
    return _EdgeColumns(([u for u, _ in edges], [v for _, v in edges]))


def test_edge_columns_build_what_their_pairs_build():
    # a network file's src and dst columns reach the constructor as they are
    cases = [_shuffled(random_dag(seed, p_kpool=0.4, p_skip=0.4), np.random.default_rng(seed)) for seed in range(20)]
    cases.append((
        [(2, "input"), (10, "input"), (7, {"kpool": 2}), (1, "relu"), ("z", "identity")],
        [(2, 7), (10, 7), (2, 1), (7, "z"), (1, "z"), (10, "z")],
    ))
    for neurons, edges in cases:
        _assert_all_alike(Architecture(neurons, _columns(edges)), ReferenceArchitecture(neurons, edges))
    for case, (neurons, edges) in _MALFORMED.items():
        with pytest.raises(ArchitectureError) as want:
            Architecture(neurons, edges)
        with pytest.raises(ArchitectureError) as got:
            Architecture(neurons, _columns(edges))
        assert (type(got.value), str(got.value)) == (type(want.value), str(want.value)), case


def test_two_edges_given_as_lists_are_two_pairs():
    neurons = [("a", "input"), ("b", "relu"), ("c", "identity")]
    for edges in ([["a", "b"], ["b", "c"]], (["a", "b"], ["b", "c"])):
        assert edge_ids(Architecture(neurons, edges)) == (("a", "b"), ("b", "c"))

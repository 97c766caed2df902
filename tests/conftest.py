"""Shared fixtures: tiny hand-checkable networks, oracles, random corpora."""

import numpy as np
import pytest

from pathlift import Architecture, ParamVector, random_dag, random_params


def diamond_arch() -> Architecture:
    """One input fanning out to two ReLU neurons that feed one output."""
    return Architecture(
        [("in", "input"), ("h1", "relu"), ("h2", "relu"), ("out", "identity")],
        [("in", "h1"), ("in", "h2"), ("h1", "out"), ("h2", "out")],
    )


def diamond_theta(arch: Architecture) -> ParamVector:
    # coordinates: in->h1, in->h2, h1->out, h2->out, b(h1), b(h2), b(out)
    return ParamVector(arch, [1.0, -2.0, 3.0, 1.0, 0.0, 0.0, 0.0])


def chain2_arch() -> Architecture:
    """input -> relu -> output, two edges."""
    return Architecture(
        [("in", "input"), ("m", "relu"), ("out", "identity")],
        [("in", "m"), ("m", "out")],
    )


def chain3(weights, biases):
    """The relu chain in->m1->m2->out with these weights and biases, as
    (architecture, parameters)."""
    names = ["in", "m1", "m2", "out"]
    arch = Architecture(
        [("in", "input"), ("m1", "relu"), ("m2", "relu"), ("out", "identity")],
        list(zip(names[:-1], names[1:])),
    )
    return arch, ParamVector(arch, [*weights, *biases])


def pool_arch() -> Architecture:
    """Two inputs into a 1-max-pool neuron, then one output edge."""
    return Architecture(
        [("in1", "input"), ("in2", "input"), ("m", ("kpool", 1)), ("out", "identity")],
        [("in1", "m"), ("in2", "m"), ("m", "out")],
    )


def pool_theta(arch: Architecture, w1=2.0, w2=-3.0) -> ParamVector:
    # coordinates: in1->m, in2->m, m->out, b(m) pinned to 0, b(out)
    return ParamVector(arch, [w1, w2, 1.0, 0.0, 0.0])


@pytest.fixture
def diamond():
    arch = diamond_arch()
    return arch, diamond_theta(arch)


@pytest.fixture
def chain2():
    return chain2_arch()


@pytest.fixture
def pool_net():
    arch = pool_arch()
    return arch, pool_theta(arch)


def random_cases(n: int, seed: int, zero_frac: float = 0.0, **dag_kw):
    """n independent (arch, theta, rng) triples over small random DAGs."""
    cases = []
    for child in np.random.SeedSequence(seed).spawn(n):
        rng = np.random.default_rng(child)
        arch = random_dag(rng, **dag_kw)
        cases.append((arch, random_params(arch, rng, zero_frac=zero_frac), rng))
    return cases


def replaced(theta: ParamVector, updates: dict) -> ParamVector:
    """A copy of theta with the coordinates (by flat index) set to new values."""
    v = theta.vec.copy()
    v[list(updates)] = list(updates.values())
    return ParamVector(theta.arch, v)


def edge_ids(arch: Architecture) -> tuple:
    """(source id, destination id) per edge, in canonical order, read from src/dst."""
    return tuple((arch.ids[u], arch.ids[v]) for u, v in zip(arch.src.tolist(), arch.dst.tolist()))


def weight(theta: ParamVector, u, v) -> float:
    """The weight of the edge u->v, found by the positions of its ends."""
    arch = theta.arch
    (i,) = np.flatnonzero((arch.src == arch.position(u)) & (arch.dst == arch.position(v)))
    return float(theta.vec[i])


def bias(theta: ParamVector, nid) -> float:
    """The bias of the non-input neuron nid."""
    i = theta.arch.bias_coord[theta.arch.position(nid)]
    assert i >= 0, f"input neuron {nid} has no bias"
    return float(theta.vec[i])


def oracle_paths(arch: Architecture):
    """Independent path enumeration by depth-first walk over successors."""
    succ = {nid: [] for nid in arch.ids}
    for u, v in edge_ids(arch):
        succ[u].append(v)
    outputs = {arch.ids[j] for j in arch.output_pos}
    found = []

    def walk(seq):
        if seq[-1] in outputs:
            found.append(tuple(seq))
        for nxt in succ[seq[-1]]:
            walk(seq + [nxt])

    for nid in arch.ids:
        walk([nid])
    found.sort(key=lambda p: (arch.position(p[-1]), tuple(arch.position(v) for v in p)))
    return found


def oracle_phi(arch: Architecture, theta: ParamVector, paths) -> np.ndarray:
    """Per-path products straight from the definition."""
    inputs = {arch.ids[j] for j in arch.input_pos}
    coord = dict(zip(edge_ids(arch), range(arch.n_edges)))
    vals = []
    for p in paths:
        v = 1.0 if p[0] in inputs else bias(theta, p[0])
        for e in zip(p, p[1:]):
            v *= theta.vec[coord[e]]
        vals.append(v)
    return np.asarray(vals)

"""Network builders: layered MLPs, conv-shaped grids, seeded random DAGs.

Neuron ids are zero-padded so that the canonical (id-sorted) order of each
layer matches the natural index order; input vectors then line up with the
obvious coordinates.
"""

from __future__ import annotations

import numpy as np

from .errors import ArchitectureError, PathliftError, RaggedLayers
from .graph import Architecture, ParamVector, _check_bound, _finite, _rng, _scalar


def mlp_architecture(widths, hidden: str = "relu") -> Architecture:
    """Fully-connected layered network; layer 0 is the input layer."""
    widths = [_scalar(w, RaggedLayers, "layer width must be an integer >= 1", lambda n: n >= 1, whole=True) for w in widths]
    if len(widths) < 2:
        raise RaggedLayers(f"need at least two layer widths, got {widths}")
    names = [[f"L{l}n{i:03d}" for i in range(w)] for l, w in enumerate(widths)]
    neurons = [(n, "input") for n in names[0]]
    for layer in names[1:-1]:
        neurons += [(n, hidden) for n in layer]
    neurons += [(n, "identity") for n in names[-1]]
    edges = []
    for prev, cur in zip(names[:-1], names[1:]):
        edges += [(u, v) for v in cur for u in prev]
    return Architecture(neurons, edges)


def mlp_params(arch: Architecture, matrices, biases=None) -> ParamVector:
    """Bind a list of weight matrices (rows = outgoing neurons) to an MLP.

    matrices[l][i, j] is the weight from neuron j of layer l to neuron i of
    layer l+1; biases, when given, is one vector per non-input layer.
    Neurons of a layer are indexed in canonical order, so the parameter
    vector is the matrices raveled row-major, then the bias vectors.
    """
    widths = _mlp_layers(arch)
    mats = [_finite(m, f"matrix {l}") for l, m in enumerate(matrices)]
    if len(mats) != len(widths) - 1:
        raise RaggedLayers(f"expected {len(widths) - 1} matrices, got {len(mats)}")
    for l, m in enumerate(mats):
        if m.shape != (widths[l + 1], widths[l]):
            raise RaggedLayers(f"matrix {l} has shape {m.shape}, expected {(widths[l + 1], widths[l])}")
    if biases is None:
        bs = [np.zeros(w) for w in widths[1:]]
    else:
        bs = [_finite(b, f"bias vector {l}") for l, b in enumerate(biases)]
        if [b.shape for b in bs] != [(w,) for w in widths[1:]]:
            raise RaggedLayers(f"bias shapes {[b.shape for b in bs]} do not fit layer widths {widths[1:]}")
    return ParamVector(arch, np.concatenate([m.ravel() for m in mats] + bs))


def mlp_matrices(arch: Architecture, theta: ParamVector):
    """Inverse of mlp_params: recover the per-layer weight matrices."""
    _check_bound(arch, theta)
    widths = _mlp_layers(arch)
    sizes = [a * b for a, b in zip(widths[1:], widths[:-1])]
    blocks = np.split(theta.vec[: arch.n_edges], np.cumsum(sizes)[:-1])
    return [b.reshape(rows, cols) for b, rows, cols in zip(blocks, widths[1:], widths[:-1])]


def _mlp_layers(arch: Architecture) -> list:
    """Layer widths, inputs first.  Raises RaggedLayers unless each non-input
    neuron reads exactly the neurons one level shallower; then the neurons of
    a level are ready together in the topological sort, so each level is one
    run of positions, in id order."""
    depth = arch.depth
    widths = np.bincount(depth)
    if widths.size < 2 or arch.n_edges != widths[1:] @ widths[:-1] or np.any(
        depth[arch.src] != depth[arch.dst] - 1
    ):
        raise RaggedLayers("not a layered MLP: some neuron does not read exactly the previous layer")
    return widths.tolist()


def conv_grid_architecture(
    side: int = 12, channels=(8, 20), kernel: int = 3, pool: int = 2, d_out: int = 10
) -> Architecture:
    """Conv-net-shaped DAG: valid convolutions, a max-pool stage, a dense head.

    Connectivity only; every edge keeps its own weight.  Defaults give about
    1e5 edges, the scale-test regime.  Raises ArchitectureError unless every
    size is an integer, ``d_out`` and the channel counts at least 1, and
    when a kernel or pool window, a convolution stage or the pooled grid
    would be empty.
    """
    side, kernel, pool = (_scalar(v, ArchitectureError, f"{name} must be an integer", whole=True)
                          for name, v in (("side", side), ("kernel", kernel), ("pool", pool)))
    d_out, *channels = (_scalar(v, ArchitectureError, f"{name} must be an integer >= 1", lambda n: n >= 1, whole=True)
                        for name, v in (("d_out", d_out), *(("channel count", c) for c in channels)))
    last = side - len(channels) * (kernel - 1)
    if kernel < 1 or pool < 1 or last < 1 or last // pool < 1:
        raise ArchitectureError(
            f"side {side}, kernel {kernel} and pool {pool} leave an empty window or grid "
            f"({len(channels)} convolution(s), then the pool)"
        )
    neurons = [(f"I{r:02d}x{c:02d}", "input") for r in range(side) for c in range(side)]
    edges = []
    prev = [[f"I{r:02d}x{c:02d}" for c in range(side)] for r in range(side)]
    prev_ch = 1
    prev_grids = [prev]
    stage = 0
    for ch in channels:
        stage += 1
        size = len(prev_grids[0]) - kernel + 1
        grids = []
        for f in range(ch):
            grid = [[f"S{stage}f{f:02d}r{r:02d}c{c:02d}" for c in range(size)] for r in range(size)]
            grids.append(grid)
            for r in range(size):
                for c in range(size):
                    neurons.append((grid[r][c], "relu"))
                    for g in prev_grids:
                        for dr in range(kernel):
                            for dc in range(kernel):
                                edges.append((g[r + dr][c + dc], grid[r][c]))
        prev_grids = grids
        prev_ch = ch
    stage += 1
    size = len(prev_grids[0]) // pool
    pooled = []
    for f in range(prev_ch):
        grid = [[f"S{stage}f{f:02d}r{r:02d}c{c:02d}" for c in range(size)] for r in range(size)]
        pooled.append(grid)
        for r in range(size):
            for c in range(size):
                neurons.append((grid[r][c], ("kpool", 1)))
                for dr in range(pool):
                    for dc in range(pool):
                        edges.append((prev_grids[f][pool * r + dr][pool * c + dc], grid[r][c]))
    flat = [g[r][c] for g in pooled for r in range(size) for c in range(size)]
    for o in range(d_out):
        nid = f"Zout{o:02d}"
        neurons.append((nid, "identity"))
        edges += [(u, nid) for u in flat]
    return Architecture(neurons, edges)


def _probability(value, what: str) -> float:
    return _scalar(value, PathliftError, f"{what} must be a number in [0, 1]", lambda p: 0.0 <= p <= 1.0)


def random_params(arch: Architecture, rng, zero_frac: float = 0.0) -> ParamVector:
    """Random parameters of random signs, with weight magnitudes uniform in
    [0.05, 1) and bias magnitudes uniform in [0.05, 0.3); then, with
    ``zero_frac``, each coordinate zeroed with that probability.  ``rng`` is
    a seed (an integer >= 0 or a SeedSequence) or a Generator and
    ``zero_frac`` a number in [0, 1], else PathliftError."""
    rng, zero_frac = _rng(rng), _probability(zero_frac, "zero_frac")
    n_e = arch.n_edges
    w = rng.uniform(0.05, 1.0, size=n_e) * rng.choice([-1.0, 1.0], size=n_e)
    b = rng.uniform(0.05, 0.3, size=arch.n_coords - n_e)
    b *= rng.choice([-1.0, 1.0], size=b.size)
    v = np.concatenate([w, b])
    if zero_frac > 0.0:
        v[rng.random(arch.n_coords) < zero_frac] = 0.0
    return ParamVector(arch, v)


def same_sign_partner(theta: ParamVector, rng, zero_frac: float = 0.0) -> ParamVector:
    """theta times a factor drawn uniformly from [0.25, 1.75) per coordinate,
    then, with ``zero_frac``, each coordinate zeroed with that probability;
    the sign condition holds by construction.  ``rng`` and ``zero_frac`` are
    as in :func:`random_params`."""
    _check_bound(None, theta)
    rng, zero_frac = _rng(rng), _probability(zero_frac, "zero_frac")
    v = theta.vec * rng.uniform(0.25, 1.75, size=len(theta))
    if zero_frac > 0.0:
        v[rng.random(len(theta)) < zero_frac] = 0.0
    return ParamVector(theta.arch, v)


def random_dag(
    rng,
    max_layers: int = 4,
    max_width: int = 5,
    p_skip: float = 0.25,
    p_identity: float = 0.2,
    p_kpool: float = 0.25,
) -> Architecture:
    """Seeded random layered DAG with skip edges and mixed activations.

    Every non-input neuron keeps at least one antecedent and every
    non-output neuron at least one successor, so the input/output roles are
    exactly the intended layers.  Desk scale by default: small enough for
    exhaustive path enumeration.  ``rng`` is as in :func:`random_params`,
    ``max_layers`` an integer >= 2, ``max_width`` one >= 1 and each ``p_``
    a number in [0, 1], else PathliftError.
    """
    rng = _rng(rng)
    max_layers = _scalar(max_layers, PathliftError, "max_layers must be an integer >= 2", lambda n: n >= 2, whole=True)
    max_width = _scalar(max_width, PathliftError, "max_width must be an integer >= 1", lambda n: n >= 1, whole=True)
    p_skip, p_identity, p_kpool = map(_probability, (p_skip, p_identity, p_kpool), ("p_skip", "p_identity", "p_kpool"))
    n_layers = int(rng.integers(2, max_layers + 1))
    widths = [int(rng.integers(1, max_width + 1)) for _ in range(n_layers)]
    names = [[f"L{l}n{i}" for i in range(w)] for l, w in enumerate(widths)]
    edges = []
    for l in range(1, n_layers):
        for v in names[l]:
            prev = names[l - 1]
            n_in = int(rng.integers(1, len(prev) + 1))
            for u in rng.choice(prev, size=n_in, replace=False):
                edges.append((str(u), v))
            for back in range(l - 1):
                for u in names[back]:
                    if rng.random() < p_skip / (l - back):
                        edges.append((u, v))
    has_suc = {u for u, _ in edges}
    for l in range(n_layers - 1):
        for u in names[l]:
            if u not in has_suc:
                v = str(rng.choice(names[l + 1]))
                edges.append((u, v))
                has_suc.add(u)
    n_ant = {}
    for u, v in edges:
        n_ant[v] = n_ant.get(v, 0) + 1
    neurons = [(n, "input") for n in names[0]]
    for l in range(1, n_layers - 1):
        for nid in names[l]:
            r = rng.random()
            if r < p_kpool and n_ant[nid] >= 2:
                neurons.append((nid, ("kpool", int(rng.integers(1, n_ant[nid] + 1)))))
            elif r < p_kpool + p_identity:
                neurons.append((nid, "identity"))
            else:
                neurons.append((nid, "relu"))
    neurons += [(n, "identity") for n in names[-1]]
    return Architecture(neurons, edges)

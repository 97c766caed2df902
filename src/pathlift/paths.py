"""Exact path calculus by enumeration.

A path is any neuron sequence following edges, including single-neuron
paths; the path set of a network collects every path ending at an output
neuron.  Enumeration is the reference oracle for everything else in this
package: the path lifting (one product of weights per path, led by the
starting bias when the path starts at a hidden neuron), the 0/1 path
activations at a given input, and the fixed incidence matrix.

All functions return paths in one canonical order: grouped by end neuron
(topological position), then sorted by start neuron and lexicographic
neuron sequence.  The number of paths can be exponential in depth, so every
enumerating entry point first counts paths in linear time and raises
:class:`PathExplosion` when the count exceeds the cap (default 10**6,
overridable per call or via the PATHLIFT_PATH_CAP environment variable).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .engine import activations
from .errors import DimensionMismatch, PathExplosion
from .graph import INPUT, Architecture, ParamVector, _check_bound

DEFAULT_PATH_CAP = 10**6


def _resolve_cap(cap) -> int:
    if cap is not None:
        return int(cap)
    return int(os.environ.get("PATHLIFT_PATH_CAP", DEFAULT_PATH_CAP))


def count_paths(arch: Architecture, end=None) -> int:
    """Exact number of paths ending at output neurons (or at ``end``).

    Linear-time dynamic program: c(v) = 1 + sum of c(u) over antecedents.
    """
    counts = [0] * arch.n_neurons
    for j in range(arch.n_neurons):
        counts[j] = 1 + sum(counts[int(a)] for a in arch.ant[j])
    if end is not None:
        return counts[arch.position(end)]
    return sum(counts[int(j)] for j in arch.output_pos)


def max_path_length(arch: Architecture) -> int:
    """Maximum number of edges over all paths ending at an output neuron."""
    lp = [0] * arch.n_neurons
    for j in range(arch.n_neurons):
        if arch.ant[j].size:
            lp[j] = 1 + max(lp[int(a)] for a in arch.ant[j])
    return max((lp[int(j)] for j in arch.output_pos), default=0)


def _gen_ending_at(arch: Architecture, j: int):
    yield (j,)
    for a in arch.ant[j]:
        for p in _gen_ending_at(arch, int(a)):
            yield p + (j,)


def _enum_positions(arch: Architecture, end=None, cap=None):
    cap = _resolve_cap(cap)
    total = count_paths(arch, end=end)
    if total > cap:
        raise PathExplosion(total, cap)
    if end is None:
        ends = [int(j) for j in arch.output_pos]
    else:
        ends = [arch.position(end)]
    out = []
    for j in ends:
        out.extend(sorted(_gen_ending_at(arch, j)))
    return out


def enumerate_paths(arch: Architecture, end=None, cap=None):
    """All paths in canonical order, as tuples of neuron ids."""
    return [tuple(arch.ids[j] for j in p) for p in _enum_positions(arch, end=end, cap=cap)]


def format_path(path) -> str:
    return "->".join(str(v) for v in path)


@dataclass(frozen=True)
class PathLifting:
    """Path lifting of a parameter vector, aligned with the canonical paths.

    ``input_start[i]`` tells whether path i starts at an input neuron; the
    two blocks values[input_start] / values[~input_start] split the lifting
    into its input-led and bias-led coordinates.
    """

    paths: tuple
    values: np.ndarray
    input_start: np.ndarray

    @property
    def phi_input(self) -> np.ndarray:
        return self.values[self.input_start]

    @property
    def phi_hidden(self) -> np.ndarray:
        return self.values[~self.input_start]

    def norm(self, q: float = 1.0) -> float:
        """q-th power of the lq norm, i.e. sum of |phi_p|**q."""
        return float(np.sum(np.abs(self.values) ** q))

    def __len__(self):
        return len(self.paths)


def path_lifting(arch: Architecture, theta: ParamVector, end=None, cap=None) -> PathLifting:
    """One coordinate per path: product of traversed weights, led by the
    starting neuron's bias when the path starts off the input layer (the
    empty product is 1, so a single-neuron path at v has value b_v)."""
    _check_bound(arch, theta)
    pos_paths = _enum_positions(arch, end=end, cap=cap)
    vec = theta.vec
    values = np.empty(len(pos_paths))
    starts_input = np.empty(len(pos_paths), dtype=bool)
    for i, p in enumerate(pos_paths):
        if arch.kinds[p[0]] == INPUT:
            acc = 1.0
            starts_input[i] = True
        else:
            acc = vec[arch.bias_coord[p[0]]]
            starts_input[i] = False
        for u, v in zip(p[:-1], p[1:]):
            acc *= vec[arch.edge_index[(arch.ids[u], arch.ids[v])]]
        values[i] = acc
    paths = tuple(tuple(arch.ids[j] for j in p) for p in pos_paths)
    return PathLifting(paths=paths, values=values, input_start=starts_input)


def path_activations(arch: Architecture, theta: ParamVector, x, end=None, cap=None) -> np.ndarray:
    """0/1 activation of each canonical path at input x."""
    edge_act, start_act = activations(arch, theta, x)
    pos_paths = _enum_positions(arch, end=end, cap=cap)
    acts = np.empty(len(pos_paths))
    for i, p in enumerate(pos_paths):
        a = start_act[p[0]]
        for u, v in zip(p[:-1], p[1:]):
            if a == 0.0:
                break
            a *= edge_act[arch.edge_index[(arch.ids[u], arch.ids[v])]]
        acts[i] = a
    return acts


def incidence_matrix(arch: Architecture, end=None, cap=None):
    """Fixed 0/1 matrix pairing each path with its input coordinate.

    Row p has a single 1: in the column of the starting input neuron, or in
    the trailing bias column when the path starts at a hidden or output
    neuron.  Depends only on the graph, never on parameters or inputs.
    Returns (matrix, column_labels).
    """
    pos_paths = _enum_positions(arch, end=end, cap=cap)
    col_of = {int(j): c for c, j in enumerate(arch.input_pos)}
    a = np.zeros((len(pos_paths), arch.d_in + 1), dtype=np.int8)
    for i, p in enumerate(pos_paths):
        a[i, col_of.get(p[0], arch.d_in)] = 1
    labels = tuple(arch.input_ids) + ("bias",)
    return a, labels


def linearized_output(arch: Architecture, theta: ParamVector, x, cap=None) -> np.ndarray:
    """Network output reconstructed from the path decomposition.

    For each output neuron, the sum over paths ending there of
    lifting * activation * (starting input coordinate, or 1 for bias-led
    paths).  Agrees with the forward pass exactly on every input.
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    if x.shape[0] != arch.d_in:
        raise DimensionMismatch(f"input has {x.shape[0]} entries, expected {arch.d_in}")
    edge_act, start_act = activations(arch, theta, x)
    xval = {int(j): x[c] for c, j in enumerate(arch.input_pos)}
    out_col = {int(j): c for c, j in enumerate(arch.output_pos)}
    vec = theta.vec
    out = np.zeros(arch.d_out)
    for p in _enum_positions(arch, cap=cap):
        if arch.kinds[p[0]] == INPUT:
            phi = 1.0
            lead = xval[p[0]]
        else:
            phi = vec[arch.bias_coord[p[0]]]
            lead = 1.0
        act = start_act[p[0]]
        for u, v in zip(p[:-1], p[1:]):
            phi *= vec[arch.edge_index[(arch.ids[u], arch.ids[v])]]
            act *= edge_act[arch.edge_index[(arch.ids[u], arch.ids[v])]]
        out[out_col[p[-1]]] += phi * act * lead
    return out


def save_path_table(fp, paths, values, header="path\tvalue"):
    """Write one ``path<TAB>value`` row per path to a text file or handle."""
    own = isinstance(fp, (str, os.PathLike))
    fh = open(fp, "w") if own else fp
    try:
        fh.write(header + "\n")
        for p, v in zip(paths, values):
            fh.write(f"{format_path(p)}\t{float(v)!r}\n")
    finally:
        if own:
            fh.close()

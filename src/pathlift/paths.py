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

Paths live in one path table, built without recursion: every path grows
backwards from its end one edge per step, then all are sorted into the
canonical order.  Path i has an int32 start position and an int32 row:
column 0 is the start's bias coordinate (the sentinel ``n_coords`` for an
input start), the rest are its edge coordinates in forward order, padded
with the sentinel.  The sentinel reads an appended 1.0, so every per-path
quantity is one gather through the rows and a product or a bincount.  The
table is cached on the architecture per end and the cap is checked on
every call.  It holds paths x (longest path + 1) int32 entries: about
36 MB for a 3,000-edge chain, 1.6 MB for a (4, 20, 20, 20, 2) MLP.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .engine import activations
from .errors import DimensionMismatch, PathExplosion
from .graph import Architecture, ParamVector, _check_bound

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


class _PathTable(NamedTuple):
    """Start and end position and row of every path; read-only (cached)."""

    start: np.ndarray
    end: np.ndarray
    rows: np.ndarray


def _build_table(arch: Architecture, ends: np.ndarray) -> _PathTable:
    """Every path ending at one of ``ends``, in canonical order."""
    sentinel = arch.n_coords
    fan = np.array([a.size for a in arch.ant], dtype=np.int64)
    first = np.cumsum(fan) - fan
    src = np.concatenate([np.zeros(0, dtype=np.int64), *arch.ant])
    coord = np.concatenate([np.zeros(0, dtype=np.int64), *arch.in_coords])
    dst = np.full(sentinel + 1, -1, dtype=np.int32)  # -1 at the sentinel
    dst[coord] = np.repeat(np.arange(arch.n_neurons), fan)

    # step s prepends an edge to each path of step s - 1, once per antecedent
    # of its start; ``steps`` keeps the parent and the new edge of each path
    heads, tails, steps = [ends], [ends], []
    while fan[heads[-1]].sum():
        n_new = fan[heads[-1]]
        parent = np.repeat(np.arange(n_new.size), n_new)
        slot = np.arange(parent.size) + np.repeat(first[heads[-1]] - np.cumsum(n_new) + n_new, n_new)
        heads.append(src[slot])
        tails.append(tails[-1][parent])
        steps.append((parent, coord[slot]))

    offsets = np.cumsum([0] + [h.size for h in heads])
    rows = np.full((offsets[-1], len(heads)), sentinel, dtype=np.int32)
    for s, (parent, edge) in enumerate(steps, start=1):
        rows[offsets[s] : offsets[s + 1], 1] = edge
        rows[offsets[s] : offsets[s + 1], 2 : s + 1] = rows[offsets[s - 1] + parent, 1:s]
    start = np.concatenate(heads).astype(np.int32)
    rows[:, 0] = np.where(arch.bias_coord < 0, sentinel, arch.bias_coord)[start]

    # lexsort's last key is the primary one: end, start, then the neurons
    # after the start; padding never decides, since no path continues past
    # the neuron it ends at
    keys = [dst[rows[:, c]] for c in range(rows.shape[1] - 1, 0, -1)] + [start, np.concatenate(tails)]
    order = np.lexsort(keys)
    table = _PathTable(start[order], keys[-1][order].astype(np.int32), rows[order])
    for a in table:
        a.setflags(write=False)
    return table


def _table(arch: Architecture, end=None, cap=None) -> _PathTable:
    """The path table for ``end`` (all outputs when None), built on first
    use and cached on the architecture; raises PathExplosion over the cap."""
    cap = _resolve_cap(cap)
    key = None if end is None else arch.position(end)
    tables = arch.__dict__.setdefault("_path_tables", {})
    table = tables.get(key)
    total = count_paths(arch, end=end) if table is None else table.start.size
    if total > cap:
        raise PathExplosion(total, cap)
    if table is None:
        ends = arch.output_pos if key is None else np.array([key])
        table = tables[key] = _build_table(arch, ends)
    return table


def _row_products(arch: Architecture, vec: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Product over each row of the entries of ``vec`` it selects, left to
    right; the sentinel, and any coordinate past the end of ``vec``, reads 1.0."""
    padded = np.ones(arch.n_coords + 1)
    padded[: vec.size] = vec
    return np.prod(padded[rows], axis=1)


def _id_tuples(arch: Architecture, table: _PathTable) -> list:
    """The table's paths as tuples of neuron ids."""
    heads = np.array(arch.ids, dtype=object)[table.start, None]
    dst = np.array([v for _, v in arch.edges] + [None] * (arch.n_coords + 1 - arch.n_edges), dtype=object)
    nodes = np.concatenate([heads, dst[table.rows[:, 1:]]], axis=1).tolist()
    lengths = 1 + (table.rows[:, 1:] != arch.n_coords).sum(axis=1)
    return [tuple(r[:k]) for r, k in zip(nodes, lengths.tolist())]


def enumerate_paths(arch: Architecture, end=None, cap=None):
    """All paths in canonical order, as tuples of neuron ids."""
    return _id_tuples(arch, _table(arch, end=end, cap=cap))


def format_path(path) -> str:
    return "->".join(str(v) for v in path)


@dataclass(frozen=True, eq=False)
class PathLifting:
    """Path lifting of a parameter vector, aligned with the canonical paths.

    ``values[i]`` is the coordinate of path i.  ``paths``, the id tuples,
    are built on first access.  ``input_start[i]`` tells whether path i
    starts at an input neuron; the two blocks values[input_start] /
    values[~input_start] split the lifting into its input-led and bias-led
    coordinates.
    """

    arch: Architecture = field(repr=False)
    table: _PathTable = field(repr=False)
    values: np.ndarray

    @cached_property
    def paths(self) -> tuple:
        return tuple(_id_tuples(self.arch, self.table))

    @property
    def input_start(self) -> np.ndarray:
        return self.arch.is_input[self.table.start]

    @property
    def phi_input(self) -> np.ndarray:
        return self.values[self.input_start]

    @property
    def phi_hidden(self) -> np.ndarray:
        return self.values[~self.input_start]

    def norm(self, q: float = 1.0) -> float:
        """q-th power of the lq norm, i.e. sum of |phi_p|**q."""
        return float(np.sum(np.abs(self.values) ** q))

    def coordinate_sums(self, weights) -> np.ndarray:
        """Per parameter coordinate, the sum of ``weights[i]`` over the paths
        i through it: over its edges, and over its start bias when the path
        is led by one.  Sums run in canonical path order."""
        rows = self.table.rows
        w = np.repeat(np.asarray(weights, dtype=np.float64), rows.shape[1])
        return np.bincount(rows.ravel(), weights=w, minlength=self.arch.n_coords + 1)[:-1]

    def __len__(self):
        return self.values.size


def path_lifting(arch: Architecture, theta: ParamVector, end=None, cap=None) -> PathLifting:
    """One coordinate per path: product of traversed weights, led by the
    starting neuron's bias when the path starts off the input layer (the
    empty product is 1, so a single-neuron path at v has value b_v)."""
    _check_bound(arch, theta)
    table = _table(arch, end=end, cap=cap)
    return PathLifting(arch=arch, table=table, values=_row_products(arch, theta.vec, table.rows))


def path_activations(arch: Architecture, theta: ParamVector, x, end=None, cap=None) -> np.ndarray:
    """0/1 activation of each canonical path at input x."""
    edge_act, start_act = activations(arch, theta, x)
    table = _table(arch, end=end, cap=cap)
    return start_act[table.start] * _row_products(arch, edge_act, table.rows[:, 1:])


def _input_column(arch: Architecture) -> np.ndarray:
    """Per neuron position: its input column, or d_in off the input layer."""
    return np.where(arch.is_input, np.cumsum(arch.is_input) - 1, arch.d_in)


def incidence_matrix(arch: Architecture, end=None, cap=None):
    """Fixed 0/1 matrix pairing each path with its input coordinate.

    Row p has a single 1: in the column of the starting input neuron, or in
    the trailing bias column when the path starts at a hidden or output
    neuron.  Depends only on the graph, never on parameters or inputs.
    Returns (matrix, column_labels).
    """
    start = _table(arch, end=end, cap=cap).start
    a = np.zeros((start.size, arch.d_in + 1), dtype=np.int8)
    a[np.arange(start.size), _input_column(arch)[start]] = 1
    labels = tuple(arch.input_ids) + ("bias",)
    return a, labels


def linearized_output(arch: Architecture, theta: ParamVector, x, cap=None) -> np.ndarray:
    """Network output reconstructed from the path decomposition.

    For each output neuron, the sum over paths ending there of
    lifting * activation * (starting input coordinate, or 1 for bias-led
    paths), in canonical path order.  Agrees with the forward pass exactly
    on every input.
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    if x.shape[0] != arch.d_in:
        raise DimensionMismatch(f"input has {x.shape[0]} entries, expected {arch.d_in}")
    acts = path_activations(arch, theta, x, cap=cap)
    table = _table(arch, cap=cap)
    phi = _row_products(arch, theta.vec, table.rows)
    lead = np.append(x, 1.0)[_input_column(arch)[table.start]]
    out_col = np.searchsorted(arch.output_pos, table.end)
    return np.bincount(out_col, weights=phi * acts * lead, minlength=arch.d_out)


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

"""Exact path calculus by enumeration.

A path is any neuron sequence following edges, including single-neuron
paths; the path set of a network collects every path ending at an output
neuron.  Enumeration is the reference oracle for everything else in this
package: the path lifting (one product of weights per path, led by the
starting bias when the path starts at a hidden neuron), the 0/1 path
activations at a given input, and the output rebuilt from the two.

All functions return paths in one canonical order: grouped by end neuron
(topological position), then sorted by start neuron and lexicographic
neuron sequence.  The number of paths can be exponential in depth, so every
enumerating entry point first counts paths in linear time and raises
:class:`PathExplosion` when the count exceeds the cap: the
PATHLIFT_PATH_CAP environment variable, read on every call, or 10**6.

Paths live in one path table, built without recursion: every path grows
backwards from its end one edge per step, then all are sorted into the
canonical order.  Path i has an int32 start position and an int32 row:
column 0 is the start's bias coordinate (the sentinel ``n_coords`` for an
input start), the rest are its edge coordinates in forward order, padded
with the sentinel, which reads an appended 1.0 (on, for activations).  A
per-path product, the lifting or the 0/1 activations, is reduced column by
column, one entry per path; a per-coordinate sum is one bincount.  The
table is cached on the architecture and the cap is checked on every call.
It holds paths x (longest path + 1) int32 entries: about 36 MB for a
3,000-edge chain, 1.6 MB for a (4, 20, 20, 20, 2) MLP.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .engine import activations
from .errors import PathExplosion, PathliftError
from .graph import Architecture, ParamVector, _check_input, _param_rows
from .netfile import _opened

DEFAULT_PATH_CAP = 10**6


def count_paths(arch: Architecture) -> int:
    """Exact number of paths ending at output neurons.

    Linear-time dynamic program c(v) = 1 + sum of c(u) over antecedents:
    one segment sum per level of ``arch.levels``, over Python ints.
    """
    counts = np.ones(arch.n_neurons, dtype=object)
    for rows, edges, starts in arch.levels:
        counts[rows] = 1 + np.add.reduceat(counts[arch.src[edges]], starts)
    return sum(counts[arch.output_pos].tolist())


def max_path_length(arch: Architecture) -> int:
    """Maximum number of edges over all paths ending at an output neuron: the
    largest depth, since a longest path extends to an output."""
    return int(arch.depth.max(initial=0))


class _PathTable(NamedTuple):
    """Start and end position and row of every path; read-only (cached)."""

    start: np.ndarray
    end: np.ndarray
    rows: np.ndarray


def _build_table(arch: Architecture) -> _PathTable:
    """Every path ending at an output neuron, in canonical order."""
    ends, sentinel = arch.output_pos, arch.n_coords
    fan, first, src = np.diff(arch.in_ptr), arch.in_ptr[:-1], arch.src
    dst = np.r_[arch.dst, np.full(sentinel + 1 - arch.n_edges, -1)]  # -1 at the sentinel

    # step s prepends an edge to each path of step s - 1, once per antecedent
    # of its start; ``steps`` keeps the parent and the new edge of each path
    heads, tails, steps = [ends], [ends], []
    while fan[heads[-1]].sum():
        n_new = fan[heads[-1]]
        parent = np.repeat(np.arange(n_new.size), n_new)
        slot = np.arange(parent.size) + np.repeat(first[heads[-1]] - np.cumsum(n_new) + n_new, n_new)
        heads.append(src[slot])
        tails.append(tails[-1][parent])
        steps.append((parent, slot))

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


def _table(arch: Architecture) -> _PathTable:
    """The path table, built on first use and cached on the architecture;
    raises PathExplosion over the cap, read on every call."""
    value = os.environ.get("PATHLIFT_PATH_CAP", DEFAULT_PATH_CAP)
    try:
        cap = int(value)
    except ValueError:
        raise PathliftError(f"PATHLIFT_PATH_CAP must be an integer, got {value!r}") from None
    table = getattr(arch, "_path_table", None)
    total = count_paths(arch) if table is None else table.start.size
    if total > cap:
        raise PathExplosion(total, cap)
    if table is None:
        table = arch._path_table = _build_table(arch)
    return table


def _row_products(vec: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Product over each row of the entries it selects from ``vec``, one
    column at a time (left to right, as ``np.prod``): a per-coordinate vector
    with the sentinel's 1.0 (or True) appended, or a stack of them."""
    out = np.take(vec, rows[:, 0], axis=-1)
    for col in rows.T[1:]:
        out *= np.take(vec, col, axis=-1)
    return out


def _id_tuples(arch: Architecture, table: _PathTable) -> list:
    """The table's paths as tuples of neuron ids."""
    ids = np.array(arch.ids + (None,), dtype=object)  # None past the last edge
    dst = np.r_[arch.dst, np.full(arch.n_coords + 1 - arch.n_edges, arch.n_neurons)]
    nodes = np.concatenate([ids[table.start, None], ids[dst[table.rows[:, 1:]]]], axis=1).tolist()
    lengths = 1 + (table.rows[:, 1:] != arch.n_coords).sum(axis=1)
    return [tuple(r[:k]) for r, k in zip(nodes, lengths.tolist())]


def enumerate_paths(arch: Architecture):
    """All paths in canonical order, as tuples of neuron ids."""
    return _id_tuples(arch, _table(arch))


def format_path(path) -> str:
    return "->".join(str(v) for v in path)


@dataclass(frozen=True, eq=False)
class PathLifting:
    """Path lifting of a parameter vector, aligned with the canonical paths.

    ``values[i]`` is the coordinate of path i (``values[p, i]`` for item p
    of a stack; ``len`` is the number of paths either way).  ``paths``, the
    id tuples, are built on first access.  ``input_start[i]`` tells whether
    path i starts at an input neuron; the two blocks values[input_start] /
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

    def coordinate_sums(self, weights) -> np.ndarray:
        """Per parameter coordinate, the sum of ``weights[i]`` over the paths
        i through it: over its edges, and over its start bias when the path
        is led by one.  Sums run in canonical path order."""
        rows = self.table.rows
        w = np.repeat(np.asarray(weights, dtype=np.float64), rows.shape[1])
        return np.bincount(rows.ravel(), weights=w, minlength=self.arch.n_coords + 1)[:-1]

    def __len__(self):
        return self.table.start.size


def path_lifting(arch: Architecture, theta) -> PathLifting:
    """One coordinate per path: product of traversed weights, led by the
    starting neuron's bias when the path starts off the input layer (the
    empty product is 1, so a single-neuron path at v has value b_v).

    ``theta`` is a ParamVector, or a (P, n_coords) stack of parameter
    vectors, which gives ``values`` of shape (P, n_paths), row i bit for
    bit the lifting of ``theta[i]``."""
    rows = _param_rows(arch, theta)
    table = _table(arch)
    padded = np.concatenate((rows, np.ones(rows.shape[:-1] + (1,))), axis=-1)
    return PathLifting(arch=arch, table=table, values=_row_products(padded, table.rows))


def path_activations(arch: Architecture, theta, x) -> np.ndarray:
    """0/1 activation of each canonical path at input x.

    ``theta`` is a ParamVector, or a (P, n_coords) array stacking P
    parameter vectors in canonical coordinate order (their kpool bias
    entries are never read); a stack gives (P, n_paths) from one engine
    pass, row i equal to the activations of ``theta[i]``.  A start's
    activation sits in its bias slot, column 0 of every path starting there."""
    edge_act, start_act = activations(arch, _param_rows(arch, theta), x)
    table = _table(arch)
    on = np.ones(edge_act.shape[:-1] + (arch.n_coords + 1,), dtype=bool)  # the sentinel is on
    on[..., : arch.n_edges] = edge_act
    on[..., arch.n_edges : arch.n_coords] = start_act[..., arch.non_input_pos]
    return _row_products(on, table.rows).astype(np.float64)


def _input_column(arch: Architecture) -> np.ndarray:
    """Per neuron position: its input column, or d_in off the input layer."""
    return np.where(arch.is_input, np.cumsum(arch.is_input) - 1, arch.d_in)


def linearized_output(arch: Architecture, theta: ParamVector, x) -> np.ndarray:
    """Network output reconstructed from the path decomposition.

    For each output neuron, the sum over paths ending there of
    lifting * activation * (starting input coordinate, or 1 for bias-led
    paths), in canonical path order.  Agrees with the forward pass exactly
    on every input.
    """
    x = _check_input(arch, x)
    acts = path_activations(arch, theta, x)
    lift = path_lifting(arch, theta)
    lead = np.append(x, 1.0)[_input_column(arch)[lift.table.start]]
    out_col = np.searchsorted(arch.output_pos, lift.table.end)
    return np.bincount(out_col, weights=lift.values * acts * lead, minlength=arch.d_out)


def save_path_table(fp, paths, values):
    """Write one ``path<TAB>value`` row per path to a text file or handle."""
    with _opened(fp, "w") as fh:
        fh.write("path\tvalue\n")
        for p, v in zip(paths, values):
            fh.write(f"{format_path(p)}\t{float(v)!r}\n")

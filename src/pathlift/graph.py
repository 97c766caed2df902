"""Core network representation: DAG architectures, parameter vectors, forward pass.

A network is a directed acyclic graph whose neurons carry one of four
activation tags:

* ``"input"``     -- no antecedents, value read from the input vector,
* ``"identity"``  -- affine neuron,
* ``"relu"``      -- max(0, .),
* ``("kpool", k)``-- k-th largest antecedent contribution (max pooling for
  k=1).  Pool neurons have no bias degree of freedom.

Parameters attach one weight per edge and one bias per non-input neuron.
All modules index this coordinate set the same way: edges first, sorted by
(destination, source) in topological position, then biases in topological
position.  That fixed order is what score tables, masks and serialized
files refer to.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    ArchitectureError,
    BadPoolArity,
    CycleDetected,
    DanglingEdge,
    DimensionMismatch,
    DuplicateDeclaration,
    NonFiniteValue,
    NonIdentityOutput,
    UnknownNeuron,
)

INPUT, IDENTITY, RELU, KPOOL = 0, 1, 2, 3

_TAG_CODES = {"input": INPUT, "identity": IDENTITY, "relu": RELU}


def _normalize_tag(tag):
    """Accept 'relu' style strings, ('kpool', k) tuples or {'kpool': k} maps."""
    if isinstance(tag, str):
        if tag in _TAG_CODES:
            return tag
        raise ArchitectureError(f"unknown activation {tag!r}")
    if isinstance(tag, dict) and set(tag) == {"kpool"}:
        tag = ("kpool", tag["kpool"])
    if isinstance(tag, tuple) and len(tag) == 2 and tag[0] == "kpool":
        k = tag[1]
        if not isinstance(k, int) or isinstance(k, bool):
            raise ArchitectureError(f"kpool order must be an int, got {k!r}")
        return ("kpool", k)
    raise ArchitectureError(f"unknown activation {tag!r}")


class Architecture:
    """Validated DAG architecture with a fixed canonical topological order.

    The canonical order is obtained by Kahn's algorithm, always picking the
    smallest ready neuron id, so it depends only on the graph and not on
    declaration order.  Input vectors, output vectors, and the parameter
    coordinate order all follow it.
    """

    def __init__(self, neurons: Iterable, edges: Iterable, _allow_any_output: bool = False):
        declared = []
        for item in neurons:
            nid, tag = item
            declared.append((str(nid), _normalize_tag(tag)))
        ids = [nid for nid, _ in declared]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise DuplicateDeclaration(f"duplicate neuron ids: {dupes}")
        tag_of = dict(declared)

        edge_list = [(str(u), str(v)) for u, v in edges]
        known = set(ids)
        for u, v in edge_list:
            if u not in known or v not in known:
                raise DanglingEdge(f"edge {u}->{v} references an undeclared neuron")
        if len(set(edge_list)) != len(edge_list):
            dupes = sorted({e for e in edge_list if edge_list.count(e) > 1})
            raise DuplicateDeclaration(f"duplicate edges: {dupes}")

        # Kahn with a min-heap on ids gives the canonical topological order.
        ants = {i: [] for i in ids}
        sucs = {i: [] for i in ids}
        for u, v in edge_list:
            ants[v].append(u)
            sucs[u].append(v)
        indeg = {i: len(ants[i]) for i in ids}
        ready = [i for i in ids if indeg[i] == 0]
        heapq.heapify(ready)
        order = []
        while ready:
            i = heapq.heappop(ready)
            order.append(i)
            for s in sucs[i]:
                indeg[s] -= 1
                if indeg[s] == 0:
                    heapq.heappush(ready, s)
        if len(order) != len(ids):
            stuck = sorted(i for i in ids if indeg[i] > 0)
            raise CycleDetected(f"cycle through: {stuck}")

        self.ids: tuple = tuple(order)
        self.pos: dict = {nid: j for j, nid in enumerate(order)}
        self.tags: tuple = tuple(tag_of[nid] for nid in order)

        n = len(order)
        self.kinds = np.zeros(n, dtype=np.int8)
        self.pool_k = np.zeros(n, dtype=np.int64)
        for j, tag in enumerate(self.tags):
            if isinstance(tag, tuple):
                self.kinds[j] = KPOOL
                self.pool_k[j] = tag[1]
            else:
                self.kinds[j] = _TAG_CODES[tag]

        for j, nid in enumerate(order):
            has_ant = len(ants[nid]) > 0
            if self.kinds[j] == INPUT and has_ant:
                raise ArchitectureError(f"input neuron {nid} has antecedents")
            if self.kinds[j] != INPUT and not has_ant:
                raise ArchitectureError(f"neuron {nid} has no antecedents; tag it 'input'")

        for j, nid in enumerate(order):
            if not sucs[nid] and self.kinds[j] not in (IDENTITY, INPUT):
                if not _allow_any_output:
                    raise NonIdentityOutput(f"output neuron {nid} must have identity activation")

        for j, nid in enumerate(order):
            if self.kinds[j] == KPOOL:
                k = self.pool_k[j]
                if not 1 <= k <= len(ants[nid]):
                    raise BadPoolArity(f"kpool({k}) at {nid} with {len(ants[nid])} antecedents")

        # Canonical coordinate order: edges grouped by destination (then
        # source), both in topological position, followed by biases.
        canon_edges = sorted(edge_list, key=lambda e: (self.pos[e[1]], self.pos[e[0]]))
        self.edges: tuple = tuple(canon_edges)
        self.n_edges = len(canon_edges)
        self.edge_index = {e: i for i, e in enumerate(canon_edges)}

        self.is_input = self.kinds == INPUT
        self.input_pos = np.flatnonzero(self.is_input)
        self.output_pos = np.flatnonzero(
            np.array([len(sucs[nid]) == 0 for nid in order], dtype=bool)
        )
        self.input_ids = tuple(self.ids[j] for j in self.input_pos)
        self.output_ids = tuple(self.ids[j] for j in self.output_pos)

        self.bias_coord = np.full(n, -1, dtype=np.int64)
        next_coord = self.n_edges
        for j in range(n):
            if self.kinds[j] != INPUT:
                self.bias_coord[j] = next_coord
                next_coord += 1
        self.n_coords = next_coord

        # Per-neuron index arrays, antecedents in topological position order
        # (this order also fixes the pool tie-break).
        self.ant = []
        self.in_coords = []
        self.suc = []
        self.out_coords = []
        for nid in order:
            aj = sorted((self.pos[u] for u in ants[nid]))
            self.ant.append(np.asarray(aj, dtype=np.int64))
            self.in_coords.append(
                np.asarray([self.edge_index[(self.ids[a], nid)] for a in aj], dtype=np.int64)
            )
            sj = sorted((self.pos[v] for v in sucs[nid]))
            self.suc.append(np.asarray(sj, dtype=np.int64))
            self.out_coords.append(
                np.asarray([self.edge_index[(nid, self.ids[s])] for s in sj], dtype=np.int64)
            )

        labels = [f"{u}->{v}" for u, v in canon_edges]
        labels += [f"bias({self.ids[j]})" for j in range(n) if self.bias_coord[j] >= 0]
        self.coord_labels: tuple = tuple(labels)
        self.non_input_pos = np.flatnonzero(~self.is_input)

    # ---- basic queries -------------------------------------------------

    @property
    def n_neurons(self) -> int:
        return len(self.ids)

    @property
    def d_in(self) -> int:
        return len(self.input_pos)

    @property
    def d_out(self) -> int:
        return len(self.output_pos)

    def position(self, nid) -> int:
        try:
            return self.pos[str(nid)]
        except KeyError:
            raise UnknownNeuron(f"no neuron named {nid!r}") from None

    def neuron_decls(self):
        return [(nid, tag) for nid, tag in zip(self.ids, self.tags)]

    def __eq__(self, other):
        if not isinstance(other, Architecture):
            return NotImplemented
        return self.ids == other.ids and self.tags == other.tags and self.edges == other.edges

    __hash__ = None

    def __repr__(self):
        return (
            f"Architecture({self.n_neurons} neurons, {self.n_edges} edges, "
            f"{self.d_in} in, {self.d_out} out)"
        )


class ParamVector:
    """Weights and biases of an architecture as one flat read-only vector.

    Coordinates follow the architecture's canonical order.  kpool neurons
    have no bias degree of freedom, so their bias coordinates are pinned to
    zero on construction.  NaN and infinite entries are rejected with
    :class:`NonFiniteValue`.
    """

    __slots__ = ("arch", "vec")

    def __init__(self, arch: Architecture, vec):
        v = np.array(vec, dtype=np.float64)
        if v.shape != (arch.n_coords,):
            raise DimensionMismatch(
                f"parameter vector has shape {v.shape}, expected ({arch.n_coords},)"
            )
        if not np.isfinite(v).all():
            bad = np.flatnonzero(~np.isfinite(v))
            shown = ", ".join(f"{arch.coord_labels[i]}={v[i]!r}" for i in bad[:5])
            more = "" if bad.size <= 5 else f" (+{bad.size - 5} more)"
            raise NonFiniteValue(f"non-finite parameter(s): {shown}{more}")
        pool_bias = arch.bias_coord[arch.kinds == KPOOL]
        if pool_bias.size:
            v[pool_bias] = 0.0
        v.setflags(write=False)
        self.arch = arch
        self.vec = v

    @classmethod
    def zeros(cls, arch: Architecture) -> "ParamVector":
        return cls(arch, np.zeros(arch.n_coords))

    @classmethod
    def from_maps(
        cls,
        arch: Architecture,
        weights: Mapping,
        biases: Mapping | None = None,
    ) -> "ParamVector":
        v = np.zeros(arch.n_coords)
        for (u, w), val in weights.items():
            key = (str(u), str(w))
            if key not in arch.edge_index:
                raise UnknownNeuron(f"no edge {key[0]}->{key[1]}")
            v[arch.edge_index[key]] = val
        for nid, val in (biases or {}).items():
            j = arch.position(nid)
            if arch.bias_coord[j] < 0:
                raise UnknownNeuron(f"input neuron {nid} has no bias")
            v[arch.bias_coord[j]] = val
        return cls(arch, v)

    def weight(self, u, v) -> float:
        key = (str(u), str(v))
        if key not in self.arch.edge_index:
            raise UnknownNeuron(f"no edge {key[0]}->{key[1]}")
        return float(self.vec[self.arch.edge_index[key]])

    def bias(self, nid) -> float:
        j = self.arch.position(nid)
        if self.arch.bias_coord[j] < 0:
            raise UnknownNeuron(f"input neuron {nid} has no bias")
        return float(self.vec[self.arch.bias_coord[j]])

    def replace(self, updates: Mapping[int, float]) -> "ParamVector":
        """New vector with coordinates (by flat index) replaced."""
        v = self.vec.copy()
        for i, val in updates.items():
            v[i] = val
        return ParamVector(self.arch, v)

    def with_vec(self, vec) -> "ParamVector":
        return ParamVector(self.arch, vec)

    def __len__(self):
        return self.vec.shape[0]

    def __repr__(self):
        return f"ParamVector({self.arch!r})"


def validate_architecture(neurons, edges) -> Architecture:
    """Build and validate an architecture; raises ArchitectureError subclasses."""
    return Architecture(neurons, edges)


def _check_bound(arch: Architecture, theta: ParamVector):
    if theta.arch is not arch and theta.arch != arch:
        raise DimensionMismatch("parameter vector bound to a different architecture")


def neuron_values(arch: Architecture, theta: ParamVector, x) -> np.ndarray:
    """Values of every neuron at input x, in topological order."""
    from .engine import run  # the engine compiles the architectures defined here

    vals, _ = run(arch, theta, np.asarray(x, dtype=np.float64).reshape(-1))
    return vals[:-1, 0]


def forward(arch: Architecture, theta: ParamVector, x, trace: bool = False):
    """Network output at x; with trace=True also the per-neuron values."""
    vals = neuron_values(arch, theta, x)
    out = vals[arch.output_pos].copy()
    if trace:
        return out, {nid: float(vals[arch.pos[nid]]) for nid in arch.ids}
    return out


def pool_selections(arch: Architecture, theta: ParamVector, x) -> dict:
    """For each kpool neuron: topological position of the selected antecedent.

    The selected antecedent is the first one, in stored antecedent order,
    whose contribution equals the k-th largest contribution.
    """
    from .engine import run

    _, win = run(arch, theta, np.asarray(x, dtype=np.float64).reshape(-1))
    return {int(j): int(arch.ant[j][win[j, 0]]) for j in np.flatnonzero(arch.kinds == KPOOL)}


def subgraph_to(arch: Architecture, nid) -> Architecture:
    """Sub-architecture of everything that can reach ``nid``.

    The result keeps nid's activation tag even when that makes the single
    output non-identity; downstream path quantities only ever use tags of
    non-terminal neurons, so this is safe.
    """
    target = arch.position(nid)
    keep = {target}
    stack = [target]
    while stack:
        j = stack.pop()
        for a in arch.ant[j]:
            if int(a) not in keep:
                keep.add(int(a))
                stack.append(int(a))
    kept_ids = {arch.ids[j] for j in keep}
    neurons = [(i, t) for i, t in zip(arch.ids, arch.tags) if i in kept_ids]
    edges = [(u, v) for u, v in arch.edges if u in kept_ids and v in kept_ids]
    return Architecture(neurons, edges, _allow_any_output=True)


def restrict_params(arch: Architecture, sub: Architecture, theta: ParamVector) -> ParamVector:
    """Project a parameter vector of ``arch`` onto a sub-architecture."""
    _check_bound(arch, theta)
    v = np.zeros(sub.n_coords)
    for e, i in sub.edge_index.items():
        v[i] = theta.vec[arch.edge_index[e]]
    for j, nid in enumerate(sub.ids):
        if sub.bias_coord[j] >= 0:
            v[sub.bias_coord[j]] = theta.vec[arch.bias_coord[arch.position(nid)]]
    return ParamVector(sub, v)

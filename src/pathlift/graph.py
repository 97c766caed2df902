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

An architecture is built on integer arrays: each edge endpoint is mapped
to an integer key once, the checks run on those keys and on fan-in and
fan-out counts, and the canonical edge order is one argsort.  The edges
are kept as one CSR layout: ``src``/``dst`` (each canonical edge's end
positions) and ``in_ptr`` (neuron j's incoming edges are the coordinates
``in_ptr[j]:in_ptr[j + 1]``).  ``depth``, ``levels`` and the id view
``coord_labels`` are built on first access; the passes, the path norm and
the path-metric bounds read no id view, and the writers and the error
messages label only the coordinates they print.
"""

from __future__ import annotations

import heapq
import math
import numbers
from collections import Counter
from functools import cached_property
from itertools import repeat
from operator import itemgetter
from typing import Iterable, Mapping

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
    PathliftError,
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


def _pairs(entries: Iterable, what: str) -> list:
    """The entries as a list; raises naming the first one that is not a pair."""
    items = list(entries)
    if not (set(map(type, items)) <= {tuple, list} and set(map(len, items)) <= {2}):
        bad = next(e for e in items if not isinstance(e, (tuple, list)) or len(e) != 2)
        raise ArchitectureError(f"malformed {what} {bad!r}: expected a pair")
    return items


class _EdgeColumns(tuple):
    """Edges as a network file holds them, the columns (source ids,
    destination ids): the constructor reads them with no pair per edge."""


class Architecture:
    """Validated DAG architecture with a fixed canonical topological order.

    The canonical order is obtained by Kahn's algorithm, always picking the
    smallest ready neuron id, so it depends only on the graph and not on
    declaration order.  Input vectors, output vectors, and the parameter
    coordinate order all follow it.  Each neuron is an (id, activation)
    pair and each edge a (source id, destination id) pair, as a tuple or list.
    """

    def __init__(self, neurons: Iterable, edges: Iterable):
        declared = [(str(nid), _normalize_tag(tag)) for nid, tag in _pairs(neurons, "neuron entry")]
        tag_of = dict(declared)
        if len(tag_of) != len(declared):
            counts = Counter(nid for nid, _ in declared)
            dupes = sorted(nid for nid, c in counts.items() if c > 1)
            raise DuplicateDeclaration(f"duplicate neuron ids: {dupes}")
        # integer keys: each neuron's rank among the sorted ids
        names = sorted(tag_of)
        n = len(names)
        rank = dict(zip(names, range(n)))

        if isinstance(edges, _EdgeColumns):
            src_ids, dst_ids = edges
        else:
            given = _pairs(edges, "edge entry")
            src_ids, dst_ids = (list(map(itemgetter(k), given)) for k in (0, 1))
        m, cols = len(src_ids), (src_ids, dst_ids)
        try:  # ids as given, sparing a str() per endpoint; as strings otherwise
            su, sv = (np.fromiter(map(rank.__getitem__, c), dtype=np.int64, count=m) for c in cols)
        except (KeyError, TypeError):
            su, sv = (np.fromiter(map(rank.get, map(str, c), repeat(-1)), dtype=np.int64, count=m) for c in cols)
        dangling = np.flatnonzero((su < 0) | (sv < 0))
        if dangling.size:
            i = dangling[0]
            raise DanglingEdge(f"edge {src_ids[i]}->{dst_ids[i]} references an undeclared neuron")
        key = np.sort(su * n + sv)
        repeated = key[1:][key[1:] == key[:-1]]
        if repeated.size:
            dupes = sorted((names[k // n], names[k % n]) for k in np.unique(repeated).tolist())
            raise DuplicateDeclaration(f"duplicate edges: {dupes}")

        # Kahn with a min-heap on ranks (the id order) gives the canonical
        # topological order; successors are read from a CSR array.  When
        # every edge runs up the id order, the heap pops the ids in order.
        order = range(n)
        if not np.all(su < sv):
            ptr = np.r_[0, np.cumsum(np.bincount(su, minlength=n))].tolist()
            succ = sv[np.argsort(su, kind="stable")].tolist()
            indeg = np.bincount(sv, minlength=n).tolist()
            ready = [r for r in range(n) if indeg[r] == 0]
            order = []
            while ready:
                r = heapq.heappop(ready)
                order.append(r)
                for s in succ[ptr[r] : ptr[r + 1]]:
                    indeg[s] -= 1
                    if indeg[s] == 0:
                        heapq.heappush(ready, s)
            if len(order) != n:
                stuck = [names[r] for r in range(n) if indeg[r] > 0]
                raise CycleDetected(f"cycle through: {stuck}")

        self.ids: tuple = tuple(map(names.__getitem__, order))
        self.pos: dict = dict(zip(self.ids, range(n)))
        self.tags: tuple = tuple(map(tag_of.__getitem__, self.ids))
        self.kinds = np.fromiter(map(_TAG_CODES.get, self.tags, repeat(KPOOL)), dtype=np.int8, count=n)
        self.pool_k = np.array([t[1] if isinstance(t, tuple) else 0 for t in self.tags], dtype=np.int64)

        pos_of_rank = np.empty(n, dtype=np.int64)
        pos_of_rank[order] = np.arange(n)
        u, v = pos_of_rank[su], pos_of_rank[sv]
        fan_in = np.bincount(v, minlength=n)
        fan_out = np.bincount(u, minlength=n)
        is_input = self.kinds == INPUT

        bad = np.flatnonzero(is_input == (fan_in > 0))
        if bad.size:
            nid = self.ids[bad[0]]
            if is_input[bad[0]]:
                raise ArchitectureError(f"input neuron {nid} has antecedents")
            raise ArchitectureError(f"neuron {nid} has no antecedents; tag it 'input'")
        bad = np.flatnonzero((fan_out == 0) & (self.kinds != IDENTITY) & ~is_input)
        if bad.size:
            raise NonIdentityOutput(f"output neuron {self.ids[bad[0]]} must have identity activation")
        pool = self.kinds == KPOOL
        bad = np.flatnonzero(pool & ((self.pool_k < 1) | (self.pool_k > fan_in)))
        if bad.size:
            j = bad[0]
            raise BadPoolArity(f"kpool({self.pool_k[j]}) at {self.ids[j]} with {fan_in[j]} antecedents")

        # Canonical coordinate order: edges grouped by destination (then
        # source), both in topological position, followed by biases.  The
        # (source, destination) pairs are unique, so a plain argsort of a
        # combined key gives it.
        canon = np.argsort(v * n + u)
        self.src, self.dst = u[canon], v[canon]
        self.in_ptr = np.r_[0, np.cumsum(fan_in)]
        self._given_coord = np.empty(m, dtype=np.int64)
        self._given_coord[canon] = np.arange(m)
        self.n_edges = m

        self.is_input = is_input
        self.input_pos = np.flatnonzero(is_input)
        self.output_pos = np.flatnonzero(fan_out == 0)
        self.non_input_pos = np.flatnonzero(~is_input)
        self.bias_coord = np.full(n, -1, dtype=np.int64)
        self.bias_coord[self.non_input_pos] = m + np.arange(self.non_input_pos.size)
        self.n_coords = m + self.non_input_pos.size

    # ---- views built on first access -----------------------------------

    @cached_property
    def coord_labels(self) -> tuple:
        return tuple(self._labels(np.arange(self.n_coords)))

    def _labels(self, coords: np.ndarray) -> list:
        """The labels of ``coords``, ascending coordinates: "u->v" for an
        edge, "bias(v)" for a bias."""
        ids, k = self.ids.__getitem__, np.searchsorted(coords, self.n_edges)
        edges = zip(*(map(ids, a[coords[:k]].tolist()) for a in (self.src, self.dst)))
        biases = map(ids, self.non_input_pos[coords[k:] - self.n_edges].tolist())
        return [*map("->".join, edges), *map("bias({})".format, biases)]

    @cached_property
    def depth(self) -> np.ndarray:
        """Edges on the longest path ending at each neuron: one sweep per level."""
        has, depth = ~self.is_input, np.zeros(self.n_neurons, dtype=np.int64)
        while self.n_edges:
            new = np.zeros_like(depth)
            new[has] = np.maximum.reduceat(depth[self.src], self.in_ptr[:-1][has]) + 1
            if np.array_equal(new, depth):
                break
            depth = new
        return depth

    @cached_property
    def levels(self) -> tuple:
        """Per depth d = 1, 2, ...: (rows, edges, starts), the level's positions in
        ascending order, their incoming edge coordinates row by row, and each row's
        first index into edges; intp, as numpy converts an int32 index per gather."""
        rows = self.non_input_pos[np.argsort(self.depth[self.non_input_pos], kind="stable")]
        fan = self.in_ptr[rows + 1] - self.in_ptr[rows]
        seg = np.r_[0, np.cumsum(fan)]  # rows[r]'s edges: edges[seg[r]:seg[r + 1]]
        edges = np.arange(seg[-1]) + np.repeat(self.in_ptr[rows] - seg[:-1], fan)
        cuts = np.r_[0, np.cumsum(np.bincount(self.depth[rows])[1:])].tolist()
        return tuple((rows[a:b], edges[seg[a] : seg[b]], seg[a:b] - seg[a]) for a, b in zip(cuts, cuts[1:]))

    @cached_property
    def _pool_bias(self) -> np.ndarray:
        """The bias coordinates of the kpool neurons, which stay pinned to 0."""
        return self.bias_coord[self.kinds == KPOOL]

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

    def __eq__(self, other):
        if not isinstance(other, Architecture):
            return NotImplemented
        same = self.ids == other.ids and self.tags == other.tags
        return same and np.array_equal(self.src, other.src) and np.array_equal(self.dst, other.dst)

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
        v = _floats(vec, "parameter vector").copy()
        if v.shape != (arch.n_coords,):
            raise DimensionMismatch(
                f"parameter vector has shape {v.shape}, expected ({arch.n_coords},)"
            )
        if not np.isfinite(v).all():
            bad = np.flatnonzero(~np.isfinite(v))
            shown = ", ".join(f"{s}={x!r}" for s, x in zip(arch._labels(bad[:5]), v[bad[:5]].tolist()))
            more = "" if bad.size <= 5 else f" (+{bad.size - 5} more)"
            raise NonFiniteValue(f"non-finite parameter(s): {shown}{more}")
        if arch._pool_bias.size:
            v[arch._pool_bias] = 0.0
        v.setflags(write=False)
        self.arch = arch
        self.vec = v

    @classmethod
    def _from_given_order(cls, arch: Architecture, weights, biases: Mapping) -> "ParamVector":
        """Weights listed in the order the edges were given to the
        architecture's constructor; biases by neuron id."""
        v = np.zeros(arch.n_coords)
        v[arch._given_coord] = weights
        for nid, val in biases.items():
            j = arch.position(nid)
            if arch.bias_coord[j] < 0:
                raise UnknownNeuron(f"input neuron {nid} has no bias")
            v[arch.bias_coord[j]] = val
        return cls(arch, v)

    def __len__(self):
        return self.vec.shape[0]

    def __repr__(self):
        return f"ParamVector({self.arch!r})"


def _check_bound(arch: Architecture | None, theta: ParamVector):
    """Raises DimensionMismatch unless ``theta`` is a ParamVector bound to
    ``arch`` (to any architecture when ``arch`` is None)."""
    if not isinstance(theta, ParamVector):
        raise DimensionMismatch(f"parameters must be a ParamVector, got {type(theta).__name__}")
    if arch is not None and theta.arch is not arch and theta.arch != arch:
        raise DimensionMismatch("parameter vector bound to a different architecture")


def _floats(values, what: str) -> np.ndarray:
    """``values`` as a float64 array by the one rule for array arguments:
    numbers, never bools (nor among numbers), strings (digit strings too),
    None or ragged nesting, else DimensionMismatch; an int past float64 NonFiniteValue."""
    try:
        a = np.asarray(values)
        # an ndarray's dtype tells; numpy reads a bool among numbers as a number and an
        # int past int64 as an object, so any other argument is checked entry by entry
        if a.dtype.kind in "iuf" and isinstance(values, np.ndarray) or a.dtype.kind in "iufO" and all(
                issubclass(k, numbers.Real) and k is not bool
                for k in set(map(type, np.asarray(values, dtype=object).flat))):
            return a.astype(np.float64, copy=False)
    except (TypeError, ValueError):
        pass
    except OverflowError:
        raise NonFiniteValue(f"{what} has an entry too large for a float") from None
    raise DimensionMismatch(f"{what} must hold real numbers")


def _finite(values, what: str) -> np.ndarray:
    """:func:`_floats` of ``values``; NonFiniteValue naming ``what`` for a NaN or infinite entry."""
    a = _floats(values, what)
    if not np.isfinite(a).all():
        raise NonFiniteValue(f"{what} holds NaN or infinite entries")
    return a


def _scalar(value, error, prefix: str, ok=None, whole: bool = False):
    """A scalar argument by the package's one rule: a real number that is no
    bool (nor a string), an int too large for a float read as the infinity it
    rounds to; with ``whole`` a whole number, returned as an int, else as a
    float.  Raises ``error(f"{prefix}, got {value!r}")`` unless it is one and
    ``ok``, when given, holds of the returned value."""
    # float and int first: they match before the ABC check, which takes about 0.7 us
    if isinstance(value, (float, int, numbers.Real)) and not isinstance(value, bool):
        try:
            v = float(value)
        except OverflowError:
            v = math.inf if value > 0 else -math.inf
        if whole:
            v = int(value) if v.is_integer() and int(value) == value else None
        if v is not None and (ok is None or ok(v)):
            return v
    raise error(f"{prefix}, got {value!r}")


def _rng(seed, what: str = "rng") -> np.random.Generator:
    """A numpy Generator from ``seed``: an integer >= 0 (by :func:`_scalar`),
    a SeedSequence, or a Generator, which comes back as it is; PathliftError
    for anything else."""
    if not isinstance(seed, (np.random.SeedSequence, np.random.Generator)):
        seed = _scalar(seed, PathliftError, f"{what} must be a seed or a numpy Generator", lambda n: n >= 0, whole=True)
    return np.random.default_rng(seed)


def _param_rows(arch: Architecture, theta) -> np.ndarray:
    """The coordinates of a ParamVector bound to ``arch``, or a checked
    (P, n_coords) stack of parameter rows."""
    if isinstance(theta, ParamVector):
        _check_bound(arch, theta)
        return theta.vec
    rows = _finite(theta, "parameter stack")
    if rows.ndim != 2 or rows.shape[1] != arch.n_coords:
        raise DimensionMismatch(f"parameters must be a ParamVector or a (P, {arch.n_coords}) stack, "
                                f"got {type(theta).__name__} of shape {rows.shape}")
    return rows


def _check_batch(arch: Architecture, x) -> np.ndarray:
    """A batch ``x`` (B, d_in), or one input (d_in,), as a finite (B, d_in) float array."""
    given = _finite(x, "input")
    x = given[None, :] if given.ndim == 1 else given
    if x.ndim != 2 or x.shape[1] != arch.d_in:
        raise DimensionMismatch(f"input must have shape ({arch.d_in},) or (B, {arch.d_in}), got {given.shape}")
    return x


def _check_input(arch: Architecture, x) -> np.ndarray:
    """One input ``x``, d_in finite entries in any shape, as a flat vector."""
    return _check_batch(arch, _floats(x, "input").reshape(-1))[0]


def _check_labels(y, rows: int, classes: int) -> np.ndarray:
    """Labels as int64, one per row, whole numbers in [0, classes); an int array is checked by range alone."""
    if not (isinstance(y, np.ndarray) and y.dtype.kind in "iu"):
        y = _finite(y, "label vector")
    y = y.reshape(-1)
    if y.size != rows:
        raise DimensionMismatch(f"need one label per row, got {y.size} for {rows} row(s)")
    if y.size and (y.min() < 0 or y.max() >= classes or y.dtype.kind == "f" and np.any(y != np.trunc(y))):
        raise DimensionMismatch(f"labels must be integers in [0, {classes})")
    return y.astype(np.int64, copy=False)


def _check_targets(arch: Architecture, target, rows: int) -> np.ndarray:
    """Squared-error targets (rows, d_out), (rows,) for one output, or one (d_out,) row, as (d_out, rows)."""
    y, shape = _finite(target, "target"), (rows, arch.d_out)
    if y.shape not in (shape, shape[1:]) and not (arch.d_out == 1 and y.shape == shape[:1]):
        raise DimensionMismatch(f"target shape {y.shape} does not fit batch {rows} x {arch.d_out} outputs")
    return np.broadcast_to(y.reshape(-1, arch.d_out), shape).T


def neuron_values(arch: Architecture, theta: ParamVector, x) -> np.ndarray:
    """Values of every neuron at input x, in topological order; raises
    NonFiniteValue when the pass overflows float64."""
    from .engine import _finite_run  # the engine compiles the architectures defined here

    _check_bound(arch, theta)
    vals = _finite_run(arch, theta.vec, _check_input(arch, x))
    return vals[:-1, 0]


def forward(arch: Architecture, theta: ParamVector, x, trace: bool = False):
    """Network output at x; with trace=True also the per-neuron values."""
    vals = neuron_values(arch, theta, x)
    out = vals[arch.output_pos].copy()
    if trace:
        return out, {nid: float(vals[arch.pos[nid]]) for nid in arch.ids}
    return out


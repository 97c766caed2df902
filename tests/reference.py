"""Reference implementations: one Python step per neuron, per edge, or per path.

These are the loops the package ran before the compiled level schedule
(``pathlift.engine``), the path table (``pathlift.paths``), the array-built
``Architecture``, the bulk network-file writer, the vectorized refined
path-metric bound, the level-wise ``normalize``/``rescale``, the stacked
activation breakpoints, the stacked second-difference scores and the
once-per-mask lockstep finetune of ``run_experiment`` replaced them.  They are kept here, deliberately plain, as the oracles that the
package is compared against, together with the central-difference check
of ``grad_scalar``.
"""

import heapq
import json
from typing import Iterable

import numpy as np

from pathlift.autodiff import grad_scalar, scalar_value
from pathlift.errors import (
    ArchitectureError,
    BadPoolArity,
    CycleDetected,
    DanglingEdge,
    DuplicateDeclaration,
    NonIdentityOutput,
)
from pathlift.graph import (
    _TAG_CODES,
    IDENTITY,
    INPUT,
    KPOOL,
    RELU,
    Architecture,
    ParamVector,
    _normalize_tag,
)
from pathlift.builders import mlp_architecture
from pathlift.experiment import _init_params, _loss_target, accuracy, epoch_seeds, make_dataset, sgd_train
from pathlift.lipschitz import Breakpoint, TelescopingReport, trajectory_point
from pathlift.metrics import path_metric_oracle, path_norm_fast
from pathlift.paths import path_activations, path_lifting
from pathlift.pruning import apply_prune, baseline_scores, path_mag_scores
from pathlift.transforms import random_rescaling, rescale
from pathlift.transforms import normalize

from conftest import replaced


def neuron_lists(arch):
    """Per neuron position, sliced from the architecture's CSR layout: the
    antecedent positions (runs of ``src`` between ``in_ptr`` entries), the
    incoming edge coordinates (the same runs of coordinates) and the
    outgoing edge coordinates (runs of the edges in source order, one per
    source)."""
    ptr = arch.in_ptr.tolist()
    out_ptr = np.r_[0, np.cumsum(np.bincount(arch.src, minlength=arch.n_neurons))].tolist()
    out_perm = np.argsort(arch.src * arch.n_neurons + arch.dst)
    ant = [arch.src[a:b] for a, b in zip(ptr, ptr[1:])]
    in_coords = [np.arange(a, b) for a, b in zip(ptr, ptr[1:])]
    out_coords = [out_perm[a:b] for a, b in zip(out_ptr, out_ptr[1:])]
    return ant, in_coords, out_coords


def reference_values(arch, theta, x, sum_pools=False):
    """Per-neuron values [n_neurons, B] and, per kpool neuron position, the
    selected antecedent slot per batch element.  With ``sum_pools`` every
    kpool neuron is the sum of its contributions and the winners are None."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    vec = theta.vec
    ant, in_coords, _ = neuron_lists(arch)
    vals = np.zeros((arch.n_neurons, x.shape[0]))
    vals[arch.input_pos] = x.T
    winners = {}
    for j in arch.non_input_pos:
        contrib = vec[in_coords[j]][:, None] * vals[ant[j]]
        kind = arch.kinds[j]
        if kind == KPOOL and sum_pools:
            vals[j] = contrib.sum(axis=0)
        elif kind == KPOOL:
            k = arch.pool_k[j]
            kth = np.partition(contrib, contrib.shape[0] - k, axis=0)[contrib.shape[0] - k]
            winners[int(j)] = np.argmax(contrib == kth[None, :], axis=0)
            vals[j] = kth
        else:
            pre = vec[arch.bias_coord[j]] + contrib.sum(axis=0)
            vals[j] = pre if kind == IDENTITY else np.maximum(pre, 0.0)
    return vals, None if sum_pools else winners


def reference_gradient(arch, theta, vals, winners, out_adjoint):
    """Adjoint sweep in reverse topological order; ``out_adjoint`` is
    [d_out, B].  Returns the gradient over the parameter coordinates.
    ``winners`` None means the pools were summed."""
    nb = vals.shape[1]
    vec = theta.vec
    adj = np.zeros((arch.n_neurons, nb))
    adj[arch.output_pos] = out_adjoint
    grad = np.zeros(arch.n_coords)
    ants, in_coords, _ = neuron_lists(arch)
    for j in arch.non_input_pos[::-1]:
        g = adj[j]
        kind = arch.kinds[j]
        ant, cin = ants[j], in_coords[j]
        w = vec[cin]
        if kind == KPOOL and winners is None:
            grad[cin] += vals[ant] @ g
            adj[ant] += w[:, None] * g[None, :]
        elif kind == KPOOL:
            sel = winners[int(j)]
            gm = (sel[None, :] == np.arange(ant.size)[:, None]) * g[None, :]
            grad[cin] += (vals[ant] * gm).sum(axis=1)
            adj[ant] += w[:, None] * gm
        else:
            if kind == RELU:
                g = g * (vals[j] > 0.0)
            grad[arch.bias_coord[j]] += g.sum()
            grad[cin] += vals[ant] @ g
            adj[ant] += w[:, None] * g[None, :]
    return grad


def grad_check(arch, theta, x, aggregate="sum_outputs", target=None, eps=1e-6):
    """Central-difference check of grad_scalar.

    Returns (autodiff gradient, finite-difference gradient, max relative
    error), the relative error being measured against the larger magnitude
    with a 1e-12 floor.  Meaningful only when no activation sits within eps
    of its kink.
    """
    _, ad = grad_scalar(arch, theta, x, aggregate, target)
    fd = np.zeros_like(ad)
    base = theta.vec
    for i in range(arch.n_coords):
        step = np.zeros_like(base)
        step[i] = eps
        up = scalar_value(arch, ParamVector(arch, base + step), x, aggregate, target)
        dn = scalar_value(arch, ParamVector(arch, base - step), x, aggregate, target)
        fd[i] = (up - dn) / (2.0 * eps)
    denom = np.maximum(np.maximum(np.abs(ad), np.abs(fd)), 1e-12)
    rel = float(np.max(np.abs(ad - fd) / denom)) if ad.size else 0.0
    return ad, fd, rel


# ---- paths: one Python step per path ----------------------------------------
#
# The recursive enumeration and the per-path loops that ``pathlift.paths`` and
# the brute-force route of ``path_mag_scores`` ran before the path table.


def reference_count_paths(arch):
    """Paths ending at output neurons: c(v) = 1 + sum of c(u) over
    antecedents, one generator step per edge."""
    ant = neuron_lists(arch)[0]
    counts = [0] * arch.n_neurons
    for j in range(arch.n_neurons):
        counts[j] = 1 + sum(counts[int(a)] for a in ant[j])
    return sum(counts[int(j)] for j in arch.output_pos)


def _ending_at(ant, j):
    yield (j,)
    for a in ant[j]:
        for p in _ending_at(ant, int(a)):
            yield p + (j,)


def reference_positions(arch):
    """Paths as tuples of topological positions, in canonical order."""
    ant = neuron_lists(arch)[0]
    return [p for j in arch.output_pos.tolist() for p in sorted(_ending_at(ant, j))]


def _edge(arch, u, v):
    """The coordinate of the edge from position u to position v: v's incoming
    edges are the coordinates in_ptr[v]:in_ptr[v + 1], their sources in src."""
    a = int(arch.in_ptr[v])
    return a + arch.src[a : arch.in_ptr[v + 1]].tolist().index(u)


def reference_lifting(arch, theta):
    """Per canonical path: the start's bias (1.0 at an input), then times
    each traversed weight in forward order."""
    vec = theta.vec
    values = []
    for p in reference_positions(arch):
        acc = 1.0 if arch.kinds[p[0]] == INPUT else vec[arch.bias_coord[p[0]]]
        for u, v in zip(p[:-1], p[1:]):
            acc *= vec[_edge(arch, u, v)]
        values.append(acc)
    return np.asarray(values, dtype=np.float64)


def reference_unit_activations(arch, theta, x):
    """(edge, start) activations at one input x, from the per-neuron values
    and pool winners: a relu neuron is active as a start, and its in-edges
    are, iff its value is > 0; a pool neuron's in-edge iff it is the winner;
    every other edge and start is active."""
    vals, winners = reference_values(arch, theta, x)
    _, in_coords, _ = neuron_lists(arch)
    edge = np.ones(arch.n_edges, dtype=bool)
    start = np.ones(arch.n_neurons, dtype=bool)
    for j in arch.non_input_pos:
        if arch.kinds[j] == RELU:
            start[j] = edge[in_coords[j]] = vals[j, 0] > 0.0
        elif arch.kinds[j] == KPOOL:
            edge[in_coords[j]] = np.arange(in_coords[j].size) == winners[int(j)][0]
    return edge, start


def reference_activations(arch, theta, x):
    """Per canonical path: its start's activation times each edge's."""
    edge_act, start_act = reference_unit_activations(arch, theta, x)
    acts = []
    for p in reference_positions(arch):
        a = start_act[p[0]]
        for u, v in zip(p[:-1], p[1:]):
            if a == 0.0:
                break
            a *= edge_act[_edge(arch, u, v)]
        acts.append(a)
    return np.asarray(acts, dtype=np.float64)


def reference_linearized(arch, theta, x):
    """Per output neuron, the sum over paths ending there of lifting *
    activation * (starting input coordinate, or 1)."""
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    xval = {int(j): x[c] for c, j in enumerate(arch.input_pos)}
    out_col = {int(j): c for c, j in enumerate(arch.output_pos)}
    phis = reference_lifting(arch, theta)
    acts = reference_activations(arch, theta, x)
    out = np.zeros(arch.d_out)
    for p, phi, act in zip(reference_positions(arch), phis, acts):
        out[out_col[p[-1]]] += phi * act * xval.get(p[0], 1.0)
    return out


def reference_bruteforce_scores(arch, theta):
    """Per coordinate, the sum of |phi_p| over the paths through it."""
    values = np.zeros(arch.n_coords)
    for p, phi in zip(reference_positions(arch), reference_lifting(arch, theta)):
        mag = abs(phi)
        if mag == 0.0:
            continue
        if arch.bias_coord[p[0]] >= 0:
            values[arch.bias_coord[p[0]]] += mag
        for u, v in zip(p[:-1], p[1:]):
            values[_edge(arch, u, v)] += mag
    return values


# ---- architecture: one Python step per neuron and per edge -------------------


class ReferenceArchitecture(Architecture):
    """The constructor as dicts of neighbour lists, one edge at a time."""

    def __init__(self, neurons: Iterable, edges: Iterable):
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
        coord = {e: i for i, e in enumerate(canon_edges)}

        self.is_input = self.kinds == INPUT
        self.input_pos = np.flatnonzero(self.is_input)
        self.output_pos = np.flatnonzero(
            np.array([len(sucs[nid]) == 0 for nid in order], dtype=bool)
        )

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
        self.out_coords = []
        for nid in order:
            aj = sorted((self.pos[u] for u in ants[nid]))
            self.ant.append(np.asarray(aj, dtype=np.int64))
            self.in_coords.append(
                np.asarray([coord[(self.ids[a], nid)] for a in aj], dtype=np.int64)
            )
            sj = sorted((self.pos[v] for v in sucs[nid]))
            self.out_coords.append(
                np.asarray([coord[(nid, self.ids[s])] for s in sj], dtype=np.int64)
            )

        # the CSR layout, one edge at a time
        self.src = np.array([self.pos[u] for u, _ in canon_edges], dtype=np.int64)
        self.dst = np.array([self.pos[v] for _, v in canon_edges], dtype=np.int64)
        self.in_ptr = np.cumsum([0] + [len(ants[nid]) for nid in order], dtype=np.int64)
        self.depth = np.zeros(n, dtype=np.int64)
        for j, nid in enumerate(order):
            if ants[nid]:
                self.depth[j] = 1 + max(self.depth[self.pos[u]] for u in ants[nid])

        labels = [f"{u}->{v}" for u, v in canon_edges]
        labels += [f"bias({self.ids[j]})" for j in range(n) if self.bias_coord[j] >= 0]
        self.coord_labels: tuple = tuple(labels)
        self.non_input_pos = np.flatnonzero(~self.is_input)


# ---- a residual conv net: padded, periodic convolution levels ---------------


def residual_conv_architecture(side=4, channels=3, blocks=2, d_out=3):
    """A small residual conv net on a ``side`` x ``side`` grid of inputs: a
    same-padded 3x3 relu stem convolution to ``channels`` channels, then
    ``blocks`` residual blocks, a global average pool and a dense head.

    A block is a relu convolution, a frozen batch-norm, an identity
    convolution, a second frozen batch-norm, and a relu "add" neuron per
    cell reading that batch-norm and the block's input (the skip).  A
    convolution reads every channel of the layer below over the 3x3 window
    clipped at the border, so border rows have fewer antecedents (padded
    slots).  A frozen batch-norm is one identity neuron per conv output,
    its edge the scale and its bias the shift.  The pool is one identity
    neuron per channel reading all its cells (weights 1/side**2 make it an
    average).  Ids sort by layer, channel, row and column, so every layer
    is one depth level, channel-major, and each convolution level repeats
    its source rows with period side**2."""
    cells = [(r, c) for r in range(side) for c in range(side)]

    def cell(layer, f, r, c):
        return f"L{layer:02d}f{f:02d}r{r:02d}c{c:02d}"

    neurons = [(cell(0, 0, r, c), "input") for r, c in cells]
    edges = []
    layers = [0]

    def add_layer(tag, sources):
        """A layer of ``channels`` x side x side neurons; ``sources(f, r, c)``
        gives each one's antecedents."""
        layer = len(layers)
        layers.append(layer)
        for f in range(channels):
            for r, c in cells:
                v = cell(layer, f, r, c)
                neurons.append((v, tag))
                edges.extend((u, v) for u in sources(f, r, c))
        return layer

    def conv(below, width, tag):
        def window(f, r, c):
            return [cell(below, g, r + dr, c + dc) for g in range(width)
                    for dr in (-1, 0, 1) for dc in (-1, 0, 1)
                    if 0 <= r + dr < side and 0 <= c + dc < side]
        return add_layer(tag, window)

    def batch_norm(below):
        return add_layer("identity", lambda f, r, c: [cell(below, f, r, c)])

    top = conv(0, 1, "relu")
    for _ in range(blocks):
        skip = top
        norm = batch_norm(conv(batch_norm(conv(skip, channels, "relu")), channels, "identity"))
        top = add_layer("relu", lambda f, r, c: [cell(norm, f, r, c), cell(skip, f, r, c)])
    pool = [f"L{len(layers):02d}f{f:02d}" for f in range(channels)]
    for f, p in enumerate(pool):
        neurons.append((p, "identity"))
        edges.extend((cell(top, f, r, c), p) for r, c in cells)
    for o in range(d_out):
        neurons.append((f"Z{o:02d}", "identity"))
        edges.extend((p, f"Z{o:02d}") for p in pool)
    return Architecture(neurons, edges)


# ---- network file: the json module's writer ---------------------------------


def reference_save(fh, arch, theta):
    """The network file as ``json.dump`` writes it, plus a final newline."""
    doc = {
        "neurons": [
            {"id": nid, "activation": {"kpool": tag[1]} if isinstance(tag, tuple) else tag}
            for nid, tag in zip(arch.ids, arch.tags)
        ],
        "edges": [
            {"src": arch.ids[u], "dst": arch.ids[v], "weight": float(theta.vec[i])}
            for i, (u, v) in enumerate(zip(arch.src.tolist(), arch.dst.tolist()))
        ],
        "biases": {
            arch.ids[j]: float(theta.vec[arch.bias_coord[j]])
            for j in range(arch.n_neurons)
            if arch.bias_coord[j] >= 0
        },
    }
    json.dump(doc, fh, indent=1)
    fh.write("\n")


# ---- refined path-metric bound: one Python step per neuron -------------------


def reference_refined_parts(arch, d):
    """Per-coordinate discrepancies ``d`` -> (sum of the output neurons'
    discrepancies, largest interior discrepancy sum over any path)."""
    ant, in_coords, _ = neuron_lists(arch)
    delta = np.zeros(arch.n_neurons)
    for j in arch.non_input_pos:
        delta[j] = d[arch.bias_coord[j]] + d[in_coords[j]].sum()
    best = np.zeros(arch.n_neurons)
    for j in range(arch.n_neurons):
        if ant[j].size:
            best[j] = delta[j] + max(best[int(a)] for a in ant[j])
    interior_max = 0.0
    out_sum = 0.0
    for j in arch.output_pos:
        if arch.kinds[j] == INPUT:
            continue
        out_sum += delta[j]
        for a in ant[j]:
            interior_max = max(interior_max, best[int(a)])
    return out_sum, interior_max


def reference_upper_refined(arch, t1, t2):
    """``path_metric_upper(..., refined=True)`` with the per-neuron loops."""
    n1 = normalize(arch, t1, include_kpool=True)
    n2 = normalize(arch, t2, include_kpool=True)
    min_norm = min(path_norm_fast(arch, t1), path_norm_fast(arch, t2))
    out_sum, interior_max = reference_refined_parts(arch, np.abs(n1.vec - n2.vec))
    return float(out_sum + min_norm * interior_max)


# ---- rescaling and normalization: one Python step per edge or per neuron -----


def reference_rescale(arch, theta, factors):
    """``rescale`` edge by edge, then bias by bias (no eligibility checks)."""
    lam = np.ones(arch.n_neurons)
    for nid, f in factors.items():
        lam[arch.position(nid)] = float(f)
    v = theta.vec.copy()
    for i, (u, w) in enumerate(zip(arch.src.tolist(), arch.dst.tolist())):
        v[i] *= lam[w] / lam[u]
    for j in range(arch.n_neurons):
        if arch.bias_coord[j] >= 0:
            v[arch.bias_coord[j]] *= lam[j]
    return ParamVector(arch, v)


def reference_normalize(arch, theta, include_kpool=False):
    """``normalize`` neuron by neuron in topological order: divide the
    incoming weights and bias by their l1 norm (when nonzero) and multiply
    the outgoing weights by it, which zeroes those of a dead neuron (norm 0)."""
    _, in_coords, out_coords = neuron_lists(arch)
    outputs = set(arch.output_pos.tolist())
    v = theta.vec.copy()
    for j in range(arch.n_neurons):
        if arch.kinds[j] == INPUT or j in outputs or (arch.kinds[j] == KPOOL and not include_kpool):
            continue
        cin = in_coords[j]
        b = arch.bias_coord[j]
        lam = np.abs(v[cin]).sum() + abs(v[b])
        if lam > 0.0:
            v[cin] /= lam
            v[b] /= lam
        v[out_coords[j]] *= lam
    return ParamVector(arch, v)


# ---- the proof trajectory: one engine pass per t ----------------------------


def reference_activation_breakpoints(arch, t1, t2, x, samples=100, width=1e-10):
    """``activation_breakpoints`` one trajectory point at a time: every
    sample, then each disagreeing interval bisected alone, down to the
    width or until a midpoint rounds onto an end."""

    def acts(t):
        return path_activations(arch, trajectory_point(t1, t2, t), x)

    ts = np.linspace(0.0, 1.0, samples + 1)
    sampled = [acts(t) for t in ts]
    found = []
    for i in range(samples):
        if np.array_equal(sampled[i], sampled[i + 1]):
            continue
        lo, hi = float(ts[i]), float(ts[i + 1])
        a_lo, a_hi = sampled[i], sampled[i + 1]
        while hi - lo > width:
            mid = 0.5 * (lo + hi)
            am = acts(mid)
            rounded = mid in (lo, hi)
            if np.array_equal(am, a_lo):
                lo = mid
            else:
                hi, a_hi = mid, am
            if rounded:  # the interval cannot shrink below the float spacing
                break
        changed = tuple(int(k) for k in np.flatnonzero(a_lo != a_hi))
        found.append(Breakpoint(t=0.5 * (lo + hi), changed_paths=changed))

    boundaries = (0.0,) + tuple(bp.t for bp in found) + (1.0,)
    liftings = [path_lifting(arch, trajectory_point(t1, t2, t)).values for t in boundaries]
    seg = sum(float(np.abs(b - a).sum()) for a, b in zip(liftings[:-1], liftings[1:]))
    endpoint = path_metric_oracle(arch, t1, t2)
    denom = max(abs(seg), abs(endpoint), 1e-300)
    report = TelescopingReport(
        boundaries=boundaries,
        segment_sum=seg,
        endpoint_metric=endpoint,
        rel_err=abs(seg - endpoint) / denom,
    )
    return found, report


# ---- pruning scores: one path norm per coordinate ----------------------------


def reference_pathnorm_diff_scores(arch, theta):
    """Per coordinate, the l1 path norm lost by zeroing it: one path norm
    per nonzero coordinate."""
    base = path_norm_fast(arch, theta)
    values = np.zeros(arch.n_coords)
    for i in range(arch.n_coords):
        if theta.vec[i] != 0.0:
            values[i] = base - path_norm_fast(arch, replaced(theta, {i: 0.0}))
    return values


def reference_obd_fd_scores(arch, theta, data, loss="squared_error", eps=1e-4):
    """Second-order saliency 0.5 * h_ii * theta_i^2 by central second
    differences: two loss evaluations of one perturbed vector each per
    coordinate."""
    x, y = np.asarray(data[0], dtype=np.float64), data[1]
    base = scalar_value(arch, theta, x, aggregate=loss, target=y)
    values = np.zeros(arch.n_coords)
    vec = theta.vec
    for i in range(arch.n_coords):
        step = np.zeros_like(vec)
        step[i] = eps
        up = scalar_value(arch, ParamVector(arch, vec + step), x, aggregate=loss, target=y)
        dn = scalar_value(arch, ParamVector(arch, vec - step), x, aggregate=loss, target=y)
        h = (up - 2.0 * base + dn) / (eps * eps)
        values[i] = 0.5 * h * vec[i] * vec[i]
    return values


def reference_experiment(cfg):
    """``run_experiment``'s pipeline with every arm finetuned alone, one
    ``sgd_train`` call per arm: (dense test accuracy, one (criterion,
    rescaled, mask, test accuracy) per arm in report order, the mask
    Hamming distance per criterion)."""
    cfg = cfg.validated()
    roots = np.random.SeedSequence(cfg.seed).spawn(4)
    xtr, ytr, xte, yte = make_dataset(cfg, np.random.default_rng(roots[0]))
    arch = mlp_architecture(cfg.widths)
    theta0 = _init_params(arch, np.random.default_rng(roots[1]))
    seeds = epoch_seeds(roots[2], cfg.epochs)
    rescale_rng = np.random.default_rng(roots[3])
    factors = random_rescaling(arch, rescale_rng, preset=cfg.rescale_preset)
    while all(f == 1.0 for f in factors.values()):
        factors = random_rescaling(arch, rescale_rng, preset=cfg.rescale_preset)
    trained, rewound = sgd_train(arch, theta0, xtr, ytr, seeds, cfg.lr, cfg.batch_size,
                                 loss=cfg.loss, snapshot_epoch=cfg.rewind_epoch)
    obd_batch = (xtr[:256], _loss_target(ytr[:256], cfg.loss, arch.d_out))
    arms = []
    for crit in cfg.criteria:
        for rescaled in (False, True):
            base = rescale(arch, trained, factors) if rescaled else trained
            if crit == "pathmag":
                scores = path_mag_scores(arch, base)
            elif crit == "magnitude":
                scores = baseline_scores(arch, base, "magnitude")
            else:
                scores = baseline_scores(arch, base, "obd_fd", data=obd_batch, loss=cfg.loss)
            _, mask = apply_prune(base, scores, fraction=cfg.prune_fraction, edges_only=not cfg.prune_biases)
            final, _ = sgd_train(arch, mask.apply(rewound), xtr, ytr, seeds[cfg.rewind_epoch :],
                                 cfg.lr, cfg.batch_size, loss=cfg.loss, mask=mask)
            arms.append((crit, rescaled, mask, accuracy(arch, final, xte, yte)))
    hamming = {crit: arms[2 * k][2].hamming(arms[2 * k + 1][2]) for k, crit in enumerate(cfg.criteria)}
    return accuracy(arch, trained, xte, yte), arms, hamming

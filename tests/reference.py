"""Reference implementations: one Python step per neuron, or per path.

These are the loops the package ran before the compiled level schedule
(``pathlift.engine``) and the path table (``pathlift.paths``) replaced
them.  They are kept here, deliberately plain, as the oracles that the
engine and the path table are compared against.
"""

import numpy as np

from pathlift.engine import activations
from pathlift.graph import IDENTITY, INPUT, KPOOL, RELU


def reference_values(arch, theta, x):
    """Per-neuron values [n_neurons, B] and, per kpool neuron position, the
    selected antecedent slot per batch element."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    vec = theta.vec
    vals = np.zeros((arch.n_neurons, x.shape[0]))
    vals[arch.input_pos] = x.T
    winners = {}
    for j in arch.non_input_pos:
        contrib = vec[arch.in_coords[j]][:, None] * vals[arch.ant[j]]
        kind = arch.kinds[j]
        if kind == KPOOL:
            k = arch.pool_k[j]
            kth = np.partition(contrib, contrib.shape[0] - k, axis=0)[contrib.shape[0] - k]
            winners[int(j)] = np.argmax(contrib == kth[None, :], axis=0)
            vals[j] = kth
        else:
            pre = vec[arch.bias_coord[j]] + contrib.sum(axis=0)
            vals[j] = pre if kind == IDENTITY else np.maximum(pre, 0.0)
    return vals, winners


def reference_gradient(arch, theta, vals, winners, out_adjoint):
    """Adjoint sweep in reverse topological order; ``out_adjoint`` is
    [d_out, B].  Returns the gradient over the parameter coordinates."""
    nb = vals.shape[1]
    vec = theta.vec
    adj = np.zeros((arch.n_neurons, nb))
    adj[arch.output_pos] = out_adjoint
    grad = np.zeros(arch.n_coords)
    for j in arch.non_input_pos[::-1]:
        g = adj[j]
        kind = arch.kinds[j]
        ant = arch.ant[j]
        w = vec[arch.in_coords[j]]
        if kind == KPOOL:
            sel = winners[int(j)]
            gm = (sel[None, :] == np.arange(ant.size)[:, None]) * g[None, :]
            grad[arch.in_coords[j]] += (vals[ant] * gm).sum(axis=1)
            adj[ant] += w[:, None] * gm
        else:
            if kind == RELU:
                g = g * (vals[j] > 0.0)
            grad[arch.bias_coord[j]] += g.sum()
            grad[arch.in_coords[j]] += vals[ant] @ g
            adj[ant] += w[:, None] * g[None, :]
    return grad


# ---- paths: one Python step per path ----------------------------------------
#
# The recursive enumeration and the per-path loops that ``pathlift.paths`` and
# the brute-force route of ``path_mag_scores`` ran before the path table.


def _ending_at(arch, j):
    yield (j,)
    for a in arch.ant[j]:
        for p in _ending_at(arch, int(a)):
            yield p + (j,)


def reference_positions(arch, end=None):
    """Paths as tuples of topological positions, in canonical order."""
    ends = [int(j) for j in arch.output_pos] if end is None else [arch.position(end)]
    return [p for j in ends for p in sorted(_ending_at(arch, j))]


def _edge(arch, u, v):
    return arch.edge_index[(arch.ids[u], arch.ids[v])]


def reference_lifting(arch, theta, end=None):
    """Per canonical path: the start's bias (1.0 at an input), then times
    each traversed weight in forward order."""
    vec = theta.vec
    values = []
    for p in reference_positions(arch, end):
        acc = 1.0 if arch.kinds[p[0]] == INPUT else vec[arch.bias_coord[p[0]]]
        for u, v in zip(p[:-1], p[1:]):
            acc *= vec[_edge(arch, u, v)]
        values.append(acc)
    return np.asarray(values, dtype=np.float64)


def reference_activations(arch, theta, x, end=None):
    """Per canonical path: its start's activation times each edge's."""
    edge_act, start_act = activations(arch, theta, x)
    acts = []
    for p in reference_positions(arch, end):
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

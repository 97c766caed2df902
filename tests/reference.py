"""Reference forward and backward passes: one Python step per neuron.

This is the per-neuron loop the package ran before the compiled level
schedule (``pathlift.engine``) replaced it.  It is kept here, deliberately
plain, as the oracle that the engine is compared against.
"""

import numpy as np

from pathlift.graph import IDENTITY, KPOOL, RELU


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

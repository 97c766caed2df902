"""Neuron rescaling symmetries and the normalization map.

Rescaling a hidden neuron by lambda > 0 multiplies its incoming weights and
bias by lambda and divides its outgoing weights by lambda.  The network
function, the path lifting and the path activations are all invariant under
any such rescaling, which is what makes path quantities better-behaved than
raw parameter norms.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from .errors import IneligibleNeuron, NonPositiveFactor, ParseError
from .graph import KPOOL, Architecture, ParamVector, _check_bound


def hidden_positions(arch: Architecture, include_kpool: bool = True) -> np.ndarray:
    """Topological positions of rescalable neurons (non-input, non-output)."""
    keep = ~arch.is_input & (include_kpool | (arch.kinds != KPOOL))
    keep[arch.output_pos] = False
    return np.flatnonzero(keep)


def rescale(arch: Architecture, theta: ParamVector, factors: Mapping) -> ParamVector:
    """Apply the rescaling with the given per-neuron factors.

    ``factors`` maps hidden neuron ids to strictly positive reals; neurons
    not mentioned keep factor 1.  Inputs and outputs cannot be rescaled.
    """
    _check_bound(arch, theta)
    out = set(arch.output_pos.tolist())
    lam = np.ones(arch.n_neurons)
    for nid, f in factors.items():
        j = arch.position(nid)
        if arch.is_input[j] or j in out:
            raise IneligibleNeuron(f"{nid} is an input or output neuron")
        f = float(f)
        if not (f > 0.0) or not math.isfinite(f):
            raise NonPositiveFactor(f"factor for {nid} must be finite and > 0, got {f}")
        lam[j] = f
    v = theta.vec.copy()
    m = arch.n_edges
    v[:m] *= lam[arch.dst] / lam[arch.src]
    v[m:] *= lam[arch.non_input_pos]
    return ParamVector(arch, v)


POW2_FACTORS = (1.0, 128.0, 4096.0)


def random_rescaling(arch: Architecture, seed, preset: str = "pow2_factors") -> dict:
    """Draw one rescaling factor per hidden neuron, in topological order.

    Presets:

    * ``"pow2_factors"``  -- uniform over {1, 128, 4096}.  All three are
      powers of two, so applying them is exact in binary floating point.
    * ``"log_uniform:L"``  -- log of the factor uniform on [-ln L, ln L].
    """
    rng = np.random.default_rng(seed)
    pos = hidden_positions(arch, include_kpool=True)
    if preset == "pow2_factors":
        draws = rng.choice(np.asarray(POW2_FACTORS), size=len(pos))
    elif preset.startswith("log_uniform:"):
        try:
            lmax = float(preset.split(":", 1)[1])
        except ValueError:
            raise ParseError(f"bad preset {preset!r}") from None
        if not lmax > 1.0:
            raise NonPositiveFactor(f"log_uniform bound must exceed 1, got {lmax}")
        draws = np.exp(rng.uniform(-math.log(lmax), math.log(lmax), size=len(pos)))
    else:
        raise ParseError(f"unknown rescaling preset {preset!r}")
    return {arch.ids[j]: float(f) for j, f in zip(pos, draws)}


def normalize(arch: Architecture, theta: ParamVector, include_kpool: bool = False) -> ParamVector:
    """Pick the canonical representative of theta's rescaling orbit.

    Sweeps hidden neurons in topological order, dividing each one's incoming
    weights and bias by their l1 norm lambda (when nonzero) and multiplying
    its outgoing weights by it.  Neurons of one depth level never feed each
    other, so each level's lambdas are one segment sum; every weight is then
    multiplied by its source's lambda and divided by its destination's.
    Afterwards every visited neuron has incoming l1 norm 0 or 1, the path
    lifting is unchanged, and running the map again is a no-op.

    kpool neurons are skipped by default so that pooling windows keep their
    native scale; pass include_kpool=True to normalize them as well (pooling
    commutes with positive scaling, so this is equally sound).
    """
    _check_bound(arch, theta)
    v = theta.vec.copy()
    src, lam = arch.src, np.ones(arch.n_neurons)
    rows = hidden_positions(arch, include_kpool=include_kpool)
    rows = rows[np.argsort(arch.depth[rows], kind="stable")]  # level by level
    fan = arch.in_ptr[rows + 1] - arch.in_ptr[rows]
    seg = np.r_[0, np.cumsum(fan)]  # rows[r]'s incoming edges: edges[seg[r]:seg[r + 1]]
    edges = np.arange(seg[-1]) + np.repeat(arch.in_ptr[rows] - seg[:-1], fan)
    cuts = np.flatnonzero(np.diff(arch.depth[rows], prepend=-1, append=-1)).tolist()
    for a, b in zip(cuts, cuts[1:]):  # one depth level: rows[a:b]
        e, r = edges[seg[a] : seg[b]], rows[a:b]
        norm = np.add.reduceat(np.abs(v[e] * lam[src[e]]), seg[a:b] - seg[a])
        norm += np.abs(v[arch.bias_coord[r]])
        lam[r] = np.where(norm > 0.0, norm, 1.0)
    v[: arch.n_edges] = v[: arch.n_edges] * lam[src] / lam[arch.dst]
    v[arch.bias_coord[rows]] /= lam[rows]
    return ParamVector(arch, v)

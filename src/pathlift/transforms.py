"""Neuron rescaling symmetries and the normalization map.

Rescaling a hidden neuron by lambda > 0 multiplies its incoming weights and
bias by lambda and divides its outgoing weights by lambda.  The network
function, the path lifting and the path activations are all invariant under
any such rescaling, which is what makes path quantities better-behaved than
raw parameter norms.
"""

from __future__ import annotations

import math
import numbers
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
        if not (isinstance(f, numbers.Real) and f > 0.0 and math.isfinite(f)):
            raise NonPositiveFactor(f"factor for {nid} must be finite and > 0, got {f!r}")
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
    if not isinstance(preset, str):
        raise ParseError(f"rescaling preset must be a string, got {preset!r}")
    rng = np.random.default_rng(seed)
    pos = hidden_positions(arch, include_kpool=True)
    if preset == "pow2_factors":
        draws = rng.choice(np.asarray(POW2_FACTORS), size=len(pos))
    elif preset.startswith("log_uniform:"):
        try:
            lmax = float(preset.split(":", 1)[1])
        except ValueError:
            raise ParseError(f"bad preset {preset!r}") from None
        if not 1.0 < lmax < math.inf:
            raise NonPositiveFactor(f"log_uniform bound must be finite and exceed 1, got {lmax}")
        draws = np.exp(rng.uniform(-math.log(lmax), math.log(lmax), size=len(pos)))
    else:
        raise ParseError(f"unknown rescaling preset {preset!r}")
    return {arch.ids[j]: float(f) for j, f in zip(pos, draws)}


def normalize(arch: Architecture, theta: ParamVector, include_kpool: bool = False) -> ParamVector:
    """Pick the canonical representative of theta's rescaling orbit.

    Sweeps hidden neurons in topological order, dividing each one's incoming
    weights and bias by their l1 norm lambda and multiplying its outgoing
    weights by it.  Neurons of one level of ``arch.levels`` never feed each
    other, so each level's lambdas are one segment sum; every weight is then
    multiplied by its source's lambda and divided by its destination's.
    A visited neuron whose incoming l1 norm (bias included) is 0 is dead: it
    outputs 0 at every input and lies only on paths that lift to 0.  It gets
    lambda 0, so its outgoing weights, and what is left of its incoming
    weights and bias, come out zero.  Afterwards every visited neuron has
    incoming l1 norm 0 or 1, the path lifting and the network function are
    unchanged, running the map again is a no-op, and rescaled copies of
    theta map to the same vector.

    kpool neurons are skipped by default so that pooling windows keep their
    native scale; pass include_kpool=True to normalize them as well (pooling
    commutes with positive scaling, so this is equally sound).
    """
    _check_bound(arch, theta)
    v = theta.vec.copy()
    src, lam = arch.src, np.ones(arch.n_neurons)
    visit = np.isin(np.arange(arch.n_neurons), hidden_positions(arch, include_kpool=include_kpool))
    bias = np.abs(np.r_[v, 0.0][arch.bias_coord])  # inputs read the appended 0.0
    for r, e, starts in arch.levels:  # unvisited neurons keep lambda 1
        norm = np.add.reduceat(np.abs(v[e] * lam[src[e]]), starts)
        norm += bias[r]
        lam[r] = np.where(visit[r], norm, 1.0)
    div = np.where(lam > 0.0, lam, np.inf)  # dividing by inf zeroes what is left on a dead neuron
    v[: arch.n_edges] = v[: arch.n_edges] * lam[src] / div[arch.dst]
    v[arch.n_edges :] /= div[arch.non_input_pos]
    return ParamVector(arch, v)

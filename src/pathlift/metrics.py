"""Path norms and the l1 path metric without enumeration.

The q-th power of the lq path norm is computed by a single forward pass
on the architecture's own compiled schedule with every kpool neuron summing
its antecedents (``engine.run(..., sum_pools=True)``), every weight and
bias replaced by its absolute value raised to q, and the all-ones input fed
through.  The path metric is the l1 distance between two path liftings,
the metric in which the Lipschitz bound and the pruning guarantee are
stated; ``q`` applies to the path norm only.  The same pass drives its
estimates:

* lower bound   -- |difference of the two l1 path norms|, always valid;
* exact value   -- when one parameter vector dominates the other
  coordinatewise with matching signs (e.g. a parameter vector and its
  pruned copy), the metric is a sum of nonnegative terms: the coordinate
  gaps weighted by one adjoint sweep on the tape of the larger vector, so
  no two path norms are subtracted (when only the liftings dominate, their
  gaps are summed);
* upper bounds  -- closed-form bounds on normalized parameters, either the
  coarse width/depth formula or a refined per-neuron version whose path
  maximum is computed by a longest-path dynamic program (no enumeration).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .engine import _BLOCK_ELEMS, Tape, gradient, run
from .errors import DominanceUnverified, NonFiniteValue, PathExplosion, PathliftError, RaggedLayers
from .graph import Architecture, ParamVector, _check_bound
from .paths import max_path_length, path_lifting
from .transforms import hidden_positions, normalize


def _sum_pool_tape(arch: Architecture, theta: ParamVector, q: float = 1.0):
    """(|theta|**q, the q-th power of the lq path norm, the :class:`Tape`
    of the sum-pool pass of |theta|**q on the all-ones input, whose output
    rows sum to that norm).  Raises :class:`NonFiniteValue` naming ``q``
    when the norm overflows."""
    if not (isinstance(q, numbers.Real) and np.isfinite(q) and q > 0):
        raise PathliftError(f"q must be finite and > 0, got {q!r}")
    _check_bound(arch, theta)
    with np.errstate(over="ignore", invalid="ignore"):
        w = np.abs(theta.vec) ** q
        if np.isfinite(w).all():
            tape = Tape(arch, 1)
            vals, _ = run(arch, w, np.ones(arch.d_in), sum_pools=True, tape=tape)
            norm = float(vals[arch.output_pos].sum())
            if np.isfinite(norm):
                return w, norm, tape
    raise NonFiniteValue(f"the path norm at q={q!r} overflows float64")


def _sum_pool_sweep(arch: Architecture, weights: np.ndarray, tape: Tape) -> np.ndarray:
    """Adjoint sweep of the summed outputs of the sum-pool pass on ``tape``
    with the parameters ``weights``; the gradient lives in ``tape``."""
    return gradient(arch, weights, tape.vals, None, np.ones((arch.d_out, 1)), tape=tape)


def path_norm_fast(arch: Architecture, theta: ParamVector, q: float = 1.0) -> float:
    """Sum of |phi_p|**q over all paths, in one forward pass."""
    return _sum_pool_tape(arch, theta, q)[1]


def _pathnorm_diffs(arch: Architecture, theta: ParamVector) -> np.ndarray:
    """Per nonzero coordinate i, the l1 path norm minus the l1 path norm
    with i zeroed: one stacked sum-pool pass per chunk of coordinates, each
    row |theta| with one coordinate zeroed (bit for bit its own pass), a
    chunk holding about as many entries as one gathered block of the engine."""
    w, base, _ = _sum_pool_tape(arch, theta)
    values = np.zeros(arch.n_coords)
    nonzero = np.flatnonzero(theta.vec)
    step = max(1, _BLOCK_ELEMS // max(arch.n_coords, 1))
    for lo in range(0, nonzero.size, step):
        coords = nonzero[lo : lo + step]
        stack = np.repeat(w[None, :], coords.size, axis=0)
        stack[np.arange(coords.size), coords] = 0.0
        vals, _ = run(arch, stack, np.ones(arch.d_in), sum_pools=True)
        values[coords] = base - vals[:, arch.output_pos].sum(axis=(1, 2))
    return values


def path_metric_oracle(arch: Architecture, t1: ParamVector, t2: ParamVector) -> float:
    """l1 distance between the two path liftings, by enumeration."""
    p1 = path_lifting(arch, t1).values
    p2 = path_lifting(arch, t2).values
    return float(np.sum(np.abs(p1 - p2)))


def path_metric_lower(arch: Architecture, t1: ParamVector, t2: ParamVector) -> float:
    """|norm difference| lower bound on the path metric; two forward passes."""
    return abs(path_norm_fast(arch, t1) - path_norm_fast(arch, t2))


def _dominating(t1: ParamVector, t2: ParamVector, v1, v2):
    """(larger, smaller) of t1 and t2 when |v1| >= |v2| or |v2| >= |v1|
    coordinatewise with v1_i * v2_i >= 0 everywhere; None otherwise."""
    if np.any(np.sign(v1) * np.sign(v2) < 0):
        return None
    if np.all(np.abs(v1) >= np.abs(v2)):
        return t1, t2
    if np.all(np.abs(v2) >= np.abs(v1)):
        return t2, t1
    return None


def path_metric_exact_dominated(arch: Architecture, t1: ParamVector, t2: ParamVector) -> float:
    """Exact l1 path metric when one lifting dominates the other.

    When every path keeps its sign and one side's magnitude dominates, each
    path's gap is the difference of its magnitudes.  That is certified by
    |theta| >= |theta'| with matching signs coordinatewise (which forces it
    path by path), and the gaps are then summed without enumeration; or, at
    enumeration scale, by the same test on the two liftings, whose gaps are
    then summed directly (the value equals ``path_metric_oracle``).  Raises
    DominanceUnverified when neither direction can be certified.  No route
    subtracts two path norms.
    """
    pair = _dominating(t1, t2, t1.vec, t2.vec)
    if pair is not None:
        return _dominated_gap(arch, *pair)
    try:
        p1 = path_lifting(arch, t1).values
        p2 = path_lifting(arch, t2).values
    except PathExplosion as exc:
        raise DominanceUnverified("neither parameter vector dominates with matching signs "
                                  "and the liftings are too large to compare") from exc
    if _dominating(t1, t2, p1, p2) is None:
        raise DominanceUnverified("neither path lifting dominates the other with matching signs")
    return float(np.sum(np.abs(p1 - p2)))


def _dominated_gap(arch: Architecture, big: ParamVector, small: ParamVector) -> float:
    """Sum over paths of |phi_p(big)| - |phi_p(small)|, telescoped into
    sum_i (|big_i| - |small_i|) * G_i >= 0: G is the gradient of the sum-pool
    pass of |small| on the tape of |big| (the |big| products before i times
    the |small| ones after).  The tape is 0 at a relu neuron only where every
    |big| product reaching it is, so its masks drop no nonzero term."""
    w, _, tape = _sum_pool_tape(arch, big)
    b = np.abs(small.vec)
    return float((w - b) @ _sum_pool_sweep(arch, b, tape))


def _coarse_width(arch: Architecture) -> int:
    """The width W of the coarse bound: the number of outputs and the largest
    fan-in, raised until W counts every neuron's coordinates (incoming edges
    plus bias): W >= those of each hidden neuron, and W**2 >= those of all
    output neurons together."""
    fan = np.diff(arch.in_ptr)
    coords = fan + 1  # read only at non-input neurons, which all have a bias
    out = int(coords[arch.output_pos].sum())
    hidden = int(coords[hidden_positions(arch)].max(initial=0))
    return max(arch.d_out, int(fan.max(initial=0)), hidden, math.isqrt(out - 1) + 1 if out else 0)


def path_metric_upper(
    arch: Architecture, t1: ParamVector, t2: ParamVector, refined: bool = False
) -> float:
    """Closed-form upper bound on the l1 path metric.

    Both parameter vectors are first normalized (kpool neurons included, so
    every hidden neuron ends with incoming l1 norm at most 1; that is the
    regime in which the bounds hold).  The coarse bound is

        (W**2 + min_path_norm * L * W) * sup_distance

    with L one less than the maximum path length, min_path_norm the smaller
    of the two l1 path norms, sup_distance the max coordinate gap between
    the normalized vectors, and W the graph width (the number of outputs
    and the largest fan-in) raised until it counts every neuron's
    coordinates: W >= antecedents + 1 at each hidden neuron, and W**2 >= the
    incoming edges plus biases of all output neurons together.
    The refined bound replaces the sup by per-neuron discrepancies: the sum
    over output neurons of their own discrepancy plus min_path_norm times
    the largest discrepancy sum over the interior of any path, found by a
    longest-path sweep over the DAG.  It holds on every architecture.
    """
    n1 = normalize(arch, t1, include_kpool=True)
    n2 = normalize(arch, t2, include_kpool=True)
    min_norm = min(path_norm_fast(arch, t1), path_norm_fast(arch, t2))
    if not refined:
        w = _coarse_width(arch)
        ell = max(max_path_length(arch) - 1, 0)
        dsup = float(np.max(np.abs(n1.vec - n2.vec))) if arch.n_coords else 0.0
        return float((w * w + min_norm * ell * w) * dsup)

    out_sum, interior_max = _discrepancy_sums(arch, np.abs(n1.vec - n2.vec))
    return float(out_sum + min_norm * interior_max)


def _discrepancy_sums(arch: Architecture, d: np.ndarray):
    """Per-coordinate discrepancies ``d`` -> (sum of the output neurons'
    discrepancies, largest sum of interior discrepancies over any path).

    A neuron's discrepancy is its bias's plus the sum of its incoming
    edges'.  The longest-path sweep is one segment sum and one segment max
    per level of ``arch.levels`` (on a 2-CPU machine the refined bound takes
    5-7 ms on the conv grid, 72-82 ms on a 3,000-deep chain).
    """
    # per neuron: its discrepancy, the largest sum over a path ending there, that over its antecedents
    delta, best, ant_best = np.zeros((3, arch.n_neurons))
    for r, e, starts in arch.levels:
        delta[r] = d[arch.bias_coord[r]] + np.add.reduceat(d[e], starts)
        ant_best[r] = np.maximum.reduceat(best[arch.src[e]], starts)
        best[r] = delta[r] + ant_best[r]
    out = arch.output_pos[~arch.is_input[arch.output_pos]]
    return float(np.sum(delta[out])), float(ant_best[out].max(initial=0.0))


@dataclass(frozen=True)
class PathMetricReport:
    """Every estimate of the l1 path metric this package can produce."""

    lower: float
    upper_coarse: float
    upper_refined: float
    exact: float | None
    oracle: float | None
    note: str = ""

    def render(self) -> str:
        lines = [
            f"lower          {self.lower!r}",
            f"upper (coarse) {self.upper_coarse!r}",
            f"upper (refined) {self.upper_refined!r}",
        ]
        lines.append(f"exact          {self.exact!r}" if self.exact is not None else "exact          (dominance unverified)")
        lines.append(f"oracle         {self.oracle!r}" if self.oracle is not None else "oracle         (too many paths)")
        if self.note:
            lines.append(self.note)
        return "\n".join(lines)


def path_metric_report(arch: Architecture, t1: ParamVector, t2: ParamVector) -> PathMetricReport:
    note = []
    try:
        exact = path_metric_exact_dominated(arch, t1, t2)
    except DominanceUnverified as exc:
        exact = None
        note.append(str(exc))
    try:
        oracle = path_metric_oracle(arch, t1, t2)
    except PathExplosion as exc:
        oracle = None
        note.append(str(exc))
    return PathMetricReport(
        lower=path_metric_lower(arch, t1, t2),
        upper_coarse=path_metric_upper(arch, t1, t2),
        upper_refined=path_metric_upper(arch, t1, t2, refined=True),
        exact=exact,
        oracle=oracle,
        note="; ".join(note),
    )


def _check_mlp_layers(layers_a, layers_b):
    la = [np.asarray(m, dtype=np.float64) for m in layers_a]
    lb = [np.asarray(m, dtype=np.float64) for m in layers_b]
    if not la or len(la) != len(lb):
        raise RaggedLayers("need the same nonzero number of matrices on both sides")
    for i, (a, b) in enumerate(zip(la, lb)):
        if a.ndim != 2 or a.shape != b.shape:
            raise RaggedLayers(f"layer {i}: shapes {a.shape} vs {b.shape}")
        if i > 0 and a.shape[1] != la[i - 1].shape[0]:
            raise RaggedLayers(
                f"layer {i} expects {a.shape[1]} inputs, previous layer emits {la[i - 1].shape[0]}"
            )
    return la, lb


def mlp_bounds(layers_a, layers_b, x) -> dict:
    """Closed-form layered-MLP bounds, for comparison with path quantities.

    Takes the weight matrices of two bias-free MLPs (rows = outgoing
    neurons) and an input.  R is the largest max-row-l1-norm over both
    parameter sets, clamped to at least 1.  Returns the path-metric bound
    L*W^2*R^(L-1)*sup_gap, the older (W*|x|+1)*W*L^2*R^(L-1)*sup_gap output
    bound, and the output bounds recovered through the path metric route
    (same-sign case, and the doubled any-sign case).
    """
    la, lb = _check_mlp_layers(layers_a, layers_b)
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    if x.shape[0] != la[0].shape[1]:
        raise RaggedLayers(f"input has {x.shape[0]} entries, first layer expects {la[0].shape[1]}")
    nlayers = len(la)
    width = max([la[0].shape[1]] + [m.shape[0] for m in la])
    r = max(1.0, max(float(np.abs(m).sum(axis=1).max()) for m in la + lb))
    gap = max(float(np.abs(a - b).max()) for a, b in zip(la, lb))
    xinf = float(np.abs(x).max()) if x.size else 0.0
    core = nlayers * width * width * r ** (nlayers - 1) * gap
    return {
        "path_metric_ub": core,
        "legacy": (width * xinf + 1.0) * width * nlayers * nlayers * r ** (nlayers - 1) * gap,
        "recovered_same_sign": max(xinf, 1.0) * core,
        "recovered_any_sign": 2.0 * max(xinf, 1.0) * core,
    }

"""Path norms and path metrics without enumeration.

The q-th power of the lq path norm is computed by a single forward pass
on the architecture's own compiled schedule with every kpool neuron summing
its antecedents (``engine.run(..., sum_pools=True)``), every weight and
bias replaced by its absolute value raised to q, and the all-ones input fed
through.  The same pass drives the path metric estimates:

* lower bound   -- |difference of the two path norms|, always valid;
* exact value   -- when one parameter vector dominates the other
  coordinatewise with matching signs (e.g. a parameter vector and its
  pruned copy), the l1 metric is a sum of nonnegative terms: the
  coordinate gaps weighted by one adjoint sweep on the tape of the larger
  vector, so no two path norms are subtracted;
* upper bounds  -- closed-form bounds on normalized parameters, either the
  coarse width/depth formula or a refined per-neuron version whose path
  maximum is computed by a longest-path dynamic program (no enumeration).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import gradient, run
from .errors import DominanceUnverified, NonFiniteValue, PathExplosion, PathliftError, RaggedLayers
from .graph import Architecture, ParamVector, _check_bound
from .paths import max_path_length, path_lifting
from .transforms import normalize


def _check_q(q) -> None:
    if not (np.isfinite(q) and q > 0):
        raise PathliftError(f"q must be finite and > 0, got {q!r}")


def _sum_pool_tape(arch: Architecture, theta: ParamVector, q: float = 1.0):
    """(|theta|**q, ``vals`` of its ``run(..., sum_pools=True)`` on the
    all-ones input), whose output rows sum to the q-th power of the lq path
    norm.  Raises :class:`NonFiniteValue` naming ``q`` when that overflows."""
    _check_q(q)
    _check_bound(arch, theta)
    with np.errstate(over="ignore", invalid="ignore"):
        w = np.abs(theta.vec) ** q
        if np.isfinite(w).all():
            t = ParamVector(arch, w)
            vals, _ = run(arch, t, np.ones(arch.d_in), sum_pools=True)
            if np.isfinite(vals[arch.output_pos].sum()):
                return t, vals
    raise NonFiniteValue(f"the path norm at q={q!r} overflows float64")


def path_norm_fast(arch: Architecture, theta: ParamVector, q: float = 1.0) -> float:
    """Sum of |phi_p|**q over all paths, in one forward pass."""
    _, vals = _sum_pool_tape(arch, theta, q)
    return float(vals[arch.output_pos].sum())


def path_metric_oracle(
    arch: Architecture, t1: ParamVector, t2: ParamVector, q: float = 1.0, cap=None
) -> float:
    """lq distance between the two path liftings, by enumeration."""
    _check_q(q)
    p1 = path_lifting(arch, t1, cap=cap).values
    p2 = path_lifting(arch, t2, cap=cap).values
    return float(np.sum(np.abs(p1 - p2) ** q) ** (1.0 / q))


def path_metric_lower(
    arch: Architecture, t1: ParamVector, t2: ParamVector, q: float = 1.0
) -> float:
    """|norm difference| lower bound on the path metric; two forward passes."""
    a = path_norm_fast(arch, t1, q) ** (1.0 / q)
    b = path_norm_fast(arch, t2, q) ** (1.0 / q)
    return abs(a - b)


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


def path_metric_exact_dominated(
    arch: Architecture, t1: ParamVector, t2: ParamVector, cap=None
) -> float:
    """Exact l1 path metric when one lifting dominates the other.

    When every path keeps its sign and one side's magnitude dominates, each
    path's gap is the difference of its magnitudes.  That is certified by
    |theta| >= |theta'| with matching signs coordinatewise (which forces it
    path by path) or, at enumeration scale, by the same test on the two
    liftings.  Raises DominanceUnverified when neither direction can be
    certified.  Only the lifting route subtracts the two path norms.
    """
    pair = _dominating(t1, t2, t1.vec, t2.vec)
    if pair is not None:
        return _dominated_gap(arch, *pair)
    try:
        pair = _dominating(t1, t2, path_lifting(arch, t1, cap=cap).values,
                           path_lifting(arch, t2, cap=cap).values)
    except PathExplosion as exc:
        raise DominanceUnverified("neither parameter vector dominates with matching signs "
                                  "and the liftings are too large to compare") from exc
    if pair is None:
        raise DominanceUnverified("neither path lifting dominates the other with matching signs")
    return path_norm_fast(arch, pair[0]) - path_norm_fast(arch, pair[1])


def _dominated_gap(arch: Architecture, big: ParamVector, small: ParamVector) -> float:
    """Sum over paths of |phi_p(big)| - |phi_p(small)|, telescoped into
    sum_i (|big_i| - |small_i|) * G_i >= 0: G is the gradient of the sum-pool
    pass of |small| on the tape of |big| (the |big| products before i times
    the |small| ones after).  The tape is 0 at a relu neuron only where every
    |big| product reaching it is, so its masks drop no nonzero term."""
    t, vals = _sum_pool_tape(arch, big)
    b = np.abs(small.vec)
    g = gradient(arch, ParamVector(arch, b), vals, None, np.ones((arch.d_out, 1)))
    return float((t.vec - b) @ g)


def graph_width(arch: Architecture) -> int:
    """max(number of outputs, largest antecedent count)."""
    return max(arch.d_out, int(np.diff(arch.in_ptr).max(initial=0)))


def path_metric_upper(
    arch: Architecture,
    t1: ParamVector,
    t2: ParamVector,
    q: float = 1.0,
    refined: bool = False,
) -> float:
    """Closed-form upper bound on the lq path metric.

    Both parameter vectors are first normalized (kpool neurons included, so
    every hidden neuron ends with incoming l1 norm at most 1; that is the
    regime in which the bounds hold).  The coarse bound is

        [(W**2 + min_path_norm * L * W) * sup_distance**q] ** (1/q)

    with W the graph width, L one less than the maximum path length, and
    sup_distance the max coordinate gap between the normalized vectors.
    The refined bound replaces the sup by per-neuron discrepancies: the sum
    over output neurons of their own discrepancy plus min_path_norm times
    the largest discrepancy sum over the interior of any path, found by a
    longest-path sweep over the DAG.
    """
    n1 = normalize(arch, t1, include_kpool=True)
    n2 = normalize(arch, t2, include_kpool=True)
    minq = min(path_norm_fast(arch, t1, q), path_norm_fast(arch, t2, q))
    if not refined:
        w = graph_width(arch)
        ell = max(max_path_length(arch) - 1, 0)
        dsup = float(np.max(np.abs(n1.vec - n2.vec))) if arch.n_coords else 0.0
        return float(((w * w + minq * ell * w) * dsup**q) ** (1.0 / q))

    out_sum, interior_max = _discrepancy_sums(arch, np.abs(n1.vec - n2.vec) ** q)
    return float((out_sum + minq * interior_max) ** (1.0 / q))


def _discrepancy_sums(arch: Architecture, d: np.ndarray):
    """Per-coordinate discrepancies ``d`` -> (sum of the output neurons'
    discrepancies, largest sum of interior discrepancies over any path).

    A neuron's discrepancy is its bias's plus the sum of its incoming
    edges': one segment sum over the edges, which the canonical order
    groups by destination.  The longest-path sweep visits the neurons in
    topological order and takes each one's max over its antecedents in a
    single C-level call, so it costs one Python step per neuron, not per
    edge, and no step per depth level (a 3,000-deep chain stays cheap).
    """
    n = arch.n_neurons
    has = ~arch.is_input  # the neurons with antecedents
    delta = np.zeros(n)
    if arch.n_edges:
        delta[has] = d[arch.bias_coord[has]] + np.add.reduceat(d[: arch.n_edges], arch.in_ptr[:-1][has])
    src, ptr = arch.src.tolist(), arch.in_ptr.tolist()
    disc = delta.tolist()
    best = [0.0] * n  # largest discrepancy sum over a path ending at each neuron
    ant_best = [0.0] * n  # largest best over each neuron's antecedents
    for j in arch.non_input_pos.tolist():
        ant_best[j] = top = max(map(best.__getitem__, src[ptr[j] : ptr[j + 1]]))
        best[j] = disc[j] + top
    out = arch.output_pos[has[arch.output_pos]]
    return float(np.sum(delta[out])), max(map(ant_best.__getitem__, out.tolist()), default=0.0)


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


def path_metric_report(
    arch: Architecture, t1: ParamVector, t2: ParamVector, cap=None
) -> PathMetricReport:
    note = []
    try:
        exact = path_metric_exact_dominated(arch, t1, t2, cap=cap)
    except DominanceUnverified as exc:
        exact = None
        note.append(str(exc))
    try:
        oracle = path_metric_oracle(arch, t1, t2, cap=cap)
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

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
from dataclasses import dataclass

import numpy as np

from .engine import Tape, gradient, run
from .errors import DominanceUnverified, NonFiniteValue, PathExplosion, PathliftError, RaggedLayers, finite
from .graph import Architecture, ParamVector, _check_bound, _finite, _scalar
from .paths import PathLifting, max_path_length, path_lifting
from .transforms import _normalized, hidden_positions, normalize


def _sum_pool_tape(arch: Architecture, theta: ParamVector, q: float = 1.0):
    """(|theta|**q, the q-th power of the lq path norm, the :class:`Tape`
    of the sum-pool pass of |theta|**q on the all-ones input, whose output
    rows sum to that norm).  Raises :class:`NonFiniteValue` naming ``q``
    when the norm overflows."""
    _scalar(q, PathliftError, "q must be finite and > 0", lambda v: 0.0 < v < math.inf)
    _check_bound(arch, theta)
    what, tape = f"the path norm at q={q!r} overflows float64", Tape(arch, 1)
    w = finite(what, pow, np.abs(theta.vec), q)
    return w, finite(what, _sum_pool_norm, arch, w, tape), tape


def _sum_pool_norm(arch: Architecture, w: np.ndarray, tape: Tape) -> float:
    """The summed outputs of the sum-pool pass of ``w`` on the all-ones input, on ``tape``."""
    return float(run(arch, w, np.ones(arch.d_in), sum_pools=True, tape=tape)[0][arch.output_pos].sum())


def _sum_pool_sweep(arch: Architecture, weights: np.ndarray, tape: Tape) -> np.ndarray:
    """Adjoint sweep of the summed outputs of the sum-pool pass on ``tape``
    with the parameters ``weights``; the gradient lives in ``tape``."""
    return gradient(arch, weights, tape.vals, None, np.ones((arch.d_out, 1)), tape=tape)


def path_norm_fast(arch: Architecture, theta: ParamVector, q: float = 1.0) -> float:
    """Sum of |phi_p|**q over all paths, in one forward pass."""
    return _sum_pool_tape(arch, theta, q)[1]


def _pathnorm_diffs(arch: Architecture, theta: ParamVector) -> np.ndarray:
    """Per nonzero coordinate i, the l1 path norm minus the l1 path norm
    with i zeroed: one sum-pool pass per coordinate, on the norm's own
    weights and tape with i zeroed, so each is bit for bit its own norm."""
    w, base, tape = _sum_pool_tape(arch, theta)
    values = np.zeros(arch.n_coords)
    for i in np.flatnonzero(theta.vec):
        kept, w[i] = w[i], 0.0
        values[i] = base - _sum_pool_norm(arch, w, tape)
        w[i] = kept
    return values


def _lifting_pair(arch: Architecture, t1: ParamVector, t2: ParamVector) -> PathLifting:
    """The path liftings of t1 and t2 as one stacked :func:`path_lifting`,
    row i bit for bit the lifting of its vector.  A stack skips the binding
    check of a ParamVector, so both are checked here.  Raises
    NonFiniteValue when a lifting coordinate overflows."""
    _check_bound(arch, t1)
    _check_bound(arch, t2)
    return finite("the path lifting overflows float64", path_lifting, arch, np.stack((t1.vec, t2.vec)))


def _l1_gap(lift: PathLifting) -> float:
    """l1 distance between the two rows of a stacked pair of liftings;
    raises NonFiniteValue when it overflows."""
    gap = lambda: float(np.sum(np.abs(lift.values[0] - lift.values[1])))
    return finite("the path metric overflows float64", gap)


def path_metric_oracle(arch: Architecture, t1: ParamVector, t2: ParamVector) -> float:
    """l1 distance between the two path liftings, by enumeration (one
    stacked lifting).  Raises NonFiniteValue when a lifting or the
    distance overflows float64."""
    return _l1_gap(_lifting_pair(arch, t1, t2))


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
    _check_bound(arch, t1)
    _check_bound(arch, t2)
    pair = _dominating(t1, t2, t1.vec, t2.vec)
    if pair is not None:
        return _dominated_gap(arch, *pair)
    try:
        lift = _lifting_pair(arch, t1, t2)
    except PathExplosion as exc:
        raise DominanceUnverified("neither parameter vector dominates with matching signs "
                                  "and the liftings are too large to compare") from exc
    if _dominating(t1, t2, *lift.values) is None:
        raise DominanceUnverified("neither path lifting dominates the other with matching signs")
    return _l1_gap(lift)


def _dominated_gap(arch: Architecture, big: ParamVector, small: ParamVector) -> float:
    """Sum over paths of |phi_p(big)| - |phi_p(small)|, telescoped into
    sum_i (|big_i| - |small_i|) * G_i >= 0: G is the gradient of the sum-pool
    pass of |small| on the tape of |big| (the |big| products before i times
    the |small| ones after).  The tape is 0 at a relu neuron only where every
    |big| product reaching it is, so its masks drop no nonzero term.  A term
    can overflow though the metric is finite: only then is the sum taken
    again on both vectors rescaled by the lambdas that normalize |big|, which
    keep the dominance and both liftings.  Raises NonFiniteValue when that
    sum overflows too."""
    w, b = np.abs(big.vec), np.abs(small.vec)

    def gap():
        plain = _gap_sum(arch, w, b)
        return plain if math.isfinite(plain) else _gap_sum(arch, *_normalized(arch, True, w, b))

    return finite("the telescoped path-metric gap overflows float64", gap)


def _gap_sum(arch: Architecture, w: np.ndarray, b: np.ndarray) -> float:
    """The telescoped sum of :func:`_dominated_gap` for |big| = w and
    |small| = b, whose products may overflow: run it through
    :func:`pathlift.errors.finite`."""
    tape = Tape(arch, 1)
    run(arch, w, np.ones(arch.d_in), sum_pools=True, tape=tape)
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
    Raises NonFiniteValue when the bound overflows float64.
    """
    n1 = normalize(arch, t1, include_kpool=True)
    n2 = normalize(arch, t2, include_kpool=True)
    return _upper(arch, n1, n2, min(path_norm_fast(arch, t1), path_norm_fast(arch, t2)), refined)


def _upper(arch: Architecture, n1: ParamVector, n2: ParamVector, min_norm: float, refined: bool) -> float:
    """:func:`path_metric_upper` from the normalized pair and the smaller l1 path norm."""

    def bound():
        d = np.abs(n1.vec - n2.vec)
        if refined:
            out_sum, interior_max = _discrepancy_sums(arch, d)
            return float(out_sum + min_norm * interior_max)
        w = _coarse_width(arch)
        ell = max(max_path_length(arch) - 1, 0)
        dsup = float(np.max(d)) if arch.n_coords else 0.0
        # dsup multiplies in first, so a product overflows only with the
        # bound (min_norm * ell * w can overflow where the bound does not,
        # and times dsup = 0 that is nan); at ell = 0 the term is 0
        return w * w * dsup + (min_norm * dsup * ell * w if ell else 0.0)

    return finite("the upper bound on the path metric overflows float64", bound)


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
    upper_coarse: float | None
    upper_refined: float
    exact: float | None
    oracle: float | None
    note: str = ""

    def render(self) -> str:
        coarse = "(overflows float64)" if self.upper_coarse is None else repr(self.upper_coarse)
        lines = [
            f"lower          {self.lower!r}",
            f"upper (coarse) {coarse}",
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
    norms = path_norm_fast(arch, t1), path_norm_fast(arch, t2)
    n1, n2 = (normalize(arch, t, include_kpool=True) for t in (t1, t2))
    try:
        coarse = _upper(arch, n1, n2, min(norms), False)
    except NonFiniteValue:  # the coarse width term can overflow where the refined bound does not
        coarse = None
    return PathMetricReport(
        lower=abs(norms[0] - norms[1]),
        upper_coarse=coarse,
        upper_refined=_upper(arch, n1, n2, min(norms), True),
        exact=exact,
        oracle=oracle,
        note="; ".join(note),
    )


def mlp_bounds(layers_a, layers_b, x) -> dict:
    """Closed-form layered-MLP bounds, for comparison with path quantities.

    Takes the weight matrices of two bias-free MLPs (rows = outgoing
    neurons) and an input.  R is the largest max-row-l1-norm over both
    parameter sets, clamped to at least 1.  Returns the path-metric bound
    L*W^2*R^(L-1)*sup_gap, the older (W*|x|+1)*W*L^2*R^(L-1)*sup_gap output
    bound, and the output bounds recovered through the path metric route
    (same-sign case, and the doubled any-sign case).  Raises RaggedLayers unless
    the matrices are nonempty and chain, NonFiniteValue when a bound overflows.
    """
    la = [_finite(m, f"matrix {i} of layers_a") for i, m in enumerate(layers_a)]
    lb = [_finite(m, f"matrix {i} of layers_b") for i, m in enumerate(layers_b)]
    if not la or len(la) != len(lb):
        raise RaggedLayers("need the same nonzero number of matrices on both sides")
    for i, (a, b) in enumerate(zip(la, lb)):
        if a.ndim != 2 or a.shape != b.shape or not a.size:
            raise RaggedLayers(f"layer {i}: shapes {a.shape} vs {b.shape}, not one nonempty matrix")
        if i > 0 and a.shape[1] != la[i - 1].shape[0]:
            raise RaggedLayers(
                f"layer {i} expects {a.shape[1]} inputs, previous layer emits {la[i - 1].shape[0]}"
            )
    x = _finite(x, "input").reshape(-1)
    if x.shape[0] != la[0].shape[1]:
        raise RaggedLayers(f"input has {x.shape[0]} entries, first layer expects {la[0].shape[1]}")
    nlayers = len(la)
    width = max([la[0].shape[1]] + [m.shape[0] for m in la])

    def bounds():
        r = max(1.0, max(float(np.abs(m).sum(axis=1).max()) for m in la + lb))
        gap = max(float(np.abs(a - b).max()) for a, b in zip(la, lb))
        xinf = float(np.abs(x).max())
        core = nlayers * width * width * r ** (nlayers - 1) * gap
        legacy = (width * xinf + 1.0) * width * nlayers * nlayers * r ** (nlayers - 1) * gap
        return core, legacy, max(xinf, 1.0) * core, 2.0 * max(xinf, 1.0) * core

    keys = ("path_metric_ub", "legacy", "recovered_same_sign", "recovered_any_sign")
    return dict(zip(keys, finite("the MLP bounds overflow float64", bounds)))

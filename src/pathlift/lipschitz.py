"""Rescaling-invariant Lipschitz bound in parameter space, with witnesses.

For two parameter vectors that agree in sign coordinatewise (zeros allowed),
the l1 gap between the two network outputs at any input x is at most

    max(|x|_inf, 1) * |Phi(theta) - Phi(theta')|_1            (main variant)

and, split by starting block and summed per output neuron,

    |x|_inf * |dPhi_input|_1 + |dPhi_hidden|_1                (split variant).

This module verifies the bound on concrete triples, exhibits the chain
network on which the split variant is an equality, reproduces the two-edge
counterexample showing the sign condition cannot be dropped, and exposes
the geometric parameter trajectory underlying the proof: coordinatewise
sign(theta_i) |theta_i|^(1-t) |theta'_i|^t, along which every path lifting
coordinate moves monotonically, so the l1 lifting distances over any
segmentation of [0, 1] telescope exactly.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    DominanceUnverified,
    MixedZeroCoordinate,
    NonFiniteValue,
    PathExplosion,
    PathliftError,
    SignConditionViolated,
)
from .graph import Architecture, ParamVector, forward, _check_bound, _check_input, _count
from .metrics import path_metric_exact_dominated, path_metric_lower, path_metric_oracle
from .paths import path_activations, path_lifting

HOLDS_RTOL = 1e-9
HOLDS_ATOL = 1e-12
# the sampled tables activation_breakpoints may hold: 1 GiB of float64
MAX_SAMPLED_ENTRIES = 1 << 27


def check_sign_condition(t1: ParamVector, t2: ParamVector) -> None:
    """Raise SignConditionViolated unless theta_i * theta'_i >= 0 everywhere."""
    # signs, not the product, which underflows to -0.0 for tiny coordinates
    bad = np.flatnonzero(np.sign(t1.vec) * np.sign(t2.vec) < 0.0)
    if bad.size:
        raise SignConditionViolated([t1.arch.coord_labels[i] for i in bad])


@dataclass(frozen=True)
class BoundReport:
    variant: str
    lhs: float
    rhs: float
    holds: bool
    slack: float
    metric_method: str = "oracle"
    metric_certified: bool = True

    def render(self) -> str:
        status = "holds" if self.holds else "VIOLATED"
        extra = "" if self.metric_certified else " (metric is only a lower bound)"
        return (
            f"{self.variant} variant: lhs {self.lhs!r} <= rhs {self.rhs!r}: "
            f"{status}, slack {self.slack!r}{extra}"
        )


def _rhs(arch: Architecture, t1: ParamVector, t2: ParamVector, x, variant: str):
    """(right-hand side at x, metric route, whether the metric is certified).

    The main variant takes the best available l1 path metric: the oracle,
    else the dominated value, else the norm-gap lower bound (uncertified).
    The split variant needs the lifting blocks, hence path enumeration.
    """
    _check_bound(arch, t1)
    _check_bound(arch, t2)
    check_sign_condition(t1, t2)
    x = _check_input(arch, x)
    xinf = float(np.abs(x).max())
    if variant == "main":
        scale = max(xinf, 1.0)
        try:
            return scale * path_metric_oracle(arch, t1, t2), "oracle", True
        except PathExplosion:
            pass
        try:
            return scale * path_metric_exact_dominated(arch, t1, t2), "dominated", True
        except DominanceUnverified:
            return scale * path_metric_lower(arch, t1, t2), "lower", False
    if variant == "split":
        l1 = path_lifting(arch, t1)
        l2 = path_lifting(arch, t2)
        gap = np.abs(l1.values - l2.values)
        return float(xinf * gap[l1.input_start].sum() + gap[~l1.input_start].sum()), "oracle", True
    raise PathliftError(f"unknown variant {variant!r}")


def bound_rhs(arch: Architecture, t1: ParamVector, t2: ParamVector, x, variant: str = "main") -> float:
    """Right-hand side of the chosen bound variant at input x.

    Checks the sign condition and the length and finiteness of x first.
    The split variant needs the lifting blocks, hence path enumeration.
    """
    return _rhs(arch, t1, t2, x, variant)[0]


def verify_bound(
    arch: Architecture, t1: ParamVector, t2: ParamVector, x, variant: str = "main"
) -> BoundReport:
    """Evaluate both sides of the bound on one (theta, theta', x) triple."""
    rhs, method, certified = _rhs(arch, t1, t2, x, variant)
    lhs = float(np.abs(forward(arch, t1, x) - forward(arch, t2, x)).sum())
    holds = lhs <= rhs * (1.0 + HOLDS_RTOL) + HOLDS_ATOL
    return BoundReport(
        variant=variant,
        lhs=lhs,
        rhs=rhs,
        holds=holds,
        slack=rhs - lhs,
        metric_method=method,
        metric_certified=certified,
    )


# ---- proof trajectory ----------------------------------------------------


def _check_trajectory(arch: Architecture, t1: ParamVector, t2: ParamVector) -> None:
    """The conditions of the trajectory, none of which depends on t."""
    _check_bound(arch, t1)
    _check_bound(arch, t2)
    check_sign_condition(t1, t2)
    mixed = np.flatnonzero((t1.vec == 0.0) != (t2.vec == 0.0))
    if mixed.size:
        raise MixedZeroCoordinate(
            f"zero on one side only at: {[arch.coord_labels[i] for i in mixed[:5]]}"
        )


def _trajectory_points(arch: Architecture, t1: ParamVector, t2: ParamVector, ts) -> np.ndarray:
    """(len(ts), n_coords) stack of the trajectory points at the float times
    ``ts``, for a pair that passed :func:`_check_trajectory`.  Each row has
    its own scalar exponents, as a single point does: numpy's power takes
    fast paths for some scalar exponents, so one power broadcast over all
    times would be a different computation.  kpool biases are pinned to 0;
    raises NonFiniteValue when a point overflows."""
    s, a1, a2 = np.sign(t1.vec), np.abs(t1.vec), np.abs(t2.vec)
    with np.errstate(over="ignore"):
        stack = np.stack([s * a1 ** (1.0 - t) * a2 ** t for t in ts])
    bad = ~np.isfinite(stack).all(axis=1)
    if bad.any():
        raise NonFiniteValue(f"the trajectory point at t={ts[int(np.argmax(bad))]!r} overflows float64")
    stack[:, arch._pool_bias] = 0.0
    return stack


def trajectory_point(t1: ParamVector, t2: ParamVector, t: float) -> ParamVector:
    """Geometric interpolation sign(theta) |theta|^(1-t) |theta'|^t.

    Requires matching signs; a coordinate zero on exactly one side has no
    geometric interpolant and raises MixedZeroCoordinate.  Coordinates zero
    on both sides stay zero.  Endpoints reproduce theta and theta' exactly.
    """
    arch = t1.arch
    _check_trajectory(arch, t1, t2)
    return ParamVector(arch, _trajectory_points(arch, t1, t2, [float(t)])[0])


@dataclass(frozen=True)
class Breakpoint:
    t: float
    changed_paths: tuple

    @property
    def n_changed(self) -> int:
        return len(self.changed_paths)


@dataclass(frozen=True)
class TelescopingReport:
    boundaries: tuple
    segment_sum: float
    endpoint_metric: float
    rel_err: float


def activation_breakpoints(
    arch: Architecture,
    t1: ParamVector,
    t2: ParamVector,
    x,
    samples: int = 100,
    width: float = 1e-10,
):
    """Locate activation changes along the trajectory and check telescoping.

    Samples the path activation vector at samples+1 uniform points of
    [0, 1], bisects every interval whose endpoints disagree down to the
    requested width, and reports each located change with the indices of
    the canonical paths whose activation flips there.  Two changes closer
    than 1/samples collapse into one located point.  The samples take one
    engine pass over the stack of their trajectory points, and each round
    of halvings one pass over the midpoints of the intervals still open,
    so a call costs 1 + (number of halvings) passes; every interval keeps
    its own bounds, as if it were bisected alone.

    The telescoping report sums the l1 lifting distances over the segments
    cut by the located breakpoints and compares against the endpoint l1
    metric; per-coordinate monotonicity of the lifting along the trajectory
    makes the two agree for any segmentation.  All boundary liftings are one
    stacked ``path_lifting``, whose first and last rows (theta, theta') give
    the endpoint.

    ``samples`` must be an integer of at least 1 and ``width`` at least 0.
    Every sample holds about n_paths + n_coords + n_neurons entries, so
    ``(samples + 1)`` times that may be at most ``MAX_SAMPLED_ENTRIES``
    (2**27, 1 GiB of float64); a larger count raises PathliftError before
    anything is sampled.
    An interval whose midpoint rounds onto one of its ends cannot shrink
    further and stops there, so a width at or below the float spacing ends
    at adjacent doubles.
    """
    if not (isinstance(samples, numbers.Integral) and samples >= 1):
        raise PathliftError(f"samples must be an integer >= 1, got {samples!r}")
    if not (isinstance(width, numbers.Real) and width >= 0.0):
        raise PathliftError(f"width must be a number >= 0, got {width!r}")
    _check_trajectory(arch, t1, t2)
    per_sample = len(path_lifting(arch, t1)) + arch.n_coords + arch.n_neurons
    if (samples + 1) * per_sample > MAX_SAMPLED_ENTRIES:
        raise PathliftError(
            f"{samples} samples of {per_sample} entries each exceed the "
            f"{MAX_SAMPLED_ENTRIES} sampled entries a call may hold"
        )
    ts = np.linspace(0.0, 1.0, samples + 1)

    def acts(times):
        return path_activations(arch, _trajectory_points(arch, t1, t2, times.tolist()), x)

    sampled = acts(ts)
    # a_lo stays the sample at lo: lo moves only onto points that match it
    first = np.flatnonzero(np.any(sampled[:-1] != sampled[1:], axis=1))
    lo, hi = ts[first], ts[first + 1]
    a_lo, a_hi = sampled[first], sampled[first + 1]
    live = np.flatnonzero(hi - lo > width)
    while live.size:
        mid = 0.5 * (lo[live] + hi[live])
        am = acts(mid)
        same = np.all(am == a_lo[live], axis=1)
        split = (mid != lo[live]) & (mid != hi[live])  # else the midpoint rounded onto an end
        lo[live[same]] = mid[same]
        hi[live[~same]] = mid[~same]
        a_hi[live[~same]] = am[~same]
        live = live[split & (hi[live] - lo[live] > width)]
    found = [
        Breakpoint(t=float(0.5 * (left + right)), changed_paths=tuple(np.flatnonzero(a != b).tolist()))
        for left, right, a, b in zip(lo, hi, a_lo, a_hi)
    ]

    boundaries = (0.0,) + tuple(bp.t for bp in found) + (1.0,)
    liftings = path_lifting(arch, _trajectory_points(arch, t1, t2, boundaries)).values
    seg = sum(float(np.abs(b - a).sum()) for a, b in zip(liftings[:-1], liftings[1:]))
    endpoint = float(np.sum(np.abs(liftings[0] - liftings[-1])))
    denom = max(abs(seg), abs(endpoint), 1e-300)
    report = TelescopingReport(
        boundaries=boundaries,
        segment_sum=seg,
        endpoint_metric=endpoint,
        rel_err=abs(seg - endpoint) / denom,
    )
    return found, report


# ---- witnesses -----------------------------------------------------------


def _chain(d: int) -> Architecture:
    names = ["in"] + [f"m{k:02d}" for k in range(1, d)] + ["out"]
    neurons = [("in", "input")] + [(n, "relu") for n in names[1:-1]] + [("out", "identity")]
    edges = list(zip(names[:-1], names[1:]))
    return Architecture(neurons, edges)


def _chain_params(arch: Architecture, w: float) -> ParamVector:
    v = np.zeros(arch.n_coords)
    v[: arch.n_edges] = w
    return ParamVector(arch, v)


@dataclass(frozen=True)
class EqualityWitness:
    arch: Architecture
    theta: ParamVector
    theta_prime: ParamVector
    x: np.ndarray
    report: BoundReport
    predicted: float


def equality_witness(d: int, a: float, b: float, x0: float) -> EqualityWitness:
    """Chain of d edges on which the split bound is an equality.

    All weights a on one side, b on the other (both > 0), biases zero, and
    a positive input x0: both sides of the split bound equal
    |a**d - b**d| * x0.  ``d`` must be a whole number of at least 1.
    """
    d = _count(d, "chain length d", PathliftError)
    if not (a > 0.0 and b > 0.0 and x0 > 0.0):
        raise PathliftError("equality witness needs a, b, x0 all > 0")
    arch = _chain(d)
    t1 = _chain_params(arch, float(a))
    t2 = _chain_params(arch, float(b))
    x = np.array([float(x0)])
    report = verify_bound(arch, t1, t2, x, variant="split")
    predicted = abs(float(a) ** d - float(b) ** d) * float(x0)
    return EqualityWitness(arch, t1, t2, x, report, predicted)


@dataclass(frozen=True)
class SignCounterexample:
    arch: Architecture
    theta: ParamVector
    theta_prime: ParamVector
    x: np.ndarray
    path_metric: float
    lhs: float
    rhs_ignoring_signs: float


def sign_counterexample() -> SignCounterexample:
    """Two-edge chain with weights (1, 1) versus (-1, -1) at x = 1.

    The liftings coincide, so the path metric (and with it the would-be
    right-hand side) is 0, yet the outputs differ by 1.  The sign condition
    in the bound is therefore not droppable: bound_rhs refuses this pair.
    """
    arch = _chain(2)
    t1 = _chain_params(arch, 1.0)
    t2 = _chain_params(arch, -1.0)
    x = np.array([1.0])
    metric = path_metric_oracle(arch, t1, t2)
    lhs = float(np.abs(forward(arch, t1, x) - forward(arch, t2, x)).sum())
    return SignCounterexample(
        arch, t1, t2, x,
        path_metric=metric,
        lhs=lhs,
        rhs_ignoring_signs=max(float(np.abs(x).max()), 1.0) * metric,
    )

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

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    DominanceUnverified,
    MixedZeroCoordinate,
    NonFiniteValue,
    PathExplosion,
    PathliftError,
    SignConditionViolated,
)
from .graph import Architecture, ParamVector, forward, _check_bound
from .metrics import path_metric_exact_dominated, path_metric_lower, path_metric_oracle
from .paths import path_activations, path_lifting

HOLDS_RTOL = 1e-9
HOLDS_ATOL = 1e-12


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


def _rhs(arch: Architecture, t1: ParamVector, t2: ParamVector, x, variant: str, cap):
    """(right-hand side at x, metric route, whether the metric is certified).

    The main variant takes the best available l1 path metric: the oracle,
    else the dominated value, else the norm-gap lower bound (uncertified).
    The split variant needs the lifting blocks, hence path enumeration.
    """
    _check_bound(arch, t1)
    _check_bound(arch, t2)
    check_sign_condition(t1, t2)
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    if x.shape[0] != arch.d_in:
        raise DimensionMismatch(f"input has {x.shape[0]} entries, the network has {arch.d_in} inputs")
    if not np.isfinite(x).all():
        raise NonFiniteValue("input holds NaN or infinite entries")
    xinf = float(np.abs(x).max())
    if variant == "main":
        scale = max(xinf, 1.0)
        try:
            return scale * path_metric_oracle(arch, t1, t2, cap=cap), "oracle", True
        except PathExplosion:
            pass
        try:
            return scale * path_metric_exact_dominated(arch, t1, t2, cap=cap), "dominated", True
        except DominanceUnverified:
            return scale * path_metric_lower(arch, t1, t2), "lower", False
    if variant == "split":
        l1 = path_lifting(arch, t1, cap=cap)
        l2 = path_lifting(arch, t2, cap=cap)
        gap = np.abs(l1.values - l2.values)
        return float(xinf * gap[l1.input_start].sum() + gap[~l1.input_start].sum()), "oracle", True
    raise PathliftError(f"unknown variant {variant!r}")


def bound_rhs(
    arch: Architecture, t1: ParamVector, t2: ParamVector, x, variant: str = "main", cap=None
) -> float:
    """Right-hand side of the chosen bound variant at input x.

    Checks the sign condition and the length and finiteness of x first.
    The split variant needs the lifting blocks, hence path enumeration.
    """
    return _rhs(arch, t1, t2, x, variant, cap)[0]


def verify_bound(
    arch: Architecture, t1: ParamVector, t2: ParamVector, x, variant: str = "main", cap=None
) -> BoundReport:
    """Evaluate both sides of the bound on one (theta, theta', x) triple."""
    rhs, method, certified = _rhs(arch, t1, t2, x, variant, cap)
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


def trajectory_point(t1: ParamVector, t2: ParamVector, t: float) -> ParamVector:
    """Geometric interpolation sign(theta) |theta|^(1-t) |theta'|^t.

    Requires matching signs; a coordinate zero on exactly one side has no
    geometric interpolant and raises MixedZeroCoordinate.  Coordinates zero
    on both sides stay zero.  Endpoints reproduce theta and theta' exactly.
    """
    arch = t1.arch
    _check_bound(arch, t2)
    check_sign_condition(t1, t2)
    mixed = np.flatnonzero((t1.vec == 0.0) != (t2.vec == 0.0))
    if mixed.size:
        raise MixedZeroCoordinate(
            f"zero on one side only at: {[arch.coord_labels[i] for i in mixed[:5]]}"
        )
    t = float(t)
    v = np.sign(t1.vec) * np.abs(t1.vec) ** (1.0 - t) * np.abs(t2.vec) ** t
    return ParamVector(arch, v)


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
    cap=None,
):
    """Locate activation changes along the trajectory and check telescoping.

    Samples the path activation vector at samples+1 uniform points of
    [0, 1], bisects every interval whose endpoints disagree down to the
    requested width, and reports each located change with the indices of
    the canonical paths whose activation flips there.  Two changes closer
    than 1/samples collapse into one located point.

    The telescoping report sums the l1 lifting distances over the segments
    cut by the located breakpoints and compares against the endpoint l1
    metric; per-coordinate monotonicity of the lifting along the trajectory
    makes the two agree for any segmentation.
    """

    def acts(t):
        return path_activations(arch, trajectory_point(t1, t2, t), x, cap=cap)

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
            if np.array_equal(am, a_lo):
                lo = mid
            else:
                hi, a_hi = mid, am
        changed = tuple(int(k) for k in np.flatnonzero(a_lo != a_hi))
        found.append(Breakpoint(t=0.5 * (lo + hi), changed_paths=changed))

    boundaries = (0.0,) + tuple(bp.t for bp in found) + (1.0,)
    liftings = [path_lifting(arch, trajectory_point(t1, t2, t), cap=cap).values for t in boundaries]
    seg = sum(
        float(np.abs(b - a).sum()) for a, b in zip(liftings[:-1], liftings[1:])
    )
    endpoint = path_metric_oracle(arch, t1, t2, cap=cap)
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
    if d < 1:
        raise PathliftError("chain needs at least one edge")
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
    |a**d - b**d| * x0.
    """
    if not (a > 0.0 and b > 0.0 and x0 > 0.0):
        raise PathliftError("equality witness needs a, b, x0 all > 0")
    arch = _chain(int(d))
    t1 = _chain_params(arch, float(a))
    t2 = _chain_params(arch, float(b))
    x = np.array([float(x0)])
    report = verify_bound(arch, t1, t2, x, variant="split")
    predicted = abs(float(a) ** int(d) - float(b) ** int(d)) * float(x0)
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

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
    DominanceUnverified,
    MixedZeroCoordinate,
    PathExplosion,
    PathliftError,
    SignConditionViolated,
    finite,
)
from .engine import Tape, run
from .graph import Architecture, ParamVector, forward, _check_bound, _check_input, _scalar
from .metrics import _lifting_pair, path_metric_exact_dominated, path_metric_oracle, path_metric_upper
# bench/workloads.py looks path_activations up here; the bisection calls the private path
from .paths import _path_activations, lifting_length, path_activations, path_lifting  # noqa: F401

HOLDS_RTOL = 1e-9
HOLDS_ATOL = 1e-12
# the sampled tables activation_breakpoints may hold: 1 GiB of float64
MAX_SAMPLED_ENTRIES = 1 << 27
# halving levels per bisection pass, trading the fixed cost of a pass
# against its 2**depth - 1 points per interval: bisecting 32 random DAGs
# (up to 5 layers of 6) took a best 52-53, 51-52, 48-50 and 49-53 ms of CPU
# at depths 3-6 with samples=32 (where 6 runs as 5), and 52-55, 50-57, 56-61
# and 60-68 ms with samples=100, in 25 rotating runs each, two sessions on
# a shared 2-CPU machine: no depth is fastest at both counts, and every
# depth locates the same breakpoints
_BISECT_DEPTH = 5


def check_sign_condition(t1: ParamVector, t2: ParamVector) -> None:
    """Raise SignConditionViolated unless theta_i * theta'_i >= 0 everywhere."""
    _check_bound(None, t1)
    _check_bound(t1.arch, t2)
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

    def render(self) -> str:
        status = "holds" if self.holds else "VIOLATED"
        return (
            f"{self.variant} variant: lhs {self.lhs!r} <= rhs {self.rhs!r}: "
            f"{status}, slack {self.slack!r}"
        )


def _rhs(arch: Architecture, t1: ParamVector, t2: ParamVector, x: np.ndarray, variant: str):
    """(right-hand side at the checked input x, metric route), for a pair
    bound to ``arch`` with matching signs.

    The main variant takes the l1 path metric from the first route that
    answers: "oracle", else "dominated", else "upper" (the refined bound).
    The split variant needs the lifting blocks, hence path enumeration.
    Raises NonFiniteValue when the right-hand side overflows.
    """
    xinf = float(np.abs(x).max())
    what = f"the right-hand side of the {variant} variant overflows float64"
    if variant == "main":
        try:
            metric, method = path_metric_oracle(arch, t1, t2), "oracle"
        except PathExplosion:
            try:
                metric, method = path_metric_exact_dominated(arch, t1, t2), "dominated"
            except DominanceUnverified:
                metric, method = path_metric_upper(arch, t1, t2, refined=True), "upper"
        return finite(what, lambda: max(xinf, 1.0) * metric), method
    if variant == "split":
        lift = _lifting_pair(arch, t1, t2)

        def split():
            gap = np.abs(lift.values[0] - lift.values[1])
            return float(xinf * gap[lift.input_start].sum() + gap[~lift.input_start].sum())

        return finite(what, split), "oracle"
    raise PathliftError(f"unknown variant {variant!r}")


def _output_gap(arch: Architecture, v1: np.ndarray, v2: np.ndarray, x: np.ndarray) -> float:
    """l1 gap between the outputs of the parameter vectors v1 and v2 at the
    checked input x, from one engine pass over their stack (each item bit
    for bit its own forward pass); raises NonFiniteValue when it overflows."""
    def gap():
        out = run(arch, np.stack((v1, v2)), x)[0][:, arch.output_pos, 0]
        return float(np.abs(out[0] - out[1]).sum())

    return finite("the output gap at x overflows float64", gap)


def _holds(lhs: float, rhs: float) -> bool:
    """Whether lhs <= rhs up to the rounding tolerances HOLDS_RTOL/HOLDS_ATOL."""
    return lhs <= rhs * (1.0 + HOLDS_RTOL) + HOLDS_ATOL


def _checked(arch: Architecture, t1: ParamVector, t2: ParamVector, x) -> np.ndarray:
    """x as a checked input, once t1 and t2 are bound to ``arch`` with
    matching signs."""
    _check_bound(arch, t1)
    check_sign_condition(t1, t2)
    return _check_input(arch, x)


def bound_rhs(arch: Architecture, t1: ParamVector, t2: ParamVector, x, variant: str = "main") -> float:
    """Right-hand side of the chosen bound variant at input x.

    Checks the sign condition and the length and finiteness of x first.
    The split variant needs the lifting blocks, hence path enumeration.
    Raises NonFiniteValue when the right-hand side overflows float64.
    """
    return _rhs(arch, t1, t2, _checked(arch, t1, t2, x), variant)[0]


def verify_bound(
    arch: Architecture, t1: ParamVector, t2: ParamVector, x, variant: str = "main"
) -> BoundReport:
    """Evaluate both sides of the bound on one (theta, theta', x) triple.

    Both outputs come from one engine pass over the stack of the two
    parameter vectors, each bit for bit its own forward pass.  Raises
    NonFiniteValue when an output or the right-hand side overflows
    float64, rather than report a side that is not a number.
    The report's ``metric_method`` names the route that answered: "oracle",
    "dominated" or "upper" in the main variant (see :func:`_rhs`).
    """
    x = _checked(arch, t1, t2, x)
    rhs, method = _rhs(arch, t1, t2, x, variant)
    lhs = _output_gap(arch, t1.vec, t2.vec, x)
    return BoundReport(
        variant=variant,
        lhs=lhs,
        rhs=rhs,
        holds=_holds(lhs, rhs),
        slack=rhs - lhs,
        metric_method=method,
    )


# ---- proof trajectory ----------------------------------------------------


def _check_trajectory(arch: Architecture, t1: ParamVector, t2: ParamVector) -> None:
    """The conditions of the trajectory, none of which depends on t."""
    _check_bound(arch, t1)
    check_sign_condition(t1, t2)  # t2 bound to t1's architecture
    mixed = np.flatnonzero((t1.vec == 0.0) != (t2.vec == 0.0))
    if mixed.size:
        raise MixedZeroCoordinate(
            f"zero on one side only at: {[arch.coord_labels[i] for i in mixed[:5]]}"
        )


def _trajectory(t1: ParamVector, t2: ParamVector):
    """The trajectory of a pair that passed :func:`_check_trajectory`, as a
    function of float times ``ts`` giving the (len(ts), n_coords) stack of
    its points, all computed by one power broadcast over the times; rows at
    t = 0 and t = 1 are theta and theta' exactly, as pow(a, 1) = a and
    pow(a, 0) = 1.  The signs and bases are set up once per pair.
    Coordinates zero on both sides (kpool biases among them) take base 1,
    as 0 ** (1 - t) is inf for t > 1, so they stay s = 0 at any t; raises
    NonFiniteValue when a point overflows."""
    s = np.sign(t1.vec)
    a1, a2 = np.where(s == 0.0, 1.0, np.abs([t1.vec, t2.vec]))

    def points(ts) -> np.ndarray:
        t = np.asarray(ts, dtype=np.float64)[:, None]

        def what(stack):
            first = np.argmin(np.isfinite(stack).all(axis=1))
            return f"the trajectory point at t={float(t[first, 0])!r} overflows float64"

        return finite(what, lambda: s * a1 ** (1.0 - t) * a2**t)

    return points


def trajectory_point(t1: ParamVector, t2: ParamVector, t: float) -> ParamVector:
    """Geometric interpolation sign(theta) |theta|^(1-t) |theta'|^t.

    Requires matching signs; a coordinate zero on exactly one side has no
    geometric interpolant and raises MixedZeroCoordinate.  Coordinates zero
    on both sides stay zero.  Endpoints reproduce theta and theta' exactly.
    ``t`` must be a real number (not a bool), else PathliftError.
    """
    t = _scalar(t, PathliftError, "t must be a number")
    _check_bound(None, t1)
    arch = t1.arch
    _check_trajectory(arch, t1, t2)
    return ParamVector(arch, _trajectory(t1, t2)([t])[0])


@dataclass(frozen=True)
class Breakpoint:
    t: float
    changed_paths: tuple


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
    engine pass over the stack of their trajectory points.  Each round
    then evaluates the next 5 halving levels of every interval still open
    (the 31 midpoints it may visit) in one pass, then replays the halvings
    on Python floats, one interval at a time, reading each decision from
    that pass, so a call costs 1 + ceil(halvings / 5) passes.  A round
    takes fewer levels when 31 points per open interval would pass the
    samples + 1 points of the sampling pass, which no pass exceeds.
    Every interval keeps its own bounds, as if it were bisected alone,
    one midpoint at a time.  Set-up is once per call: ``x`` is checked with
    the other arguments, and the trajectory's signs and bases give the
    sampling pass, every bisection pass and the boundary liftings their
    points, bit for bit as :func:`trajectory_point` does.  The passes share
    one engine tape, replaced only when the stack size changes.

    The telescoping report sums the l1 lifting distances over the segments
    cut by the located breakpoints and compares against the endpoint l1
    metric; per-coordinate monotonicity of the lifting along the trajectory
    makes the two agree for any segmentation.  All boundary liftings are one
    stacked ``path_lifting``, whose first and last rows (theta, theta') give
    the endpoint.

    ``samples`` must be an integer of at least 1 and ``width`` a number of
    at least 0, neither a bool.
    Every sample holds about n_paths + n_coords + n_neurons entries, so
    ``(samples + 1)`` times that may be at most ``MAX_SAMPLED_ENTRIES``
    (2**27, 1 GiB of float64); a larger count raises PathliftError before
    anything is sampled.
    An interval whose midpoint rounds onto one of its ends cannot shrink
    further and stops there, so a width at or below the float spacing ends
    at adjacent doubles.  NonFiniteValue is raised for any evaluated point
    that overflows, including midpoints a round evaluated past where its
    interval stopped.
    """
    samples = _scalar(samples, PathliftError, "samples must be an integer >= 1", lambda n: n >= 1, whole=True)
    width = _scalar(width, PathliftError, "width must be a number >= 0", lambda w: w >= 0.0)
    _check_trajectory(arch, t1, t2)
    x = _check_input(arch, x)
    per_sample = lifting_length(arch) + arch.n_coords + arch.n_neurons
    if (samples + 1) * per_sample > MAX_SAMPLED_ENTRIES:
        raise PathliftError(
            f"{samples} samples of {per_sample} entries each exceed the "
            f"{MAX_SAMPLED_ENTRIES} sampled entries a call may hold"
        )
    ts = np.linspace(0.0, 1.0, samples + 1)
    along = _trajectory(t1, t2)
    tape = None

    def acts(times):
        nonlocal tape
        if tape is None or len(tape.vals) != len(times):
            tape = None  # freed before the next: one tape alive at a time
            tape = Tape(arch, 1, len(times))
        return _path_activations(arch, along(times), x, tape)

    sampled = acts(ts)
    # a_lo stays the sample at lo: lo moves only onto points that match it
    first = np.flatnonzero(np.any(sampled[:-1] != sampled[1:], axis=1))
    lo, hi = ts[first].tolist(), ts[first + 1].tolist()
    a_lo, a_hi = sampled[first], sampled[first + 1]
    live = [i for i, (left, right) in enumerate(zip(lo, hi)) if right - left > width]
    while live:
        # the next `depth` halving levels of every open interval, in order
        # along [lo, hi], midpoint j from its neighbours s away as its one-level
        # halving would compute it; no pass holds more than the sampling pass
        depth = min(_BISECT_DEPTH, ((samples + 1) // len(live) + 1).bit_length() - 1)
        n = 1 << depth
        mids = [(j, s) for s in (n >> k for k in range(1, depth + 1)) for j in range(s, n, 2 * s)]
        grid = [[lo[i]] + [0.0] * (n - 1) + [hi[i]] for i in live]
        for points in grid:
            for j, s in mids:
                points[j] = 0.5 * (points[j - s] + points[j + s])
        evaluated = acts([t for points in grid for t in points[1:-1]]).reshape(len(live), n - 1, -1)
        matches = np.all(evaluated == a_lo[live][:, None, :], axis=2)
        # replay the one-level halvings on Python floats, one interval at a
        # time from its middle point; a_hi is the last midpoint that differs
        still = []
        for i, points, same, rows in zip(live, grid, matches.tolist(), evaluated):
            left, right, last, pos, step = points[0], points[-1], None, n // 2, n // 2
            while step:
                mid = points[pos]
                split = left != mid != right  # else the midpoint rounded onto an end
                step //= 2
                if same[pos - 1]:
                    left, pos = mid, pos + step
                else:
                    right, last, pos = mid, pos - 1, pos - step
                if not (split and right - left > width):
                    break
            else:
                still.append(i)
            lo[i], hi[i] = left, right
            if last is not None:
                a_hi[i] = rows[last]
        live = still
    found = [
        Breakpoint(t=0.5 * (left + right), changed_paths=tuple(np.flatnonzero(a != b).tolist()))
        for left, right, a, b in zip(lo, hi, a_lo, a_hi)
    ]

    boundaries = (0.0,) + tuple(bp.t for bp in found) + (1.0,)
    liftings = path_lifting(arch, along(boundaries)).values
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
    |a**d - b**d| * x0.  ``d`` must be a whole number of at least 1, and
    a, b and x0 real numbers (not bools), else PathliftError.
    """
    d = _scalar(d, PathliftError, "chain length d must be an integer >= 1", lambda n: n >= 1, whole=True)
    a, b, x0 = (_scalar(v, PathliftError, f"{name} must be a number") for name, v in (("a", a), ("b", b), ("x0", x0)))
    if not (a > 0.0 and b > 0.0 and x0 > 0.0):
        raise PathliftError("equality witness needs a, b, x0 all > 0")
    arch = _chain(d)
    t1 = _chain_params(arch, a)
    t2 = _chain_params(arch, b)
    x = np.array([x0])
    report = verify_bound(arch, t1, t2, x, variant="split")
    predicted = finite("the predicted gap |a**d - b**d| * x0 overflows float64",
                       lambda: abs(a**d - b**d) * x0)
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

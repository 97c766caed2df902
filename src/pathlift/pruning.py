"""Pruning scores, masks, and the path-magnitude error guarantee.

The path-magnitude score of a coordinate is the l1 path norm lost by
zeroing it: the total absolute lifting weight of every path through the
coordinate.  Because the path lifting is rescaling-invariant, so are the
scores, and the masks chosen from them; magnitude pruning and estimated
second-order criteria do not share that property.

Three interchangeable routes compute the scores: the autodiff identity
theta * grad(l1 path norm), per-coordinate path-norm differences (one
stacked sum-pool pass per chunk of coordinates), and brute-force
accumulation over enumerated paths.  Zeroing a coordinate set I anywhere
changes the network output at x by at most the sum of the coordinates'
scores times max(1, |x|_inf).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .autodiff import grad_path_norm, grad_scalar, scalar_value
from .engine import _BLOCK_ELEMS
from .errors import DimensionMismatch, InfeasibleAmount, MissingData, NonFiniteValue, PathliftError
from .graph import Architecture, ParamVector, forward, _check_bound, _check_input, _count, _floats
from .metrics import _pathnorm_diffs
from .paths import path_lifting

# the finite-difference step of both OBD scorers
FD_STEP = 1e-4


@dataclass(frozen=True)
class ScoreVector:
    criterion: str
    method: str
    values: np.ndarray


@dataclass(frozen=True)
class Mask:
    """keep[i] is False exactly on the pruned coordinate set."""

    keep: np.ndarray
    pruned: tuple

    @property
    def s(self) -> np.ndarray:
        return self.keep.astype(np.float64)

    def apply(self, theta: ParamVector) -> ParamVector:
        return ParamVector(theta.arch, theta.vec * self.s)

    def hamming(self, other: "Mask") -> int:
        return int(np.count_nonzero(self.keep != other.keep))


def path_mag_scores(arch: Architecture, theta: ParamVector, method: str = "autodiff") -> ScoreVector:
    """Per-coordinate l1 path norm drop from zeroing that coordinate.

    methods: "autodiff" (one sum-pool forward/backward), "pathnorm_diff"
    (the norm minus the norm with the coordinate zeroed, stacked passes),
    "bruteforce" (sum |phi_p| over enumerated paths through the
    coordinate).  All three agree to rounding.
    """
    _check_bound(arch, theta)
    if method == "autodiff":
        values = theta.vec * grad_path_norm(arch, theta)
    elif method == "pathnorm_diff":
        values = _pathnorm_diffs(arch, theta)
    elif method == "bruteforce":
        lift = path_lifting(arch, theta)
        values = lift.coordinate_sums(np.abs(lift.values))
    else:
        raise PathliftError(f"unknown path-magnitude method {method!r}")
    return ScoreVector(criterion="pathmag", method=method, values=values)


def magnitude_scores(arch: Architecture, theta: ParamVector) -> ScoreVector:
    return ScoreVector(criterion="magnitude", method="abs", values=np.abs(theta.vec))


def _require_data(data):
    """The inputs (as floats) and targets of an (X, y) data batch."""
    if data is None:
        raise MissingData("this criterion needs a data batch (X, y)")
    try:
        x, y = data
    except (TypeError, ValueError):
        raise MissingData("the data batch must be an (X, y) pair") from None
    x = _floats(x, "input entries must be numbers")
    if y is not None and not np.isfinite(_floats(y, "target entries must be numbers")).all():
        raise NonFiniteValue("the data batch has a NaN or infinite target")
    return x, y


def obd_fd_scores(
    arch: Architecture,
    theta: ParamVector,
    data,
    loss: str = "squared_error",
) -> ScoreVector:
    """Second-order saliency 0.5 * h_ii * theta_i^2 with the loss Hessian
    diagonal taken by exact per-coordinate central second differences.

    The 2 * n_coords perturbed losses run as stacks of parameter rows, each
    stack's tape about one gathered block of the engine (1 MB); every row
    is bit for bit its own pass, so the scores are those of one loss
    evaluation per perturbed vector."""
    x, y = _require_data(data)
    base = scalar_value(arch, theta, x, aggregate=loss, target=y)
    batch = 1 if x.ndim == 1 else x.shape[0]
    values = np.zeros(arch.n_coords)
    vec = theta.vec
    step = max(1, _BLOCK_ELEMS // (2 * (arch.n_neurons + 1) * batch))
    for lo in range(0, arch.n_coords, step):
        coords = np.arange(lo, min(lo + step, arch.n_coords))
        steps = np.zeros((coords.size, arch.n_coords))
        steps[np.arange(coords.size), coords] = FD_STEP
        both = scalar_value(arch, np.concatenate((vec + steps, vec - steps)), x, aggregate=loss, target=y)
        up, dn = both[: coords.size], both[coords.size :]
        h = (up - 2.0 * base + dn) / (FD_STEP * FD_STEP)
        values[coords] = 0.5 * h * vec[coords] * vec[coords]
    return ScoreVector(criterion="obd", method="fd", values=values)


def obd_hutchinson_scores(
    arch: Architecture,
    theta: ParamVector,
    data,
    loss: str = "squared_error",
    probes: int = 32,
    seed=0,
) -> ScoreVector:
    """Same saliency with the Hessian diagonal estimated stochastically.

    Averages (H v) * v over Rademacher probes v, the Hessian-vector product
    taken by central differencing of the loss gradient.  Sharing the probe
    seed across reparametrizations does NOT make the estimate rescaling
    invariant (the probes do not transform), unlike the exact diagonal.
    """
    probes = _count(probes, "probes", PathliftError)
    x, y = _require_data(data)
    rng = np.random.default_rng(seed)
    vec = theta.vec
    est = np.zeros(arch.n_coords)
    for _ in range(probes):
        v = rng.integers(0, 2, size=arch.n_coords).astype(np.float64) * 2.0 - 1.0
        _, gu = grad_scalar(arch, ParamVector(arch, vec + FD_STEP * v), x, aggregate=loss, target=y)
        _, gd = grad_scalar(arch, ParamVector(arch, vec - FD_STEP * v), x, aggregate=loss, target=y)
        est += (gu - gd) / (2.0 * FD_STEP) * v
    est /= probes
    return ScoreVector(criterion="obd", method="hutchinson", values=0.5 * est * vec * vec)


def baseline_scores(
    arch: Architecture,
    theta: ParamVector,
    criterion: str,
    data=None,
    loss: str = "squared_error",
) -> ScoreVector:
    if criterion == "magnitude":
        return magnitude_scores(arch, theta)
    if criterion == "obd_fd":
        return obd_fd_scores(arch, theta, data, loss=loss)
    if criterion == "obd_hutchinson":
        return obd_hutchinson_scores(arch, theta, data, loss=loss)
    raise PathliftError(f"unknown baseline criterion {criterion!r}")


def _score_values(arch: Architecture, scores: ScoreVector) -> np.ndarray:
    """``scores.values``, one per coordinate of ``arch``, or DimensionMismatch."""
    values = np.asarray(scores.values)
    if values.shape != (arch.n_coords,):
        raise DimensionMismatch(f"scores have shape {values.shape}, not ({arch.n_coords},)")
    return values


def _eligible(arch: Architecture, edges_only: bool) -> np.ndarray:
    """Boolean mask of the coordinates a mask may remove.

    kpool bias coordinates are pinned to zero and are never real degrees of
    freedom, so they are excluded from ranking and from the budget.
    """
    ok = np.ones(arch.n_coords, dtype=bool)
    if edges_only:
        ok[arch.n_edges :] = False
    else:
        ok[arch._pool_bias] = False
    return ok


def _resolve_count(n_eligible: int, fraction, count) -> int:
    if (fraction is None) == (count is None):
        raise InfeasibleAmount("specify exactly one of fraction or count")
    if fraction is not None:
        if not isinstance(fraction, numbers.Real) or isinstance(fraction, bool):
            raise InfeasibleAmount(f"fraction must be a number, got {fraction!r}")
        f = float(fraction)
        if not 0.0 <= f <= 1.0:
            raise InfeasibleAmount(f"fraction must lie in [0, 1], got {f}")
        return int(np.floor(f * n_eligible))
    if not isinstance(count, numbers.Integral):
        raise InfeasibleAmount(f"count must be an integer, got {count!r}")
    k = int(count)
    if not 0 <= k <= n_eligible:
        raise InfeasibleAmount(f"count must lie in [0, {n_eligible}], got {k}")
    return k


def apply_prune(
    theta: ParamVector,
    scores: ScoreVector,
    fraction=None,
    count=None,
    edges_only: bool = False,
    iterative: bool = False,
    rescore=None,
):
    """Zero the lowest-scoring coordinates; returns (pruned theta, mask).

    Reverse hard thresholding: the requested number of eligible coordinates
    with the smallest scores is removed, ties resolved toward the earlier
    coordinate in canonical order (stable).  With iterative=True the scores
    are recomputed by ``rescore(theta)`` before every single removal
    (``scores`` is then unused); ``rescore`` defaults to autodiff
    path-magnitude scores.
    """
    arch = theta.arch
    ok = _eligible(arch, edges_only)
    n_prune = _resolve_count(int(ok.sum()), fraction, count)
    keep = np.ones(arch.n_coords, dtype=bool)
    if iterative:
        if rescore is None:
            rescore = lambda th: path_mag_scores(arch, th, method="autodiff")
        cur = theta
        for _ in range(n_prune):
            alive = np.flatnonzero(ok & keep)
            pick = int(alive[np.argmin(rescore(cur).values[alive])])  # first minimum: earliest
            keep[pick] = False
            cur = cur.replace({pick: 0.0})
    else:
        eligible = np.flatnonzero(ok)
        keep[eligible[np.argsort(_score_values(arch, scores)[eligible], kind="stable")[:n_prune]]] = False
    mask = Mask(keep=keep, pruned=tuple(np.flatnonzero(~keep).tolist()))
    return mask.apply(theta), mask


@dataclass(frozen=True)
class PruneBoundReport:
    bound: float
    lhs: float
    holds: bool


def pruning_error_bound(
    arch: Architecture,
    theta: ParamVector,
    pruned_coords,
    x,
    scores: ScoreVector | None = None,
) -> PruneBoundReport:
    """Output-change guarantee for zeroing the given coordinate set at x (a
    coordinate listed twice counts once; entries must be integers).

    bound = (sum of the coordinates' path-magnitude scores) * max(1, |x|_inf),
    compared against the realized l1 output change.  Scores are taken at the
    unpruned theta; any computation route works, autodiff by default.
    """
    x = _check_input(arch, x)
    if scores is None:
        scores = path_mag_scores(arch, theta, method="autodiff")
    try:
        idx = np.asarray(list(pruned_coords))
    except (TypeError, ValueError, OverflowError):
        idx = None
    if idx is None or idx.size and (idx.ndim != 1 or idx.dtype.kind not in "iu"):
        raise InfeasibleAmount("pruned coordinates must be a flat sequence of integers")
    idx = np.unique(idx.astype(np.int64))
    if idx.size and (idx.min() < 0 or idx.max() >= arch.n_coords):
        raise InfeasibleAmount("pruned coordinate index out of range")
    bound = float(_score_values(arch, scores)[idx].sum()) * max(1.0, float(np.abs(x).max()))
    keep = np.ones(arch.n_coords, dtype=bool)
    keep[idx] = False
    pruned_theta = ParamVector(arch, theta.vec * keep)
    lhs = float(np.abs(forward(arch, theta, x) - forward(arch, pruned_theta, x)).sum())
    return PruneBoundReport(bound=bound, lhs=lhs, holds=lhs <= bound * (1.0 + 1e-9) + 1e-12)

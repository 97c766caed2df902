"""Pruning scores, masks, and the path-magnitude error guarantee.

The path-magnitude score of a coordinate is the l1 path norm lost by
zeroing it: the total absolute lifting weight of every path through the
coordinate.  Because the path lifting is rescaling-invariant, so are the
scores, and the masks chosen from them.  Magnitude scores are not, nor
are the OBD finite differences (an absolute step, three nearly cancelling
losses), though the exact OBD saliency 0.5 * H_ii * theta_i^2 would be:
between kinks H_ii is the Gauss-Newton diagonal, and theta_i * df/dtheta_i
does not move under rescaling.

Three interchangeable routes compute the scores: the autodiff identity
theta * grad(l1 path norm), per-coordinate path-norm differences (one
sum-pool pass per coordinate), and brute-force accumulation over
enumerated paths.  Zeroing a coordinate set I anywhere changes the
network output at x by at most the sum of the coordinates' scores times
max(1, |x|_inf).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import grad_path_norm, scalar_value
from .errors import DimensionMismatch, InfeasibleAmount, MissingData, PathliftError, finite
from .graph import Architecture, ParamVector, _check_batch, _check_bound, _check_input, _finite, _scalar
from .lipschitz import _holds, _output_gap
from .metrics import _pathnorm_diffs
from .paths import path_lifting

# the finite-difference step of the OBD scorer
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
        _check_bound(None, theta)
        if self.keep.shape != theta.vec.shape:
            raise DimensionMismatch(f"the mask covers {self.keep.size} coordinates, the parameters {len(theta)}")
        return ParamVector(theta.arch, theta.vec * self.s)

    def hamming(self, other: "Mask") -> int:
        return int(np.count_nonzero(self.keep != other.keep))


def path_mag_scores(arch: Architecture, theta: ParamVector, method: str = "autodiff") -> ScoreVector:
    """Per-coordinate l1 path norm drop from zeroing that coordinate.

    methods: "autodiff" (one sum-pool forward/backward), "pathnorm_diff"
    (the norm minus the norm with the coordinate zeroed, one pass each),
    "bruteforce" (sum |phi_p| over enumerated paths through the
    coordinate).  All three agree to rounding.
    """
    _check_bound(arch, theta)
    if method == "autodiff":
        values = theta.vec * grad_path_norm(arch, theta)
    elif method == "pathnorm_diff":
        values = _pathnorm_diffs(arch, theta)
    elif method == "bruteforce":
        what = "a path-magnitude score overflows float64"
        lift = finite(what, path_lifting, arch, theta)
        values = finite(what, lift.coordinate_sums, np.abs(lift.values))
    else:
        raise PathliftError(f"unknown path-magnitude method {method!r}")
    return ScoreVector(criterion="pathmag", method=method, values=values)


def magnitude_scores(arch: Architecture, theta: ParamVector) -> ScoreVector:
    _check_bound(arch, theta)
    return ScoreVector(criterion="magnitude", method="abs", values=np.abs(theta.vec))


def obd_fd_scores(arch: Architecture, theta: ParamVector, data, loss: str = "squared_error") -> ScoreVector:
    """Second-order saliency 0.5 * h_ii * theta_i^2 with the loss Hessian
    diagonal taken by per-coordinate central second differences with the
    absolute step FD_STEP (rounding noise at large weights).

    Each coordinate takes one loss evaluation of the 2-row stack (theta +
    step, theta - step); every row is bit for bit its own pass, so the
    scores are those of one loss evaluation per perturbed vector.  Raises
    NonFiniteValue when a loss or a score overflows float64."""
    try:
        x, y = data
    except (TypeError, ValueError):
        raise MissingData("this criterion needs a data batch, an (X, y) pair") from None
    x = _check_batch(arch, x)
    base = scalar_value(arch, theta, x, aggregate=loss, target=y)
    vec = theta.vec

    def saliencies():
        values, step = np.zeros(arch.n_coords), np.zeros(arch.n_coords)
        for i in range(arch.n_coords):
            step[i] = FD_STEP
            up, dn = scalar_value(arch, np.stack((vec + step, vec - step)), x, aggregate=loss, target=y)
            step[i] = 0.0
            values[i] = 0.5 * ((up - 2.0 * base + dn) / (FD_STEP * FD_STEP)) * vec[i] * vec[i]
        return values

    return ScoreVector(criterion="obd", method="fd", values=finite("the OBD scores overflow float64", saliencies))


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
    raise PathliftError(f"unknown baseline criterion {criterion!r}")


def _score_values(arch: Architecture, scores: ScoreVector) -> np.ndarray:
    """``scores.values``: one finite number per coordinate of ``arch``."""
    values = _finite(scores.values, "score vector")
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
        f = _scalar(fraction, InfeasibleAmount, "fraction must be a number in [0, 1]", lambda v: 0.0 <= v <= 1.0)
        return int(np.floor(f * n_eligible))
    k = _scalar(count, InfeasibleAmount, "count must be an integer", whole=True)
    if not 0 <= k <= n_eligible:
        raise InfeasibleAmount(f"count must lie in [0, {n_eligible}], got {k}")
    return k


def apply_prune(
    theta: ParamVector,
    scores: ScoreVector,
    fraction=None,
    count=None,
    edges_only: bool = False,
):
    """Zero the lowest-scoring coordinates; returns (pruned theta, mask).

    Reverse hard thresholding: the requested number of eligible coordinates
    with the smallest scores is removed, ties resolved toward the earlier
    coordinate in canonical order (stable).  Give exactly one amount: a
    ``fraction`` of the eligible coordinates, a number in [0, 1] (rounded
    down), or a ``count``, an integer from 0 to their number; anything else
    raises InfeasibleAmount.
    """
    _check_bound(None, theta)
    arch = theta.arch
    eligible = np.flatnonzero(_eligible(arch, edges_only))
    n_prune = _resolve_count(eligible.size, fraction, count)
    keep = np.ones(arch.n_coords, dtype=bool)
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
    compared against the realized l1 output change, both outputs from one
    engine pass over the stack of the two parameter vectors.  Scores are
    taken at the unpruned theta; any computation route works, autodiff by
    default.  Raises NonFiniteValue when the bound or the output change
    overflows float64.
    """
    _check_bound(arch, theta)
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
    values = _score_values(arch, scores)
    bound = finite("the pruning error bound overflows float64",
                   lambda: float(values[idx].sum()) * max(1.0, float(np.abs(x).max())))
    keep = np.ones(arch.n_coords, dtype=bool)
    keep[idx] = False
    lhs = _output_gap(arch, theta.vec, theta.vec * keep, x)
    return PruneBoundReport(bound=bound, lhs=lhs, holds=_holds(lhs, bound))

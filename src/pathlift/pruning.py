"""Pruning scores, masks, and the path-magnitude error guarantee.

The path-magnitude score of a coordinate is the l1 path norm lost by
zeroing it: the total absolute lifting weight of every path through the
coordinate.  Because the path lifting is rescaling-invariant, so are the
scores, and the masks chosen from them; magnitude pruning and estimated
second-order criteria do not share that property.

Three interchangeable routes compute the scores: the autodiff identity
theta * grad(l1 path norm), per-coordinate path-norm differences (two
forward passes per coordinate), and brute-force accumulation over
enumerated paths.  Zeroing a coordinate set I anywhere changes the network
output at x by at most the sum of the coordinates' scores times
max(1, |x|_inf).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import grad_path_norm, grad_scalar, scalar_value
from .errors import InfeasibleAmount, MissingData, PathliftError
from .graph import KPOOL, Architecture, ParamVector, forward, _check_bound
from .metrics import path_norm_fast
from .paths import path_lifting


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


def path_mag_scores(
    arch: Architecture, theta: ParamVector, method: str = "autodiff", cap=None
) -> ScoreVector:
    """Per-coordinate l1 path norm drop from zeroing that coordinate.

    methods: "autodiff" (one sum-pool forward/backward), "pathnorm_diff"
    (two forwards per coordinate), "bruteforce" (sum |phi_p| over enumerated
    paths through the coordinate).  All three agree to rounding.
    """
    _check_bound(arch, theta)
    if method == "autodiff":
        values = theta.vec * grad_path_norm(arch, theta)
    elif method == "pathnorm_diff":
        base = path_norm_fast(arch, theta)
        values = np.zeros(arch.n_coords)
        for i in range(arch.n_coords):
            if theta.vec[i] == 0.0:
                continue
            values[i] = base - path_norm_fast(arch, theta.replace({i: 0.0}))
    elif method == "bruteforce":
        lift = path_lifting(arch, theta, cap=cap)
        values = lift.coordinate_sums(np.abs(lift.values))
    else:
        raise PathliftError(f"unknown path-magnitude method {method!r}")
    return ScoreVector(criterion="pathmag", method=method, values=values)


def magnitude_scores(arch: Architecture, theta: ParamVector) -> ScoreVector:
    return ScoreVector(criterion="magnitude", method="abs", values=np.abs(theta.vec))


def _require_data(data):
    if data is None:
        raise MissingData("this criterion needs a data batch (X, y)")
    x, y = data
    return np.asarray(x, dtype=np.float64), y


def obd_fd_scores(
    arch: Architecture,
    theta: ParamVector,
    data,
    loss: str = "squared_error",
    eps: float = 1e-4,
) -> ScoreVector:
    """Second-order saliency 0.5 * h_ii * theta_i^2 with the loss Hessian
    diagonal taken by exact per-coordinate central second differences."""
    x, y = _require_data(data)
    base = scalar_value(arch, theta, x, aggregate=loss, target=y)
    values = np.zeros(arch.n_coords)
    vec = theta.vec
    for i in range(arch.n_coords):
        step = np.zeros_like(vec)
        step[i] = eps
        up = scalar_value(arch, ParamVector(arch, vec + step), x, aggregate=loss, target=y)
        dn = scalar_value(arch, ParamVector(arch, vec - step), x, aggregate=loss, target=y)
        h = (up - 2.0 * base + dn) / (eps * eps)
        values[i] = 0.5 * h * vec[i] * vec[i]
    return ScoreVector(criterion="obd", method="fd", values=values)


def obd_hutchinson_scores(
    arch: Architecture,
    theta: ParamVector,
    data,
    loss: str = "squared_error",
    probes: int = 32,
    seed=0,
    eps: float = 1e-4,
) -> ScoreVector:
    """Same saliency with the Hessian diagonal estimated stochastically.

    Averages (H v) * v over Rademacher probes v, the Hessian-vector product
    taken by central differencing of the loss gradient.  Sharing the probe
    seed across reparametrizations does NOT make the estimate rescaling
    invariant (the probes do not transform), unlike the exact diagonal.
    """
    x, y = _require_data(data)
    rng = np.random.default_rng(seed)
    vec = theta.vec
    est = np.zeros(arch.n_coords)
    for _ in range(int(probes)):
        v = rng.integers(0, 2, size=arch.n_coords).astype(np.float64) * 2.0 - 1.0
        _, gu = grad_scalar(arch, ParamVector(arch, vec + eps * v), x, aggregate=loss, target=y)
        _, gd = grad_scalar(arch, ParamVector(arch, vec - eps * v), x, aggregate=loss, target=y)
        est += (gu - gd) / (2.0 * eps) * v
    est /= max(int(probes), 1)
    return ScoreVector(criterion="obd", method="hutchinson", values=0.5 * est * vec * vec)


def baseline_scores(
    arch: Architecture,
    theta: ParamVector,
    criterion: str,
    data=None,
    loss: str = "squared_error",
    probes: int = 32,
    seed=0,
) -> ScoreVector:
    if criterion == "magnitude":
        return magnitude_scores(arch, theta)
    if criterion == "obd_fd":
        return obd_fd_scores(arch, theta, data, loss=loss)
    if criterion == "obd_hutchinson":
        return obd_hutchinson_scores(arch, theta, data, loss=loss, probes=probes, seed=seed)
    raise PathliftError(f"unknown baseline criterion {criterion!r}")


def _eligible(arch: Architecture, edges_only: bool) -> np.ndarray:
    """Boolean mask of the coordinates a mask may remove.

    kpool bias coordinates are pinned to zero and are never real degrees of
    freedom, so they are excluded from ranking and from the budget.
    """
    ok = np.ones(arch.n_coords, dtype=bool)
    if edges_only:
        ok[arch.n_edges :] = False
    else:
        ok[arch.bias_coord[arch.kinds == KPOOL]] = False
    return ok


def _resolve_count(n_eligible: int, fraction, count) -> int:
    if (fraction is None) == (count is None):
        raise InfeasibleAmount("specify exactly one of fraction or count")
    if fraction is not None:
        f = float(fraction)
        if not 0.0 <= f <= 1.0:
            raise InfeasibleAmount(f"fraction must lie in [0, 1], got {f}")
        return int(np.floor(f * n_eligible))
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
        keep[eligible[np.argsort(scores.values[eligible], kind="stable")[:n_prune]]] = False
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
    """Output-change guarantee for zeroing the given coordinate set at x.

    bound = (sum of the coordinates' path-magnitude scores) * max(1, |x|_inf),
    compared against the realized l1 output change.  Scores are taken at the
    unpruned theta; any computation route works, autodiff by default.
    """
    if scores is None:
        scores = path_mag_scores(arch, theta, method="autodiff")
    idx = np.asarray(sorted(int(i) for i in pruned_coords), dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= arch.n_coords):
        raise InfeasibleAmount("pruned coordinate index out of range")
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    bound = float(scores.values[idx].sum()) * max(1.0, float(np.abs(x).max()))
    keep = np.ones(arch.n_coords, dtype=bool)
    keep[idx] = False
    pruned_theta = ParamVector(arch, theta.vec * keep)
    lhs = float(np.abs(forward(arch, theta, x) - forward(arch, pruned_theta, x)).sum())
    return PruneBoundReport(bound=bound, lhs=lhs, holds=lhs <= bound * (1.0 + 1e-9) + 1e-12)

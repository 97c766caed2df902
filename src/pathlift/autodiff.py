"""Reverse-mode differentiation over the network DAG.

One tape pass per batch on the compiled level schedule (see
:mod:`pathlift.engine`): forward stores every neuron's value (a vector over
the batch), backward walks the levels in reverse and accumulates adjoints
into the flat parameter coordinate vector.  Convention choices that matter:

* relu passes a zero subgradient at exactly 0;
* kpool routes its adjoint to the selected antecedent only (first one, in
  stored antecedent order, achieving the k-th largest contribution), the
  same tie-break the forward pass and the path activations use;
* kpool bias coordinates are pinned to zero, so their gradient is reported
  as 0.

The path norm gradient differentiates the path norm's one sum-pool pass
(see :mod:`pathlift.metrics`) on the same compiled schedule, then applies
the chain rule through the absolute value with sign(0) taken to be 0.
"""

from __future__ import annotations

import numpy as np

from .engine import gradient, run
from .errors import DimensionMismatch, MissingData, NonFiniteValue, PathliftError
from .graph import Architecture, ParamVector, _check_bound
from .metrics import _sum_pool_tape


def _aggregate(arch: Architecture, vals, aggregate, target):
    """Scalar value and output adjoint [d_out, B] for the chosen aggregate."""
    out = vals[arch.output_pos]  # [d_out, B]
    nb = out.shape[1]
    if aggregate == "sum_outputs":
        return float(out.sum()), np.ones_like(out)
    if target is None:
        raise MissingData(f"aggregate {aggregate!r} needs a target")
    if aggregate == "squared_error":
        y = np.asarray(target, dtype=np.float64)
        # accepted target shapes: (B, d_out); (B,) when d_out == 1; (d_out,)
        # as a shared target for the whole batch
        if y.ndim == 2 and y.shape == (nb, arch.d_out):
            y = y.T
        elif y.ndim == 1 and arch.d_out == 1 and y.shape[0] == nb:
            y = y[None, :]
        elif y.ndim == 1 and y.shape[0] == arch.d_out:
            y = np.repeat(y[:, None], nb, axis=1)
        else:
            raise DimensionMismatch(
                f"target shape {y.shape} does not fit batch {nb} x {arch.d_out} outputs"
            )
        diff = out - y
        return float(0.5 * np.sum(diff * diff)), diff
    if aggregate == "logistic":
        y = np.asarray(target).reshape(-1)
        if y.shape[0] != nb:
            raise DimensionMismatch(f"need one class label per batch element, got {y.shape}")
        if arch.d_out == 1:
            z = out[0]
            value = float(np.sum(np.logaddexp(0.0, z) - y * z))
            return value, (1.0 / (1.0 + np.exp(-z)) - y)[None, :]
        yi = y.astype(np.int64)
        if yi.min() < 0 or yi.max() >= arch.d_out:
            raise DimensionMismatch(f"class labels must lie in [0, {arch.d_out})")
        zmax = out.max(axis=0)
        lse = zmax + np.log(np.exp(out - zmax).sum(axis=0))
        value = float(np.sum(lse - out[yi, np.arange(nb)]))
        p = np.exp(out - lse)
        p[yi, np.arange(nb)] -= 1.0
        return value, p
    raise PathliftError(f"unknown aggregate {aggregate!r}")


def scalar_value(arch: Architecture, theta: ParamVector, x, aggregate="sum_outputs", target=None):
    _check_bound(arch, theta)
    vals, _ = run(arch, theta.vec, x)
    value, _ = _aggregate(arch, vals, aggregate, target)
    return value


def grad_scalar(arch: Architecture, theta: ParamVector, x, aggregate="sum_outputs", target=None):
    """(scalar, gradient over parameter coordinates).

    The scalar is summed over the batch: the sum of all outputs, the summed
    squared-error loss 0.5*|out - y|^2, or the summed logistic loss
    (softmax cross-entropy against class labels; a sigmoid against 0/1
    labels when there is a single output).
    """
    _check_bound(arch, theta)
    vals, win = run(arch, theta.vec, x)
    value, out_adj = _aggregate(arch, vals, aggregate, target)
    return value, gradient(arch, theta.vec, vals, win, out_adj)


def grad_path_norm(arch: Architecture, theta: ParamVector) -> np.ndarray:
    """Gradient of the l1 path norm at theta.

    One forward/backward pass of |theta| with every pool summing, followed
    by the sign chain rule, with sign(0) = 0.  Multiplying coordinatewise by
    theta itself yields each coordinate's total path weight.  Raises
    NonFiniteValue when the norm or a gradient entry overflows float64.
    """
    w, vals = _sum_pool_tape(arch, theta)
    with np.errstate(over="ignore", invalid="ignore"):
        g = np.sign(theta.vec) * gradient(arch, w, vals, None, np.ones((arch.d_out, 1)))
    if not np.isfinite(g).all():
        raise NonFiniteValue("the path norm gradient overflows float64")
    return g


def grad_check(
    arch: Architecture,
    theta: ParamVector,
    x,
    aggregate="sum_outputs",
    target=None,
    eps: float = 1e-6,
):
    """Central-difference check of grad_scalar.

    Returns (autodiff gradient, finite-difference gradient, max relative
    error), the relative error being measured against the larger magnitude
    with a 1e-12 floor.  Meaningful only when no activation sits within eps
    of its kink.
    """
    _, ad = grad_scalar(arch, theta, x, aggregate, target)
    fd = np.zeros_like(ad)
    base = theta.vec
    for i in range(arch.n_coords):
        step = np.zeros_like(base)
        step[i] = eps
        up = scalar_value(arch, ParamVector(arch, base + step), x, aggregate, target)
        dn = scalar_value(arch, ParamVector(arch, base - step), x, aggregate, target)
        fd[i] = (up - dn) / (2.0 * eps)
    denom = np.maximum(np.maximum(np.abs(ad), np.abs(fd)), 1e-12)
    rel = float(np.max(np.abs(ad - fd) / denom)) if ad.size else 0.0
    return ad, fd, rel

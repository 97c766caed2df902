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

The path norm gradient is the adjoint sweep that :mod:`pathlift.metrics`
runs on the tape of the path norm's one sum-pool pass, then the chain rule
through the absolute value with sign(0) taken to be 0.
"""

from __future__ import annotations

import numpy as np

from .engine import Tape, _finite_run, gradient, run, schedule
from .errors import MissingData, PathliftError, finite
from .graph import Architecture, ParamVector, _check_batch, _check_labels, _check_targets, _param_rows
from .metrics import _sum_pool_sweep, _sum_pool_tape


def _aggregate(arch: Architecture, vals, aggregate, target, adj=None):
    """Scalar value and output adjoint (d_out, B) for the chosen aggregate.

    The tape of a stack gives one value per item, (P,), and adjoints
    (P, d_out, B), item i bit for bit that of its own tape: every sum runs
    along one item's own axes, in the order a single tape sums them.  The
    adjoint is computed in the output rows of ``adj``, the adjoint table
    of the tape, when those are one run (a view), in a fresh array otherwise.
    """
    at = schedule(arch).outputs
    # [..., d_out, B], each item contiguous: a view when the outputs are one run
    out = vals[..., at, :] if isinstance(at, slice) else vals.take(at, axis=-2)
    grad = adj.reshape(vals.shape)[..., at, :] if adj is not None and isinstance(at, slice) else np.empty(out.shape)
    lead, nb = out.shape[:-2], out.shape[-1]

    def total(a):
        """Sum over one item's outputs and batch, as ``np.sum`` of its block."""
        s = a.reshape(lead + (-1,)).sum(axis=-1)
        return s if lead else float(s)

    if aggregate == "sum_outputs":
        grad.fill(1.0)
        return total(out), grad
    squared = aggregate == "squared_error"
    if not squared and aggregate != "logistic":
        raise PathliftError(f"unknown aggregate {aggregate!r}")
    if target is None:
        raise MissingData(f"aggregate {aggregate!r} needs a target")
    if squared:
        np.subtract(out, _check_targets(arch, target, nb), out=grad)
        return 0.5 * total(grad * grad), grad
    y = _check_labels(target, nb, max(arch.d_out, 2))
    if arch.d_out == 1:
        z = out[..., 0, :]
        np.subtract(1.0 / (1.0 + np.exp(-z)), y, out=grad[..., 0, :])
        return total(np.logaddexp(0.0, z) - y * z), grad
    zmax = out.max(axis=-2, keepdims=True)
    lse = np.exp(np.subtract(out, zmax, out=grad), out=grad).sum(axis=-2, keepdims=True)
    np.log(lse, out=lse)
    lse += zmax
    value = total(lse[..., 0, :] - out[..., y, np.arange(nb)])
    np.exp(np.subtract(out, lse, out=grad), out=grad)
    # minus 1.0 at each label, minus 0.0 (no change) elsewhere
    grad -= y == np.arange(arch.d_out)[:, None]
    return value, grad


def scalar_value(arch: Architecture, theta, x, aggregate="sum_outputs", target=None):
    """The scalar of :func:`grad_scalar` alone: a float, or one per item
    (P,) of a (P, n_coords) stack, item i bit for bit its own value.
    Raises NonFiniteValue when the pass or the scalar overflows float64."""
    rows = _param_rows(arch, theta)
    vals = _finite_run(arch, rows, _check_batch(arch, x))
    scalar = lambda: _aggregate(arch, vals, aggregate, target)[0]
    return finite(f"the {aggregate} aggregate overflows float64", scalar)


def grad_scalar(arch: Architecture, theta, x, aggregate="sum_outputs", target=None, *, tape=None):
    """(scalar, gradient over parameter coordinates).

    The scalar is summed over the batch: the sum of all outputs, the summed
    squared-error loss 0.5*|out - y|^2, or the summed logistic loss
    (softmax cross-entropy against class labels; a sigmoid against 0/1
    labels when there is a single output).

    ``x`` is (d_in,) or (B, d_in); squared-error targets (B, d_out), (B,)
    for one output, or one (d_out,) row; logistic labels one per input,
    whole numbers in [0, max(d_out, 2)), so 0 and 1 for one output.

    ``theta`` is a ParamVector, or a (P, n_coords) stack of parameter rows
    (a wrong shape raises DimensionMismatch, a NaN or infinite entry
    NonFiniteValue): one engine pass and one adjoint sweep give a value per
    item (P,) and gradients (P, n_coords), item i bit for bit the call on
    ``theta[i]`` alone.  ``tape``, an :class:`pathlift.engine.Tape` of the
    pass's shape, holds the pass's arrays instead of one fresh tape for
    both.  The gradient returned lives in the tape (a view of its gradient
    rows, as is the loss adjoint the sweep starts from), so the next pass
    on the tape overwrites it: copy it to keep it.
    """
    rows = _param_rows(arch, theta)
    x = _check_batch(arch, x)
    if tape is None:
        tape = Tape(arch, x.shape[0], rows.shape[0] if rows.ndim == 2 else 1)
    vals, win = run(arch, rows, x, tape=tape)
    value, out_adj = _aggregate(arch, vals, aggregate, target, tape.adj)
    return value, gradient(arch, rows, vals, win, out_adj, tape=tape)


def grad_path_norm(arch: Architecture, theta: ParamVector) -> np.ndarray:
    """Gradient of the l1 path norm at theta.

    One forward/backward pass of |theta| with every pool summing, followed
    by the sign chain rule, with sign(0) = 0.  Multiplying coordinatewise by
    theta itself yields each coordinate's total path weight.  Raises
    NonFiniteValue when the norm or a gradient entry overflows float64.
    """
    w, _, tape = _sum_pool_tape(arch, theta)
    grad = lambda: np.sign(theta.vec) * _sum_pool_sweep(arch, w, tape)
    return finite("the path norm gradient overflows float64", grad)


"""Every overflow refusal names what overflowed, word for word.

Each case builds an input that reaches one refusal and matches its whole
message, with numpy's warnings raised as errors, so a refusal that lets a
RuntimeWarning through, or words its message differently, fails here.
"""

import re
import warnings

import numpy as np
import pytest

from pathlift.autodiff import grad_path_norm
from pathlift.errors import NonFiniteValue
from pathlift.graph import Architecture, ParamVector
from pathlift.lipschitz import equality_witness, trajectory_point
from pathlift.metrics import mlp_bounds, path_metric_exact_dominated, path_metric_oracle, path_norm_fast


def _relu_chain(depth, weights):
    """The relu chain of ``depth`` edges with these edge weights and zero biases."""
    names = ["in"] + [f"m{k:03d}" for k in range(1, depth)] + ["out"]
    arch = Architecture(
        [("in", "input")] + [(n, "relu") for n in names[1:-1]] + [("out", "identity")],
        list(zip(names[:-1], names[1:])),
    )
    return arch, ParamVector(arch, np.r_[np.broadcast_to(weights, depth), np.zeros(depth)])


def _path_norm():
    # the input path of a 400-edge chain of weight 10 weighs 10**400
    path_norm_fast(*_relu_chain(400, 10.0))


def _path_norm_gradient():
    # the norm is 1e200, the gradient at the first edge 1e400
    grad_path_norm(*_relu_chain(3, [1e-200, 1e200, 1e200]))


def _path_lifting():
    # the input path weighs 4e400 on one side and 9e400 on the other
    arch, t1 = _relu_chain(2, 2e200)
    path_metric_oracle(arch, t1, _relu_chain(2, 3e200)[1])


def _path_metric():
    # one edge into the output: the liftings 1e308 and -1e308 lie 2e308 apart
    arch, t1 = _relu_chain(1, 1e308)
    path_metric_oracle(arch, t1, _relu_chain(1, -1e308)[1])


def _telescoped_gap():
    # the metric is 1e600, on the plain vectors and on the normalized ones
    arch, huge = _relu_chain(3, 1e200)
    path_metric_exact_dominated(arch, huge, _relu_chain(3, [0.0, 1e200, 1e200])[1])


def _trajectory_point():
    # at t = 2 the first coordinate is 1 ** -1 * 1e200 ** 2
    _, t1 = _relu_chain(3, 1.0)
    trajectory_point(t1, _relu_chain(3, [1e200, 1.0, 1.0])[1], 2.0)


def _predicted_gap():
    # pow rounds a**3 one step above the product (a * a) * a that the
    # lifting and the forward pass take: both sides of the bound stay
    # finite, and only the predicted gap times x0 overflows
    equality_witness(3, 1.449491064788738e100, 1.0, 59029476.57697038)


def _mlp_bounds():
    # R = 1e200 over three layers: R**2 leaves float64
    mlp_bounds([[[1e200]], [[1e200]], [[1.0]]], [[[1e200]], [[1e200]], [[2.0]]], [1.0])


@pytest.mark.parametrize("reach, message", [
    (_path_norm, "the path norm at q=1.0 overflows float64"),
    (_path_norm_gradient, "the path norm gradient overflows float64"),
    (_path_lifting, "the path lifting overflows float64"),
    (_path_metric, "the path metric overflows float64"),
    (_telescoped_gap, "the telescoped path-metric gap overflows float64"),
    (_trajectory_point, "the trajectory point at t=2.0 overflows float64"),
    (_predicted_gap, "the predicted gap |a**d - b**d| * x0 overflows float64"),
    (_mlp_bounds, "the MLP bounds overflow float64"),
], ids=lambda v: getattr(v, "__name__", "")[1:] or None)
def test_each_overflow_names_what_overflowed(reach, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteValue, match=f"^{re.escape(message)}$"):
            reach()

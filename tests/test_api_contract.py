"""The API contract for scalar and array arguments, the twin of
test_cli_contract.py: every public call with a scalar parameter, fed a
value outside its type or range, returns its documented result or raises a
PathliftError subclass.  It never takes a bool, a string or a list for a
number, reads an int too large for a float as the infinity it rounds to,
and an integer parameter takes a whole float as that integer.  Every array
parameter (inputs, batches, labels, targets, scores, weight matrices)
refuses strings, bools, None, ragged nesting, NaN, infinities, ints too
large for a float, a wrong width and a 3-D array, and a label vector
refuses fractional, negative and out-of-range labels, and a bool among
numbers too.  Each structural refusal (a parameter vector of another
architecture, an unknown variant or aggregate, weight matrices that are
empty, too many or do not chain) raises its own PathliftError subclass,
with or without the arguments it would need next.  ``grad_scalar`` has
no scalar parameter; its ``inf`` after a numpy warning on an overflowing
pass (the training step's choice) is the one named exception to the
contract."""

import math
import warnings

import numpy as np
import pytest

from pathlift.autodiff import grad_scalar, scalar_value
from pathlift.builders import (
    conv_grid_architecture, mlp_architecture, mlp_matrices, mlp_params, random_dag, random_params, same_sign_partner,
)
from pathlift.errors import DimensionMismatch, PathliftError, RaggedLayers
from pathlift.experiment import ExperimentConfig, accuracy, epoch_seeds, make_dataset, sgd_train
from pathlift.graph import ParamVector, forward
from pathlift.lipschitz import activation_breakpoints, equality_witness, trajectory_point, verify_bound
from pathlift.metrics import mlp_bounds, path_norm_fast
from pathlift.paths import path_activations, path_lifting
from pathlift.pruning import ScoreVector, apply_prune, magnitude_scores, obd_fd_scores, pruning_error_bound
from pathlift.transforms import random_rescaling, rescale

from conftest import diamond_arch, diamond_theta

# what a scalar argument may be handed by mistake; refused outright: bools,
# strings and lists
REFUSED = (True, False, "1", [1])
VALUES = REFUSED + (None, math.nan, math.inf, -math.inf, 10**400, -(10**400))

ARCH = diamond_arch()
THETA = diamond_theta(ARCH)
PARTNER = same_sign_partner(THETA, 0)
CONFIG = ExperimentConfig(seed=0, n_train=8, n_test=4, widths=(2, 3, 2), epochs=2, rewind_epoch=1)
X, Y = np.random.default_rng(0).normal(size=(8, 2)), np.arange(8) % 2


def _train(**kw):
    arch = mlp_architecture((2, 3, 2))
    args = {"seeds": epoch_seeds(0, 1), "lr": 0.05, "batch_size": 4, **kw}
    return sgd_train(arch, random_params(arch, 0), X, Y, **args)[0].vec.tolist()


def _config(**kw):
    return ExperimentConfig(**{**vars(CONFIG), **kw}).validated()


def _conv(**kw):
    return conv_grid_architecture(**{"side": 4, "channels": (1,), "kernel": 2, "pool": 1, "d_out": 1, **kw})


# name -> (call of one value, a value it takes, whether the value is an integer)
CALLS = {
    "mlp_architecture width": (lambda v: mlp_architecture((2, v, 1)), 3, True),
    "conv_grid_architecture side": (lambda v: _conv(side=v), 4, True),
    "conv_grid_architecture kernel": (lambda v: _conv(kernel=v), 2, True),
    "conv_grid_architecture pool": (lambda v: _conv(pool=v), 1, True),
    "conv_grid_architecture d_out": (lambda v: _conv(d_out=v), 2, True),
    "conv_grid_architecture channel": (lambda v: _conv(channels=(v,)), 2, True),
    "random_dag rng": (lambda v: random_dag(v), 1, True),
    "random_dag max_layers": (lambda v: random_dag(0, max_layers=v), 3, True),
    "random_dag max_width": (lambda v: random_dag(0, max_width=v), 3, True),
    "random_dag p_skip": (lambda v: random_dag(0, p_skip=v), 0.5, False),
    "random_dag p_identity": (lambda v: random_dag(0, p_identity=v), 0.5, False),
    "random_dag p_kpool": (lambda v: random_dag(0, p_kpool=v), 0.5, False),
    "random_params rng": (lambda v: random_params(ARCH, v).vec.tolist(), 1, True),
    "random_params zero_frac": (lambda v: random_params(ARCH, 0, zero_frac=v).vec.tolist(), 0.5, False),
    "same_sign_partner rng": (lambda v: same_sign_partner(THETA, v).vec.tolist(), 1, True),
    "same_sign_partner zero_frac": (lambda v: same_sign_partner(THETA, 0, zero_frac=v).vec.tolist(), 0.5, False),
    "random_rescaling seed": (lambda v: random_rescaling(ARCH, v), 1, True),
    "epoch_seeds seed": (lambda v: [(s.entropy, s.spawn_key) for s in epoch_seeds(v, 2)], 1, True),
    "epoch_seeds epochs": (lambda v: len(epoch_seeds(0, v)), 2, True),
    "make_dataset rng": (lambda v: make_dataset(CONFIG, v)[0].tolist(), 1, True),
    "sgd_train lr": (lambda v: _train(lr=v), 0.05, False),
    "sgd_train batch_size": (lambda v: _train(batch_size=v), 4, True),
    "sgd_train snapshot_epoch": (lambda v: _train(snapshot_epoch=v), 1, True),
    "sgd_train epoch seed": (lambda v: _train(seeds=[v]), 1, True),
    "ExperimentConfig seed": (lambda v: _config(seed=v), 1, True),
    "ExperimentConfig n_train": (lambda v: _config(n_train=v), 8, True),
    "ExperimentConfig n_test": (lambda v: _config(n_test=v), 4, True),
    "ExperimentConfig epochs": (lambda v: _config(epochs=v), 2, True),
    "ExperimentConfig rewind_epoch": (lambda v: _config(rewind_epoch=v), 1, True),
    "ExperimentConfig batch_size": (lambda v: _config(batch_size=v), 4, True),
    "ExperimentConfig lr": (lambda v: _config(lr=v), 0.05, False),
    "ExperimentConfig prune_fraction": (lambda v: _config(prune_fraction=v), 0.5, False),
    "path_norm_fast q": (lambda v: path_norm_fast(ARCH, THETA, q=v), 2.0, False),
    "rescale factor": (lambda v: rescale(ARCH, THETA, {"h1": v}).vec.tolist(), 2.0, False),
    "apply_prune fraction": (lambda v: apply_prune(THETA, magnitude_scores(ARCH, THETA), fraction=v)[1].pruned,
                             0.5, False),
    "apply_prune count": (lambda v: apply_prune(THETA, magnitude_scores(ARCH, THETA), count=v)[1].pruned, 2, True),
    "trajectory_point t": (lambda v: trajectory_point(THETA, PARTNER, v).vec.tolist(), 0.5, False),
    "activation_breakpoints samples": (lambda v: activation_breakpoints(ARCH, THETA, PARTNER, [1.0], samples=v),
                                       4, True),
    "activation_breakpoints width": (lambda v: activation_breakpoints(ARCH, THETA, PARTNER, [1.0], width=v),
                                     1e-3, False),
    "equality_witness d": (lambda v: equality_witness(v, 2.0, 1.0, 1.0).report, 2, True),
    "equality_witness a": (lambda v: equality_witness(2, v, 1.0, 1.0).report, 2.0, False),
    "equality_witness b": (lambda v: equality_witness(2, 2.0, v, 1.0).report, 1.0, False),
    "equality_witness x0": (lambda v: equality_witness(2, 2.0, 1.0, v).report, 1.0, False),
}


def _outcome(call, value):
    """The call's result, or the PathliftError it raised; anything else it
    raises, warnings included, propagates."""
    try:
        return call(value)
    except PathliftError as exc:
        return exc


@pytest.mark.parametrize("name", list(CALLS))
def test_every_scalar_argument_keeps_the_contract(name):
    call, good, integer = CALLS[name]
    bad = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        want = call(good)
        fractional = (2.5,) if integer else ()
        refused = REFUSED + fractional
        for value in VALUES + fractional:
            try:
                got = _outcome(call, value)
            except Exception as exc:
                bad.append((value, f"raised {exc!r}"))
                continue
            if value in refused and not isinstance(got, PathliftError):
                bad.append((value, "accepted"))
        # an int too large for a float acts as the infinity it rounds to
        for big, inf in ((10**400, math.inf), (-(10**400), -math.inf)):
            if type(_outcome(call, big)) is not type(_outcome(call, inf)):
                bad.append((big, "differs from its infinity"))
        if integer and call(float(good)) != want:
            bad.append((float(good), "a whole float differs from its integer"))
    assert not bad, bad


MLP = mlp_architecture((2, 3, 2))
MLP_THETA = random_params(MLP, 0)
MATS = mlp_matrices(MLP, MLP_THETA)
SIGMOID = mlp_architecture((2, 3, 1))
SIGMOID_THETA = random_params(SIGMOID, 0)
ONE_HOT = np.eye(2)[Y]
SCORES = magnitude_scores(MLP, MLP_THETA).values
LIFT = path_lifting(MLP, MLP_THETA)


def _scores(values):
    return ScoreVector("magnitude", "abs", values)


def _fit(x=X, y=Y, loss="logistic"):
    return sgd_train(MLP, MLP_THETA, x, y, epoch_seeds(0, 1), 0.05, 4, loss=loss)[0].vec.tolist()


# name -> (call of one array value, a value it takes, for a label vector the number of classes)
ARRAYS = {
    "ParamVector vec": (lambda v: ParamVector(MLP, v).vec.tolist(), MLP_THETA.vec, None),
    "forward x": (lambda v: forward(MLP, MLP_THETA, v).tolist(), X[0], None),
    "path_activations x": (lambda v: path_activations(MLP, MLP_THETA, v).tolist(), X[0], None),
    "verify_bound x": (lambda v: verify_bound(MLP, MLP_THETA, MLP_THETA, v).holds, X[0], None),
    "pruning_error_bound x": (lambda v: pruning_error_bound(MLP, MLP_THETA, [0], v).bound, X[0], None),
    "grad_scalar x": (lambda v: grad_scalar(MLP, MLP_THETA, v)[1].tolist(), X, None),
    "scalar_value x": (lambda v: scalar_value(MLP, MLP_THETA, v), X, None),
    "accuracy x": (lambda v: accuracy(MLP, MLP_THETA, v, Y), X, None),
    "sgd_train x": (lambda v: _fit(x=v), X, None),
    "obd_fd_scores x": (lambda v: obd_fd_scores(MLP, MLP_THETA, (v, ONE_HOT)).values.tolist(), X, None),
    "grad_scalar labels": (lambda v: grad_scalar(MLP, MLP_THETA, X, "logistic", v)[1].tolist(), Y, 2),
    "grad_scalar sigmoid labels": (lambda v: grad_scalar(SIGMOID, SIGMOID_THETA, X, "logistic", v)[1].tolist(),
                                   Y, 2),
    "scalar_value labels": (lambda v: scalar_value(MLP, MLP_THETA, X, "logistic", v), Y, 2),
    "sgd_train labels": (lambda v: _fit(y=v), Y, 2),
    "sgd_train squared-error labels": (lambda v: _fit(y=v, loss="squared_error"), Y, 2),
    "accuracy labels": (lambda v: accuracy(MLP, MLP_THETA, X, v), Y, 2),
    "obd_fd_scores labels": (lambda v: obd_fd_scores(MLP, MLP_THETA, (X, v), loss="logistic").values.tolist(), Y, 2),
    "grad_scalar targets": (lambda v: grad_scalar(MLP, MLP_THETA, X, "squared_error", v)[1].tolist(), ONE_HOT, None),
    "scalar_value targets": (lambda v: scalar_value(MLP, MLP_THETA, X, "squared_error", v), ONE_HOT, None),
    "obd_fd_scores targets": (lambda v: obd_fd_scores(MLP, MLP_THETA, (X, v)).values.tolist(), ONE_HOT, None),
    "apply_prune scores": (lambda v: apply_prune(MLP_THETA, _scores(v), fraction=0.5)[1].pruned, SCORES, None),
    "pruning_error_bound scores": (lambda v: pruning_error_bound(MLP, MLP_THETA, [0], X[0], _scores(v)).bound,
                                   SCORES, None),
    "coordinate_sums weights": (lambda v: LIFT.coordinate_sums(v).tolist(), np.ones(len(LIFT)), None),
    "mlp_bounds layers_a": (lambda v: mlp_bounds([v, MATS[1]], MATS, X[0]), MATS[0], None),
    "mlp_bounds layers_b": (lambda v: mlp_bounds(MATS, [MATS[0], v], X[0]), MATS[1], None),
    "mlp_bounds x": (lambda v: mlp_bounds(MATS, MATS, v), X[0], None),
    "mlp_params matrices": (lambda v: mlp_params(MLP, [v, MATS[1]]).vec.tolist(), MATS[0], None),
    "mlp_params biases": (lambda v: mlp_params(MLP, MATS, [v, np.zeros(2)]).vec.tolist(), np.zeros(3), None),
}


def _bad_arrays(good, classes):
    """What an array argument may be handed by mistake, each refused: name -> value."""
    g = np.asarray(good, dtype=np.float64)

    def first(value):
        """``good`` as nested lists, its first entry replaced by ``value``."""
        a = g.astype(object)
        a.flat[0] = value
        return a.tolist()

    bad = {
        "digit strings": g.astype(str).tolist(),
        "bools": np.ones(g.shape, dtype=bool).tolist(),
        "a bool among numbers": first(True),
        "None": None,
        "ragged": [g.tolist(), g.tolist()[:-1]],
        "nan": first(math.nan),
        "inf": first(math.inf),
        "-inf": first(-math.inf),
        "10**400": first(10**400),
        "wrong width": np.concatenate((g, g[..., :1]), axis=-1),
        "3-D": np.zeros((2, 2, g.shape[-1])),
    }
    if classes is not None:
        bad.update({"label 0.5": first(0.5), "label -1": first(-1), f"label {classes}": first(classes)})
    return bad


@pytest.mark.parametrize("name", list(ARRAYS))
def test_every_array_argument_keeps_the_contract(name):
    call, good, classes = ARRAYS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        want = call(good)
        assert call(np.asarray(good).tolist()) == want  # a nested list is read as its array
        bad = []
        for what, value in _bad_arrays(good, classes).items():
            try:
                got = _outcome(call, value)
            except Exception as exc:
                bad.append((what, f"raised {exc!r}"))
                continue
            if not isinstance(got, PathliftError):
                bad.append((what, "accepted"))
    assert not bad, bad


# name -> (call with one structurally wrong argument, the PathliftError subclass it raises)
REFUSALS = {
    "forward theta of another architecture": (lambda: forward(MLP, SIGMOID_THETA, X[0]), DimensionMismatch),
    "verify_bound variant both": (lambda: verify_bound(MLP, MLP_THETA, MLP_THETA, X[0], variant="both"),
                                  PathliftError),
    "mlp_params one matrix too many": (lambda: mlp_params(MLP, MATS + [MATS[1]]), RaggedLayers),
    "mlp_bounds layers that do not chain": (lambda: mlp_bounds(MATS[:1] * 2, MATS[:1] * 2, X[0]), RaggedLayers),
    "mlp_bounds a (0, 2) matrix": (lambda: mlp_bounds([np.zeros((0, 2))], [np.zeros((0, 2))], X[0]), RaggedLayers),
    "mlp_bounds a (2, 0) matrix": (lambda: mlp_bounds([np.zeros((2, 0))], [np.zeros((2, 0))], []), RaggedLayers),
    "grad_scalar unknown aggregate": (lambda: grad_scalar(MLP, MLP_THETA, X, "hinge", Y), PathliftError),
    "grad_scalar unknown aggregate without a target": (lambda: grad_scalar(MLP, MLP_THETA, X, "hinge"),
                                                       PathliftError),
}


@pytest.mark.parametrize("name", list(REFUSALS))
def test_every_structural_refusal_raises_its_own_error(name):
    call, error = REFUSALS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PathliftError) as err:
            call()
    assert type(err.value) is error

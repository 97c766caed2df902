"""The API contract for scalar arguments, the twin of test_cli_contract.py:
every public call with a scalar parameter, fed a value outside its type or
range, returns its documented result or raises a PathliftError subclass.
It never takes a bool, a string or a list for a number, reads an int too
large for a float as the infinity it rounds to, and an integer parameter
takes a whole float as that integer.  ``grad_scalar`` has no scalar
parameter; its ``inf`` after a numpy warning on an overflowing pass (the
training step's choice) is the one named exception to the contract."""

import math
import warnings

import numpy as np
import pytest

from pathlift.builders import conv_grid_architecture, mlp_architecture, random_dag, random_params, same_sign_partner
from pathlift.errors import PathliftError
from pathlift.experiment import ExperimentConfig, epoch_seeds, make_dataset, sgd_train
from pathlift.lipschitz import activation_breakpoints, equality_witness, trajectory_point
from pathlift.metrics import path_norm_fast
from pathlift.pruning import apply_prune, magnitude_scores
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

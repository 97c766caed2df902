"""One policy for NaN and infinity, and for arguments of the wrong type:
rejected where they enter, with a typed error, never turned into a number."""

import json
import warnings

import numpy as np
import pytest

from pathlift.autodiff import grad_path_norm, grad_scalar, scalar_value
from pathlift.builders import mlp_architecture, random_params
from pathlift.cli import main
from pathlift.errors import (
    DimensionMismatch, InfeasibleAmount, NonFiniteValue, NonPositiveFactor, ParseError, PathliftError,
)
from pathlift.experiment import ExperimentConfig, accuracy, epoch_seeds, sgd_train
from pathlift.graph import Architecture, ParamVector, forward
from pathlift.lipschitz import activation_breakpoints
from pathlift.metrics import path_norm_fast
from pathlift.netfile import load_network, save_network
from pathlift.paths import enumerate_paths, path_activations
from pathlift.pruning import apply_prune, magnitude_scores, obd_fd_scores
from pathlift.transforms import random_rescaling, rescale

from conftest import chain2_arch


def test_param_vector_rejects_non_finite(chain2):
    assert issubclass(NonFiniteValue, PathliftError)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(NonFiniteValue, match="in->m"):
            ParamVector(chain2, [bad, 1.0, 0.0, 0.0])
    with pytest.raises(NonFiniteValue):
        ParamVector.from_maps(chain2, {("in", "m"): float("nan")})
    theta = ParamVector(chain2, [1.0, 1.0, 0.0, 0.0])
    with pytest.raises(NonFiniteValue):
        theta.replace({1: float("inf")})


def test_load_network_and_cli_reject_nan(tmp_path, capsys):
    arch = chain2_arch()
    doc = {
        "neurons": [{"id": nid, "activation": tag} for nid, tag in arch.neuron_decls()],
        "edges": [
            {"src": "in", "dst": "m", "weight": float("nan")},
            {"src": "m", "dst": "out", "weight": 1.0},
        ],
    }
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))  # writes a bare NaN token
    with pytest.raises(NonFiniteValue):
        load_network(path)
    for argv in (["eval", str(path), "--input", "1"], ["pathnorm", str(path)]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "in->m" in err


def test_engine_rejects_non_finite_inputs(chain2):
    theta = ParamVector(chain2, [1.0, 1.0, 0.0, 0.0])
    with pytest.raises(NonFiniteValue):
        forward(chain2, theta, [float("nan")])
    with pytest.raises(NonFiniteValue):
        grad_scalar(chain2, theta, [[1.0], [float("inf")]])


def test_sgd_train_names_the_diverging_epoch():
    arch = mlp_architecture((2, 3, 1), hidden="identity")
    rng = np.random.default_rng(0)
    theta = random_params(arch, rng)
    x = rng.normal(size=(32, 2))
    y = np.zeros(32, dtype=np.int64)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteValue, match=r"epoch \d+"):
            sgd_train(arch, theta, x, y, epoch_seeds(0, 50), lr=5.0, batch_size=8,
                      loss="squared_error")


def _relu_chain(depth, weight):
    names = ["in"] + [f"m{k:03d}" for k in range(1, depth)] + ["out"]
    arch = Architecture(
        [("in", "input")] + [(n, "relu") for n in names[1:-1]] + [("out", "identity")],
        list(zip(names[:-1], names[1:])),
    )
    return arch, ParamVector(arch, np.r_[np.full(depth, float(weight)), np.zeros(depth)])


def test_path_norm_overflow_is_a_typed_error():
    # the input path of a 400-edge chain of weight 10 weighs 10**400
    arch, theta = _relu_chain(400, 10.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteValue, match=r"q=1\.0"):
            path_norm_fast(arch, theta)
        with pytest.raises(NonFiniteValue, match=r"q=2"):
            path_norm_fast(*_relu_chain(2, 1e200), q=2)
        with pytest.raises(NonFiniteValue):
            grad_path_norm(arch, theta)
        # the norm is 1e200, the gradient at the first edge 1e400
        arch3 = _relu_chain(3, 1.0)[0]
        with pytest.raises(NonFiniteValue, match="gradient"):
            grad_path_norm(arch3, ParamVector(arch3, [1e-200, 1e200, 1e200, 0.0, 0.0, 0.0]))
    assert path_norm_fast(*_relu_chain(300, 10.0)) == pytest.approx(1e300)


def test_cli_path_norm_overflow_exits_1(tmp_path, capsys):
    path = tmp_path / "chain.json"
    save_network(path, *_relu_chain(400, 10.0))
    assert main(["pathnorm", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "overflows" in captured.err


def test_arguments_of_the_wrong_type_raise_typed_errors(diamond, monkeypatch):
    arch, theta = diamond
    with pytest.raises(InfeasibleAmount):
        apply_prune(theta, magnitude_scores(arch, theta), count=1.5)
    for bad in ("x", None):
        with pytest.raises(NonPositiveFactor):
            rescale(arch, theta, {"h1": bad})
    with pytest.raises(PathliftError):
        path_norm_fast(arch, theta, q="a")
    monkeypatch.setenv("PATHLIFT_PATH_CAP", "x")
    with pytest.raises(PathliftError):
        enumerate_paths(arch)
    for lr in (-1.0, 0.0, np.inf, np.nan, "0.1", None):
        with pytest.raises(PathliftError, match="lr"):
            ExperimentConfig(seed=0, lr=lr).validated()
    for fraction in ("a", None, False):
        with pytest.raises(InfeasibleAmount):
            ExperimentConfig(seed=0, prune_fraction=fraction).validated()
    for preset in (None, 5):
        with pytest.raises(ParseError):
            random_rescaling(arch, 0, preset=preset)
    for width in ("a", None):
        with pytest.raises(PathliftError, match="width"):
            activation_breakpoints(arch, theta, theta, [1.0], width=width)


def test_parameters_and_inputs_that_are_not_numbers_raise_dimension_mismatch(diamond):
    arch, theta = diamond
    for bad in (["a"] * arch.n_coords, [[1.0], [2.0, 3.0]], "abc"):
        with pytest.raises(DimensionMismatch):
            ParamVector(arch, bad)
    for bad in (["a"], "a", [[1.0], [2.0, 3.0]]):
        with pytest.raises(DimensionMismatch):
            forward(arch, theta, bad)
    mlp = mlp_architecture((2, 3, 2))
    params = random_params(mlp, np.random.default_rng(0))
    bad = ["a", "b"]
    for call in (
        lambda: grad_scalar(mlp, params, bad),
        lambda: scalar_value(mlp, params, bad),
        lambda: path_activations(mlp, params, bad),
        lambda: accuracy(mlp, params, bad, [0]),
        lambda: obd_fd_scores(mlp, params, (bad, [[0.0, 1.0]])),
    ):
        with pytest.raises(DimensionMismatch):
            call()

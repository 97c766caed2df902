"""A bool is not a number: each of these scalar arguments refuses True
with the error its own check raises for other values out of its range."""

import pytest

from pathlift.builders import mlp_architecture, random_dag, random_params
from pathlift.errors import InfeasibleAmount, NonPositiveFactor, PathliftError
from pathlift.experiment import ExperimentConfig
from pathlift.metrics import path_norm_fast
from pathlift.pruning import apply_prune, path_mag_scores
from pathlift.transforms import random_rescaling, rescale


def _mlp():
    arch = mlp_architecture((2, 3, 1))
    return arch, random_params(arch, 0)


def _rescale_by(value):
    arch, theta = _mlp()
    hidden = next(iter(random_rescaling(arch, 0)))
    return rescale(arch, theta, {hidden: value})


def _prune_count(value):
    arch, theta = _mlp()
    return apply_prune(theta, path_mag_scores(arch, theta), count=value)


CALLS = {
    "path_norm_fast q": (lambda v: path_norm_fast(*_mlp(), q=v), PathliftError, "q must be finite and > 0"),
    "rescale factor": (_rescale_by, NonPositiveFactor, "factor for .* must be finite and > 0"),
    "apply_prune count": (_prune_count, InfeasibleAmount, "count must be an integer"),
    "ExperimentConfig lr": (lambda v: ExperimentConfig(seed=0, lr=v).validated(), PathliftError,
                            "lr must be a finite number > 0"),
    "random_dag rng": (random_dag, PathliftError, "rng must be a seed or a numpy Generator"),
}


@pytest.mark.parametrize("name", list(CALLS))
def test_true_is_refused_where_one_is_accepted(name):
    call, error, message = CALLS[name]
    call(1)
    with pytest.raises(error, match=f"^{message}, got True$") as err:
        call(True)
    assert type(err.value) is error

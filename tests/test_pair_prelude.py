"""One prelude per parameter pair: a path-metric report takes each l1 path
norm and each normalized vector once, and the path count of an
architecture over the cap is taken once."""

from collections import Counter

import numpy as np
import pytest

from pathlift import metrics, paths
from pathlift.builders import mlp_architecture, random_dag, random_params, same_sign_partner
from pathlift.graph import ParamVector
from pathlift.lipschitz import verify_bound
from pathlift.metrics import path_metric_lower, path_metric_report, path_metric_upper


@pytest.fixture
def calls(monkeypatch):
    """Counts of sum-pool passes, ``normalize`` calls and path counts."""
    counts = Counter()

    def spy(module, name, key, counted=lambda *a, **k: True):
        fn = getattr(module, name)

        def wrapped(*args, **kwargs):
            counts[key] += counted(*args, **kwargs)
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapped)

    spy(metrics, "run", "sum_pool", lambda *a, **k: bool(k.get("sum_pools")))
    spy(metrics, "normalize", "normalize")
    spy(paths, "count_paths", "count")
    return counts


def _pairs():
    """random_dag pairs with a same-sign partner, and one net with 10 outputs."""
    for i in range(40):
        arch = random_dag(i, max_layers=4, max_width=4)
        theta = random_params(arch, i)
        yield arch, theta, same_sign_partner(theta, np.random.default_rng(i))
    arch = mlp_architecture((3, 6, 10))
    theta = random_params(arch, np.random.default_rng(8), zero_frac=0.2)
    yield arch, theta, same_sign_partner(theta, np.random.default_rng(8))


def test_the_report_rows_are_the_bounds_bit_for_bit():
    for arch, t1, t2 in _pairs():
        rep = path_metric_report(arch, t1, t2)
        assert repr(rep.lower) == repr(path_metric_lower(arch, t1, t2))
        assert repr(rep.upper_coarse) == repr(path_metric_upper(arch, t1, t2))
        assert repr(rep.upper_refined) == repr(path_metric_upper(arch, t1, t2, refined=True))


def test_a_report_takes_two_norms_and_two_normalizations(calls):
    arch = mlp_architecture((3, 6, 10))
    t1 = random_params(arch, np.random.default_rng(8))
    t2 = ParamVector(arch, t1.vec * np.where(np.arange(arch.n_coords) % 2, 0.5, 2.0))
    rep = path_metric_report(arch, t1, t2)
    assert rep.exact is None
    assert (calls["sum_pool"], calls["normalize"]) == (2, 2)

    calls.clear()
    rep = path_metric_report(arch, t1, ParamVector(arch, t1.vec * 0.5))
    assert rep.exact is not None
    assert (calls["sum_pool"], calls["normalize"]) == (3, 2)  # the telescoped gap's one pass


def test_the_path_count_is_taken_once_per_architecture(calls, monkeypatch):
    monkeypatch.setenv("PATHLIFT_PATH_CAP", "3")
    archs = [mlp_architecture((2, 3, 2)), mlp_architecture((3, 4, 2))]
    for arch in archs:
        t1 = random_params(arch, 0)
        t2 = ParamVector(arch, t1.vec * np.where(np.arange(arch.n_coords) % 2, 0.5, 2.0))
        rep = path_metric_report(arch, t1, t2)
        assert rep.exact is None and rep.oracle is None
        assert verify_bound(arch, t1, t2, np.ones(arch.d_in)).metric_method == "upper"
    assert calls["count"] == len(archs)

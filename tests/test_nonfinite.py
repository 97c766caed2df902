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
    DimensionMismatch, InfeasibleAmount, MissingData, NonFiniteValue, NonPositiveFactor, ParseError,
    PathliftError,
)
from pathlift.experiment import ExperimentConfig, accuracy, epoch_seeds, sgd_train
from pathlift.graph import Architecture, ParamVector, forward
from pathlift.lipschitz import (
    activation_breakpoints, bound_rhs, equality_witness, trajectory_point, verify_bound,
)
from pathlift.metrics import (
    path_metric_exact_dominated, path_metric_oracle, path_metric_report, path_metric_upper, path_norm_fast,
)
from pathlift.netfile import load_network, save_network
from pathlift.paths import enumerate_paths, linearized_output, path_activations
from pathlift.pruning import apply_prune, magnitude_scores, obd_scores, path_mag_scores, pruning_error_bound
from pathlift.transforms import normalize, random_rescaling, rescale

from conftest import chain2_arch, chain3, replaced


def test_param_vector_rejects_non_finite(chain2):
    assert issubclass(NonFiniteValue, PathliftError)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(NonFiniteValue, match="in->m"):
            ParamVector(chain2, [bad, 1.0, 0.0, 0.0])
    theta = ParamVector(chain2, [1.0, 1.0, 0.0, 0.0])
    with pytest.raises(NonFiniteValue):
        replaced(theta, {1: float("inf")})


def test_load_network_and_cli_reject_nan(tmp_path, capsys):
    arch = chain2_arch()
    doc = {
        "neurons": [{"id": nid, "activation": tag} for nid, tag in zip(arch.ids, arch.tags)],
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
        lambda: obd_scores(mlp, params, (bad, [[0.0, 1.0]])),
    ):
        with pytest.raises(DimensionMismatch):
            call()


def _chain_pair(w1, w2, depth=2):
    """A ReLU chain with every weight w1 on one side and w2 on the other."""
    arch = _relu_chain(depth, 1.0)[0]
    return arch, ParamVector(arch, np.r_[np.full(depth, w1), np.zeros(depth)]), \
        ParamVector(arch, np.r_[np.full(depth, w2), np.zeros(depth)])


def test_path_metric_oracle_refuses_an_overflowing_lifting(tmp_path, capsys):
    # the input path weighs 4e400 on one side and 9e400 on the other
    arch, t1, t2 = _chain_pair(2e200, 3e200)
    with pytest.raises(NonFiniteValue, match="overflows"):
        path_metric_oracle(arch, t1, t2)
    save_network(tmp_path / "o1.json", arch, t1)
    save_network(tmp_path / "o2.json", arch, t2)
    for flag in ("--oracle", "--lower", "--exact"):
        assert main(["pathmetric", str(tmp_path / "o1.json"), str(tmp_path / "o2.json"), flag]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "overflows float64" in captured.err


@pytest.mark.parametrize("variant", ["main", "split"])
def test_the_bound_refuses_sides_that_are_not_numbers(variant):
    # both liftings overflow: the sides read nan <= nan: VIOLATED unchecked
    arch, t1, t2 = _chain_pair(1e200, 2e200)
    with pytest.raises(NonFiniteValue, match="overflows"):
        verify_bound(arch, t1, t2, [1.0], variant=variant)
    with pytest.raises(NonFiniteValue, match="overflows"):
        bound_rhs(arch, t1, t2, [1.0], variant=variant)
    # a finite right-hand side (about 1e301) with outputs of about 2e308
    arch, t1, t2 = _chain_pair(2.0, 2.0 + 1e-7, depth=1)
    assert np.isfinite(bound_rhs(arch, t1, t2, [1e308], variant=variant))
    with pytest.raises(NonFiniteValue, match="output gap"):
        verify_bound(arch, t1, t2, [1e308], variant=variant)
    # the metric is finite, max(|x|, 1) times it is not
    arch, t1, t2 = _chain_pair(1e150, 2e150)
    with pytest.raises(NonFiniteValue, match=f"right-hand side of the {variant} variant"):
        bound_rhs(arch, t1, t2, [1e10], variant=variant)


@pytest.mark.parametrize("args", [("2", "1e200", "1", "1"), ("2", "1e154", "1", "1e10")])
def test_equality_witness_refuses_an_overflow(args, capsys):
    with pytest.raises(NonFiniteValue, match="overflows"):
        equality_witness(int(args[0]), *map(float, args[1:]))
    assert main(["witness", "--equality", *args]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "overflows float64" in captured.err


def test_the_non_finite_parameter_message_prints_plain_floats(chain2, tmp_path, capsys):
    with pytest.raises(NonFiniteValue) as err:
        ParamVector(chain2, [np.inf, np.float64(np.nan), 0.0, 0.0])
    assert str(err.value) == "non-finite parameter(s): in->m=inf, m->out=nan"
    # normalizing weights of 2e200 and 3e200 moves 4e400 onto the last edge
    arch, t1, t2 = _chain_pair(2e200, 3e200)
    save_network(tmp_path / "o1.json", arch, t1)
    save_network(tmp_path / "o2.json", arch, t2)
    with pytest.raises(NonFiniteValue, match="^normalizing the parameters overflows float64$"):
        normalize(arch, t1)
    assert main(["pathmetric", str(tmp_path / "o1.json"), str(tmp_path / "o2.json"), "--upper"]) == 1
    assert capsys.readouterr().err == "error: normalizing the parameters overflows float64\n"


def test_the_dominated_gap_refuses_only_an_overflowing_answer(tmp_path, capsys):
    # the metric is 1e200, but the telescoped term of the first edge is
    # 1e-200 times the product 1e400 of the edges after it: the gap is
    # taken again on both vectors rescaled by the larger one's factors
    arch = _relu_chain(3, 1.0)[0]
    big = ParamVector(arch, [1e-200, 1e200, 1e200, 0.0, 0.0, 0.0])
    small = ParamVector(arch, [0.0, 1e200, 1e200, 0.0, 0.0, 0.0])
    # here the metric itself, 1e600, overflows
    huge = ParamVector(arch, [1e200, 1e200, 1e200, 0.0, 0.0, 0.0])
    assert path_metric_oracle(arch, big, small) == 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert path_metric_exact_dominated(arch, big, small) == 1e200
        assert path_metric_exact_dominated(arch, small, big) == 1e200
        with pytest.raises(NonFiniteValue, match="overflows float64"):
            path_metric_exact_dominated(arch, huge, small)
        for name, theta in (("big", big), ("small", small), ("huge", huge)):
            save_network(tmp_path / f"{name}.json", arch, theta)
        assert main(["pathmetric", str(tmp_path / "big.json"), str(tmp_path / "small.json"), "--exact"]) == 0
        assert capsys.readouterr().out == "1e+200\n"
        assert main(["pathmetric", str(tmp_path / "huge.json"), str(tmp_path / "small.json"), "--exact"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "overflows float64" in captured.err


@pytest.mark.parametrize("t", [2.0, -1.0, 1.5])
def test_trajectory_points_keep_shared_zeros_off_the_unit_interval(t):
    # every bias is zero on both sides; 0 ** (1 - t) is inf for t > 1
    arch = _relu_chain(3, 1.0)[0]
    t1 = ParamVector(arch, [1.0, 2.0, 3.0, 0.0, 0.0, 0.0])
    t2 = ParamVector(arch, [2.0, 1.0, 3.0, 0.0, 0.0, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        point = trajectory_point(t1, t2, t).vec
    np.testing.assert_allclose(point[:3], t1.vec[:3] ** (1.0 - t) * t2.vec[:3] ** t, rtol=1e-15)
    assert point[3:].tolist() == [0.0, 0.0, 0.0]


def test_eval_refuses_an_overflowing_forward_pass(chain2, tmp_path, capsys):
    # the output at x = 1 is 1e400
    theta = ParamVector(chain2, [1e200, 1e200, 0.0, 0.0])
    save_network(tmp_path / "big.json", chain2, theta)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteValue, match="^the forward pass overflows float64$"):
            forward(chain2, theta, [1.0])
        for extra in ([], ["--trace"]):
            assert main(["eval", str(tmp_path / "big.json"), "--input", "1", *extra]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: the forward pass overflows float64\n"


def test_the_pruning_bound_refuses_an_overflow(chain2):
    # the path weighs 1e308: its score times |x| = 1e10 overflows, and so
    # does the output change
    theta = ParamVector(chain2, [1e154, 1e154, 0.0, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteValue, match="^the pruning error bound overflows float64$"):
            pruning_error_bound(chain2, theta, [0], [1e10])
        # magnitude scores keep the bound near 1e164
        with pytest.raises(NonFiniteValue, match="^the output gap at x overflows float64$"):
            pruning_error_bound(chain2, theta, [0], [1e10], scores=magnitude_scores(chain2, theta))
        report = pruning_error_bound(chain2, theta, [0], [1e-10])
    assert report.holds and report.lhs == pytest.approx(1e298)


def test_rescale_names_its_own_overflow(tmp_path, capsys):
    arch, theta = chain3((1e308, 1.0, 1.0), (0.0, 0.0, 0.0))
    save_network(tmp_path / "c.json", arch, theta)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteValue, match="^rescaling the parameters overflows float64$"):
            rescale(arch, theta, {"m1": 4.0})
        assert main(["rescale", str(tmp_path / "c.json"), "--factor", "m1=4"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: rescaling the parameters overflows float64\n"


def test_upper_bounds_are_finite_or_refused(tmp_path, capsys):
    # the path norms are about 1e308 and 3e307, so the coarse bound's width
    # term overflows: against itself it meets a zero distance, against the
    # other the distance 7e307; the refined bound stays finite
    arch, a = chain3((1e154, 1e154, 1.0), (0.5, -0.5, 0.0))
    b = ParamVector(arch, [3e153, 1e154, 1.0, 0.1, -0.9, 0.0])
    save_network(tmp_path / "a.json", arch, a)
    save_network(tmp_path / "b.json", arch, b)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for refined in (False, True):
            assert path_metric_upper(arch, a, a, refined=refined) == 0.0
        assert path_metric_upper(arch, a, b, refined=True) == path_metric_oracle(arch, a, b) == 6.999999999999999e307
        with pytest.raises(NonFiniteValue, match="upper bound on the path metric overflows float64"):
            path_metric_upper(arch, a, b)
        # normalized output weights of 1e308 and -1e308 lie 2e308 apart
        flipped = ParamVector(arch, [1e154, 1e154, -1.0, 0.5, -0.5, 0.0])
        with pytest.raises(NonFiniteValue, match="upper bound on the path metric overflows float64"):
            path_metric_upper(arch, a, flipped, refined=True)
        files = [str(tmp_path / "a.json"), str(tmp_path / "b.json")]
        assert main(["pathmetric", files[0], files[0], "--upper"]) == 0
        assert capsys.readouterr().out == "0.0\n"
        assert main(["pathmetric", *files, "--upper"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: the upper bound on the path metric overflows float64\n"
        # the report shows the coarse row as overflowing and every other row
        assert main(["pathmetric", *files]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert rows[:3] == [
            "lower          6.999999999999999e+307",
            "upper (coarse) (overflows float64)",
            "upper (refined) 6.999999999999999e+307",
        ]
        assert rows[4] == "oracle         6.999999999999999e+307"


def test_path_norm_exponents_and_accuracy_labels_outside_the_contract_are_refused(diamond):
    arch, theta = diamond
    with pytest.raises(PathliftError, match="q must be finite"):
        path_norm_fast(arch, theta, q=10**400)
    # an int that a float holds acts as that float: here the weight 3 overflows
    with pytest.raises(NonFiniteValue, match="q=1000000000000000000000000000000"):
        path_norm_fast(arch, theta, q=10**30)
    mlp = mlp_architecture((2, 3, 2))
    params = random_params(mlp, np.random.default_rng(0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for y in ([0, 1, 1], [0]):
            with pytest.raises(DimensionMismatch, match="label"):
                accuracy(mlp, params, np.zeros((2, 2)), y)
        with pytest.raises(MissingData, match="at least one input row"):
            accuracy(mlp, params, np.zeros((0, 2)), [])
    assert accuracy(mlp, params, np.zeros((2, 2)), [0, 1]) == 0.5


def test_rescale_multiplies_first_where_the_factor_ratio_leaves_float64():
    # m2 / m1 = 1e-400 underflows to 0, and the middle weight is 1e-100
    arch, theta = chain3((1.0, 1e300, 1.0), (0.0, 0.0, 0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = rescale(arch, theta, {"m1": 1e200, "m2": 1e-200}).vec
    assert got[[0, 2]].tolist() == [1e200, 1e200]
    assert got[1] == pytest.approx(1e-100, rel=1e-15)
    # m2 / m1 = 1e400 overflows, yet every rescaled weight is finite
    arch, theta = chain3((1.0, 1e-300, 1.0), (0.0, 0.0, 0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = rescale(arch, theta, {"m1": 1e-200, "m2": 1e200}).vec
    assert got[[0, 2]].tolist() == [1e-200, 1e-200]
    assert got[1] == pytest.approx(1e100, rel=1e-15)
    # a subnormal ratio keeps few digits: 3e-300 * 1e-10 loses most of them
    arch, theta = chain3((1.0, 3.0, 1.0), (0.0, 0.0, 0.0))
    got = rescale(arch, theta, {"m1": 1e300, "m2": 3e-10}).vec
    assert got[1] == pytest.approx(3.0 * 3e-10 / 1e300, rel=1e-15)


def test_passes_that_overflow_are_refused(chain2, tmp_path, capsys):
    # the output at x = 1 is 1e400
    theta = ParamVector(chain2, [1e200, 1e200, 0.0, 0.0])
    save_network(tmp_path / "big.json", chain2, theta)
    (tmp_path / "b.csv").write_text("1.0,0.0\n")
    x = np.ones((1, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for aggregate, target in (("sum_outputs", None), ("squared_error", [[0.0]])):
            with pytest.raises(NonFiniteValue, match="^the forward pass overflows float64$"):
                scalar_value(chain2, theta, x, aggregate=aggregate, target=target)
        with pytest.raises(NonFiniteValue, match="^the linearized output overflows float64$"):
            linearized_output(chain2, theta, [1.0])
        with pytest.raises(NonFiniteValue, match="^the forward pass overflows float64$"):
            accuracy(chain2, theta, x, [0])
        with pytest.raises(NonFiniteValue):
            obd_scores(chain2, theta, (x, np.zeros((1, 1))))
        argv = ["prune", str(tmp_path / "big.json"), "--criterion", "obd", "--count", "1",
                "--data", str(tmp_path / "b.csv")]
        assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the forward pass overflows float64\n"


def test_a_finite_pass_whose_loss_overflows_is_refused(chain2):
    # the output 1e200 is finite; half its square is not
    theta = ParamVector(chain2, [1e100, 1e100, 0.0, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert scalar_value(chain2, theta, [[1.0]]) == 1e200
        with pytest.raises(NonFiniteValue, match="^the squared_error aggregate overflows float64$"):
            scalar_value(chain2, theta, [[1.0]], aggregate="squared_error", target=[[0.0]])
        with pytest.raises(NonFiniteValue, match="^the squared_error aggregate overflows float64$"):
            obd_scores(chain2, theta, (np.ones((1, 1)), np.zeros((1, 1))))
        # the loss is about 5e299, and so is each edge's exact saliency
        for weights in ((1e10, 1e140), (1e20, 1e130)):
            theta = ParamVector(chain2, [*weights, 0.0, 0.0])
            scores = obd_scores(chain2, theta, (np.ones((1, 1)), np.zeros((1, 1))))
            assert scores.values.tolist() == [5e299, 5e299, 0.0, 0.0]


def test_the_report_shows_an_overflowing_coarse_bound():
    # the coarse width term overflows; the report keeps every other row
    arch, a = chain3((1e154, 1e154, 1.0), (0.5, -0.5, 0.0))
    b = ParamVector(arch, [3e153, 1e154, 1.0, 0.1, -0.9, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = path_metric_report(arch, a, b)
    assert report.upper_coarse is None
    assert report.lower == report.upper_refined == report.oracle == 6.999999999999999e307
    assert report.render().splitlines()[1] == "upper (coarse) (overflows float64)"


def test_ints_too_large_for_a_float_raise_what_infinity_raises(diamond):
    # 10**400 raises OverflowError on any conversion to float64: as an
    # array entry it is refused as a non-finite value, and a scalar check
    # meets it as the infinity it rounds to
    arch, theta = diamond
    a = theta.vec.tolist()
    cases = {
        "ParamVector": (NonFiniteValue, lambda v: ParamVector(arch, [v] + a[1:])),
        "forward": (NonFiniteValue, lambda v: forward(arch, theta, [v])),
        "accuracy": (NonFiniteValue, lambda v: accuracy(arch, theta, [[v]], [0])),
        "grad_scalar": (NonFiniteValue, lambda v: grad_scalar(arch, theta, [[v]])),
        "linearized_output": (NonFiniteValue, lambda v: linearized_output(arch, theta, [v])),
        "bound_rhs": (NonFiniteValue, lambda v: bound_rhs(arch, theta, theta, [v])),
        "pruning_error_bound": (NonFiniteValue, lambda v: pruning_error_bound(arch, theta, [0], [v])),
        "obd_scores": (NonFiniteValue, lambda v: obd_scores(arch, theta, ([[1.0]], [[v]]))),
        "rescale": (NonPositiveFactor, lambda v: rescale(arch, theta, {"h1": v})),
        "trajectory_point": (NonFiniteValue, lambda v: trajectory_point(theta, theta, v)),
        "apply_prune": (InfeasibleAmount, lambda v: apply_prune(theta, magnitude_scores(arch, theta), fraction=v)),
        "lr": (PathliftError, lambda v: ExperimentConfig(seed=0, lr=v).validated()),
    }
    partner = replaced(theta, {0: 2.0})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, (error, call) in cases.items():
            for value in (10**400, np.inf):
                with pytest.raises(error):
                    call(value)
        # an infinite width stops every bisection, and so does this one
        wide = activation_breakpoints(arch, theta, partner, [1.0], width=10**400)
        assert wide == activation_breakpoints(arch, theta, partner, [1.0], width=np.inf)


def test_brute_force_scores_refuse_an_overflowing_lifting(tmp_path, capsys):
    # the input path weighs 1e400, so every score on it overflows
    arch, theta = chain3((1e200, 1e200, 1.0), (0.0, 0.0, 0.0))
    save_network(tmp_path / "c.json", arch, theta)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteValue, match="^a path-magnitude score overflows float64$"):
            path_mag_scores(arch, theta, method="bruteforce")
        assert main(["prune", str(tmp_path / "c.json"), "--method", "brute", "--count", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: a path-magnitude score overflows float64\n"

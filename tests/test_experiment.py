"""Train / rescale / prune / rewind / finetune pipeline on synthetic data."""

import numpy as np
import pytest

from pathlift import experiment
from pathlift.builders import mlp_architecture, mlp_params
from pathlift.errors import DimensionMismatch, InfeasibleAmount, NonFiniteValue, PathliftError
from pathlift.experiment import (
    ExperimentConfig,
    accuracy,
    epoch_seeds,
    make_dataset,
    run_experiment,
    sgd_train,
)
from pathlift.graph import ParamVector
from pathlift.pruning import apply_prune, magnitude_scores, path_mag_scores

from reference import reference_experiment


def _tiny(seed=3, **over):
    base = dict(
        seed=seed,
        n_train=120,
        n_test=80,
        widths=(2, 6, 2),
        epochs=12,
        rewind_epoch=3,
        batch_size=64,
        prune_fraction=0.3,
    )
    base.update(over)
    return ExperimentConfig(**base)


def test_make_dataset_shapes_and_determinism():
    cfg = _tiny(n_train=100, n_test=50)
    xtr, ytr, xte, yte = make_dataset(cfg, np.random.default_rng(0))
    assert xtr.shape == (100, 2) and ytr.shape == (100,)
    assert xte.shape == (50, 2) and yte.shape == (50,)
    assert set(np.unique(ytr)) == {0, 1}
    xtr2, ytr2, _, _ = make_dataset(cfg, np.random.default_rng(0))
    np.testing.assert_array_equal(xtr2, xtr)
    np.testing.assert_array_equal(ytr2, ytr)


def test_xor_dataset_labels():
    cfg = _tiny(dataset="xor")
    xtr, ytr, _, _ = make_dataset(cfg, np.random.default_rng(1))
    np.testing.assert_array_equal(ytr, (xtr[:, 0] * xtr[:, 1] > 0).astype(np.int64))


def test_config_rejects_a_negative_seed():
    with pytest.raises(PathliftError):
        _tiny(seed=-1).validated()


def test_config_validation():
    with pytest.raises(PathliftError):
        _tiny(rewind_epoch=12).validated()  # must be < epochs
    with pytest.raises(PathliftError):
        _tiny(dataset="mnist").validated()
    with pytest.raises(PathliftError):
        _tiny(loss="hinge").validated()
    with pytest.raises(PathliftError):
        _tiny(criteria=("pathmag", "fisher")).validated()
    with pytest.raises(InfeasibleAmount):
        _tiny(prune_fraction=1.0).validated()
    with pytest.raises(InfeasibleAmount):
        _tiny(prune_fraction=-0.1).validated()
    for bad in (dict(epochs=2.5), dict(rewind_epoch=1.5), dict(rewind_epoch=None)):
        with pytest.raises(PathliftError):
            run_experiment(_tiny(**bad))
    assert _tiny(epochs=12.0, rewind_epoch=2.0).validated() == _tiny(epochs=12, rewind_epoch=2)


def test_config_refuses_the_squared_error_on_one_output():
    with pytest.raises(PathliftError, match=r"widths \(2, 6, 1\) end in 1"):
        _tiny(widths=(2, 6, 1), loss="squared_error").validated()
    assert _tiny(widths=(2, 6, 1)).validated().widths == (2, 6, 1)


def test_config_rejects_repeated_criteria():
    with pytest.raises(PathliftError, match="repeated"):
        _tiny(criteria=("pathmag", "magnitude", "pathmag")).validated()


def test_a_bad_preset_is_refused_before_training(monkeypatch):
    def train(*args, **kwargs):
        raise AssertionError("trained before checking the preset")

    monkeypatch.setattr("pathlift.experiment.sgd_train", train)
    with pytest.raises(PathliftError, match="bogus"):
        run_experiment(_tiny(rescale_preset="bogus"))


def test_sgd_train_needs_a_whole_batch_size():
    arch = mlp_architecture((2, 3, 2))
    theta = ParamVector(arch, np.ones(arch.n_coords))
    x, y = np.ones((8, 2)), np.zeros(8, dtype=np.int64)
    for batch_size in (0, -1, 2.5, None):
        with pytest.raises(PathliftError, match="batch_size"):
            sgd_train(arch, theta, x, y, epoch_seeds(0, 2), 0.05, batch_size)


def _train(x=None, y=None, loss="logistic"):
    """Final coordinates of two epochs on an 8-row batch of a (2, 3, 2) MLP."""
    arch = mlp_architecture((2, 3, 2))
    theta = ParamVector(arch, np.linspace(-1.0, 1.0, arch.n_coords))
    x = np.random.default_rng(0).normal(size=(8, 2)) if x is None else x
    y = np.arange(8) % 2 if y is None else y
    return sgd_train(arch, theta, x, y, epoch_seeds(0, 2), 0.05, 4, loss=loss)[0].vec


def test_sgd_train_takes_a_list_of_inputs():
    x = np.random.default_rng(0).normal(size=(8, 2))
    assert _train(x=x.tolist()).tobytes() == _train().tobytes()
    for bad in (x[:, :1], x.ravel(), [["a", "b"]] * 8):
        with pytest.raises(DimensionMismatch):
            _train(x=bad)


def test_sgd_train_takes_a_list_of_labels():
    for loss in ("logistic", "squared_error"):
        assert _train(y=[0, 1] * 4, loss=loss).tobytes() == _train(loss=loss).tobytes()


def test_sgd_train_needs_one_label_per_row():
    for y in (np.zeros(7, dtype=np.int64), np.zeros(9, dtype=np.int64)):
        with pytest.raises(DimensionMismatch, match="one label per row"):
            _train(y=y)


def test_sgd_train_needs_squared_error_labels_in_range():
    for label in (2, -1, 0.5):
        with pytest.raises(DimensionMismatch, match=r"integers in \[0, 2\)"):
            _train(y=[0] * 7 + [label], loss="squared_error")


def test_make_dataset_validates_its_config():
    for n_train in ("5", -3):
        with pytest.raises(PathliftError, match="n_train"):
            make_dataset(ExperimentConfig(seed=0, n_train=n_train), 0)


def test_epoch_seeds_prefix_stable():
    a = epoch_seeds(5, 10)
    b = epoch_seeds(5, 3)
    assert len(a) == 10 and len(b) == 3
    for sa, sb in zip(a, b):
        np.testing.assert_array_equal(
            np.random.default_rng(sa).integers(0, 1 << 30, size=4),
            np.random.default_rng(sb).integers(0, 1 << 30, size=4),
        )


def test_sgd_suffix_replay_is_bit_exact():
    rng = np.random.default_rng(11)
    arch = mlp_architecture((2, 4, 2))
    theta0 = mlp_params(
        arch,
        [rng.normal(size=(4, 2)), rng.normal(size=(2, 4))],
        biases=[rng.normal(size=4), rng.normal(size=2)],
    )
    x = rng.normal(size=(64, 2))
    y = rng.integers(0, 2, size=64)
    seeds = epoch_seeds(21, 9)
    full, snap = sgd_train(arch, theta0, x, y, seeds, 0.05, 32, snapshot_epoch=4)
    resumed, _ = sgd_train(arch, snap, x, y, seeds[4:], 0.05, 32)
    np.testing.assert_array_equal(resumed.vec, full.vec)


def test_a_snapshot_at_epoch_0_is_the_masked_start():
    rng = np.random.default_rng(12)
    arch = mlp_architecture((2, 4, 2))
    theta0 = ParamVector(arch, rng.normal(size=arch.n_coords))
    x = rng.normal(size=(32, 2))
    y = rng.integers(0, 2, size=32)
    _, mask = apply_prune(theta0, magnitude_scores(arch, theta0), count=3)
    final, snap = sgd_train(arch, theta0, x, y, epoch_seeds(4, 2), 0.05, 16, snapshot_epoch=0)
    assert snap.vec.tobytes() == theta0.vec.tobytes() != final.vec.tobytes()
    _, snap = sgd_train(arch, theta0, x, y, epoch_seeds(4, 2), 0.05, 16, snapshot_epoch=0, mask=mask)
    assert snap.vec.tobytes() == mask.apply(theta0).vec.tobytes()


def test_accuracy_argmax():
    arch = mlp_architecture((2, 2))
    theta = mlp_params(arch, [np.eye(2)])
    x = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert accuracy(arch, theta, x, [0, 1]) == 1.0
    assert accuracy(arch, theta, x, [1, 1]) == 0.5


def test_accuracy_of_one_output_predicts_class_1_where_it_is_positive():
    arch = mlp_architecture((1, 1))
    theta = mlp_params(arch, [[[1.0]]])
    x = [[-2.0], [-0.5], [0.5], [3.0]]
    assert accuracy(arch, theta, x, [0, 0, 1, 1]) == 1.0
    assert accuracy(arch, theta, x, [1, 1, 0, 1]) == 0.25
    cfg = ExperimentConfig(seed=0, widths=(2, 8, 1), epochs=3, rewind_epoch=1, n_train=200, n_test=100)
    report = run_experiment(cfg)
    assert report.dense_accuracy > 0.9  # 0.51 when every row is predicted class 0


def test_fraction_zero_reproduces_dense_run():
    report = run_experiment(_tiny(prune_fraction=0.0))
    assert report.arms
    for arm in report.arms:
        assert arm.n_pruned == 0
        # the finetune replays exactly the dense epochs from the snapshot
        assert arm.test_accuracy == report.dense_accuracy
    assert all(h == 0 for h in report.mask_hamming.values())


def test_pathmag_mask_survives_rescaling_magnitude_does_not():
    report = run_experiment(
        ExperimentConfig(seed=0, n_train=400, n_test=200, epochs=30, rewind_epoch=5)
    )
    assert report.mask_hamming["pathmag"] == 0
    assert report.mask_hamming["magnitude"] > 0
    assert report.dense_accuracy >= 0.9
    assert any(f != 1.0 for f in report.factors.values())


def test_experiment_deterministic():
    a = run_experiment(_tiny())
    b = run_experiment(_tiny())
    assert a.dense_accuracy == b.dense_accuracy
    assert a.mask_hamming == b.mask_hamming
    assert a.factors == b.factors
    for arm_a, arm_b in zip(a.arms, b.arms):
        assert arm_a.test_accuracy == arm_b.test_accuracy
        assert arm_a.mask.pruned == arm_b.mask.pruned


def test_report_renders_rows():
    report = run_experiment(_tiny(criteria=("pathmag",)))
    text = report.render()
    assert "criterion   rescaled   pruned   test_acc" in text
    assert "pathmag" in text
    assert "mask hamming distance, plain vs rescaled [pathmag]:" in text
    assert f"seed {report.config.seed}" in text


@pytest.mark.parametrize(
    "over, distinct",
    [
        ({}, 3),  # the plain and rescaled path-magnitude arms share one mask
        ({"criteria": ("magnitude", "obd"), "prune_biases": True}, 4),  # every mask differs
    ],
    ids=["shared", "all-differ"],
)
def test_each_distinct_mask_finetunes_once_and_matches_its_arms_trained_alone(monkeypatch, over, distinct):
    cfg = _tiny(**over)
    stacks = []
    train = experiment.sgd_train

    def spy(arch, theta, *args, **kwargs):
        if kwargs.get("mask") is not None:
            stacks.append(len(theta))
        return train(arch, theta, *args, **kwargs)

    monkeypatch.setattr(experiment, "sgd_train", spy)
    report = run_experiment(cfg)
    dense, arms, hamming = reference_experiment(cfg)
    assert stacks == [distinct] == [len({arm.mask.keep.tobytes() for arm in report.arms})]
    assert report.dense_accuracy == dense
    assert report.mask_hamming == hamming
    for arm, (crit, rescaled, mask, acc) in zip(report.arms, arms, strict=True):
        assert (arm.criterion, arm.rescaled) == (crit, rescaled)
        assert arm.mask.keep.tobytes() == mask.keep.tobytes() and arm.mask.pruned == mask.pruned
        assert arm.n_pruned == len(mask.pruned)
        assert arm.test_accuracy == acc


def _four_arms(seed=5, n=300):
    """A trained MLP, its rewind snapshot, and four masks (two of them
    equal), as ``run_experiment`` finetunes them."""
    rng = np.random.default_rng(seed)
    arch = mlp_architecture((2, 16, 16, 2))
    x, y = rng.normal(size=(n, 2)), rng.integers(0, 2, size=n)
    seeds = epoch_seeds(seed, 6)
    theta0 = mlp_params(arch, [rng.normal(size=(16, 2)), rng.normal(size=(16, 16)), rng.normal(size=(2, 16))])
    trained, rewound = sgd_train(arch, theta0, x, y, seeds, 0.05, 64, snapshot_epoch=2)
    masks = []
    for scores in (path_mag_scores(arch, trained), path_mag_scores(arch, trained),
                   magnitude_scores(arch, trained), magnitude_scores(arch, rewound)):
        masks.append(apply_prune(trained, scores, fraction=0.4, edges_only=True)[1])
    return arch, x, y, seeds[2:], rewound, masks


def test_lockstep_arms_are_their_separate_runs_bit_for_bit():
    arch, x, y, seeds, rewound, masks = _four_arms()
    starts = [mask.apply(rewound) for mask in masks]
    for loss in ("logistic", "squared_error"):
        finals, snaps = sgd_train(arch, starts, x, y, seeds, 0.05, 64, loss=loss, snapshot_epoch=1, mask=masks)
        assert len(finals) == len(snaps) == 4
        for start, mask, final, snap in zip(starts, masks, finals, snaps):
            one, one_snap = sgd_train(arch, start, x, y, seeds, 0.05, 64, loss=loss, snapshot_epoch=1, mask=mask)
            assert final.vec.tobytes() == one.vec.tobytes()
            assert snap.vec.tobytes() == one_snap.vec.tobytes()
        assert finals[0].vec.tobytes() == finals[1].vec.tobytes()  # identical masks
    # one start for every mask, and one mask for every start
    shared, _ = sgd_train(arch, rewound, x, y, seeds, 0.05, 64, mask=masks)
    for mask, final in zip(masks, shared):
        assert final.vec.tobytes() == sgd_train(arch, rewound, x, y, seeds, 0.05, 64, mask=mask)[0].vec.tobytes()
    unmasked, _ = sgd_train(arch, starts[:2], x, y, seeds, 0.05, 64, mask=[None, masks[1]])
    assert unmasked[0].vec.tobytes() == sgd_train(arch, starts[0], x, y, seeds, 0.05, 64)[0].vec.tobytes()
    with pytest.raises(DimensionMismatch):
        sgd_train(arch, starts[:3], x, y, seeds, 0.05, 64, mask=masks)


def test_lockstep_names_the_epoch_and_the_arm_that_diverge():
    arch, x, y, seeds, rewound, masks = _four_arms()
    starts = [mask.apply(rewound) for mask in masks]
    blown = ParamVector(arch, starts[2].vec * 1e80)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteValue, match=r"epoch \d+ in arm 2\b"):
            sgd_train(arch, starts[:2] + [blown, starts[3]], x, y, seeds, 50.0, 64,
                      loss="squared_error", mask=masks)

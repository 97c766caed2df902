"""Desk-scale pruning experiment: train, rescale, prune, rewind, finetune.

The point of the pipeline is to compare pruning criteria across the
rescaling orbit of one trained network.  Each criterion runs twice, once on
the trained weights and once on a randomly rescaled copy; the chosen masks
are compared bit by bit.  Path-magnitude and OBD masks coincide exactly (the
scores are rescaling invariant and the preset factors powers of two, so
floating point agrees bit for bit); magnitude masks generally do not.

The rescaled copy only influences the pipeline through its mask: after
pruning, weights are rewound to the dense run's early-epoch snapshot and
finetuned with the mask frozen, with one shuffling stream for every arm,
so arms with identical masks would finish with identical weights.  Each
distinct mask therefore trains once (the distinct masks in lockstep, as one
stack), and the arms that share it share its finetuned weights.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .autodiff import grad_scalar
from .builders import mlp_architecture
from .engine import Tape, _finite_run
from .errors import DimensionMismatch, InfeasibleAmount, MissingData, NonFiniteValue, PathliftError
from .graph import Architecture, ParamVector, _check_batch, _check_bound, _check_labels, _rng, _scalar
from .pruning import Mask, apply_prune, baseline_scores, path_mag_scores
from .transforms import random_rescaling, rescale


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int
    dataset: str = "two_gaussians"
    n_train: int = 2000
    n_test: int = 500
    widths: tuple = (2, 16, 16, 2)
    epochs: int = 200
    lr: float = 0.05
    batch_size: int = 256
    rewind_epoch: int = 10
    prune_fraction: float = 0.4
    rescale_preset: str = "pow2_factors"
    criteria: tuple = ("pathmag", "magnitude")
    loss: str = "logistic"
    prune_biases: bool = False

    def validated(self) -> "ExperimentConfig":
        if self.dataset not in ("two_gaussians", "xor"):
            raise PathliftError(f"unknown dataset {self.dataset!r}")
        if self.loss not in ("logistic", "squared_error"):
            raise PathliftError(f"unknown loss {self.loss!r}")
        if self.loss == "squared_error" and isinstance(self.widths, (tuple, list)) and list(self.widths[-1:]) == [1]:
            raise PathliftError(f"squared-error loss needs two or more outputs; widths {tuple(self.widths)} end in 1")
        counts = {
            name: _scalar(getattr(self, name), PathliftError, f"{name} must be an integer >= {low}",
                          lambda n, low=low: n >= low, whole=True)
            for name, low in (("seed", 0), ("n_train", 1), ("n_test", 1), ("batch_size", 1),
                              ("epochs", 1), ("rewind_epoch", 0))
        }
        if not counts["rewind_epoch"] < counts["epochs"]:
            raise PathliftError(
                f"rewind epoch {self.rewind_epoch} must lie in [0, {self.epochs})"
            )
        _learning_rate(self.lr)
        _scalar(self.prune_fraction, InfeasibleAmount, "prune fraction must be a number in [0, 1)",
                lambda f: 0.0 <= f < 1.0)
        bad = [c for i, c in enumerate(self.criteria) if c not in ("pathmag", "magnitude", "obd") or c in self.criteria[:i]]
        if bad:
            raise PathliftError(f"unknown or repeated criteria {bad}")
        return replace(self, **counts)


def make_dataset(cfg: ExperimentConfig, rng):
    """2-d binary classification sets: two Gaussian blobs, or the xor
    quadrants, drawn from ``rng`` (a seed or a Generator).  Raises as
    ``cfg.validated()`` does on a bad config."""
    cfg, rng = cfg.validated(), _rng(rng)
    n = cfg.n_train + cfg.n_test
    if cfg.dataset == "two_gaussians":
        y = rng.integers(0, 2, size=n)
        centers = np.array([[-1.2, -1.2], [1.2, 1.2]])
        x = centers[y] + 0.8 * rng.normal(size=(n, 2))
    else:
        x = rng.uniform(-1.0, 1.0, size=(n, 2))
        y = (x[:, 0] * x[:, 1] > 0).astype(np.int64)
    return (
        x[: cfg.n_train],
        y[: cfg.n_train],
        x[cfg.n_train :],
        y[cfg.n_train :],
    )


def _init_params(arch: Architecture, rng) -> ParamVector:
    """He initialization: each weight normal with variance 2 / (fan-in of
    its destination), drawn in canonical edge order; zero biases."""
    fan = np.diff(arch.in_ptr)
    v = np.zeros(arch.n_coords)
    v[: arch.n_edges] = rng.normal(size=arch.n_edges) * np.sqrt(2.0 / fan[arch.dst])
    return ParamVector(arch, v)


def _loss_target(y, loss, d_out):
    if loss == "logistic":
        return y
    return np.eye(d_out)[y]


def _learning_rate(lr) -> float:
    return _scalar(lr, PathliftError, "lr must be a finite number > 0", lambda v: 0.0 < v < math.inf)


def epoch_seeds(seed, epochs: int):
    """One independent child seed per epoch, reproducible from `seed` (an
    integer >= 0, a SeedSequence, which spawns them, or a Generator)."""
    epochs = _scalar(epochs, PathliftError, "epochs must be an integer >= 0", lambda n: n >= 0, whole=True)
    return _rng(seed, "seed").bit_generator.seed_seq.spawn(epochs)


def sgd_train(
    arch: Architecture,
    theta,
    x,
    y,
    seeds,
    lr: float,
    batch_size: int,
    loss: str = "logistic",
    snapshot_epoch=None,
    mask=None,
):
    """Plain mini-batch gradient descent on the summed batch loss / batch size.

    `seeds` holds one entry per epoch (see epoch_seeds); the batch
    permutation of epoch e depends only on seeds[e], so training a suffix
    of the epochs from a snapshot replays the exact same batches.  Applies
    the mask after every step when given (pruned coordinates stay zero).
    Returns (final theta, snapshot theta or None).

    `theta` and `mask` may each be one value or a sequence (a mask entry
    may be None); sequences, one arm per entry, train in lockstep as one
    stack of parameter rows: every step is one gradient call over the
    stack on the shared batch, and every arm ends bit for bit as if trained
    alone.  Both results are then tuples, one entry per arm.

    A step that leaves a non-finite coordinate raises NonFiniteValue naming
    the epoch, and in lockstep the arm.  In lockstep the first arm to
    diverge is named, so when several arms diverge the epoch can be earlier
    than the one a run of the arms one after another would name (that run
    reports the first arm's divergence, however late).

    ``lr`` must be a finite number > 0, ``batch_size`` an integer >= 1,
    ``snapshot_epoch`` None or an integer >= 0 and each seed an integer
    >= 0, a SeedSequence or a Generator, else PathliftError.  ``x`` is a
    batch (rows, d_in) and ``y`` one label per row, a whole number in
    [0, max(d_out, 2)) for the logistic loss, [0, d_out) for the squared
    error (one-hot targets), else DimensionMismatch; checked once, up front.
    """
    lockstep = not isinstance(theta, ParamVector) or not (mask is None or isinstance(mask, Mask))
    thetas = list(theta) if isinstance(theta, (list, tuple)) else [theta]
    masks = [mask] if mask is None or isinstance(mask, Mask) else list(mask)
    if len(thetas) == 1:
        thetas *= len(masks)
    elif len(masks) == 1:
        masks *= len(thetas)
    if len(thetas) != len(masks) or not thetas:
        raise DimensionMismatch(f"{len(thetas)} parameter vectors for {len(masks)} masks")
    for t in thetas:
        _check_bound(arch, t)
    batch_size = _scalar(batch_size, PathliftError, "batch_size must be an integer >= 1", lambda k: k >= 1, whole=True)
    _learning_rate(lr)
    if snapshot_epoch is not None:
        snapshot_epoch = _scalar(snapshot_epoch, PathliftError, "snapshot_epoch must be an integer >= 0",
                                 lambda k: k >= 0, whole=True)
    x = _check_batch(arch, x)
    # int64 labels: each step's check is then a dtype and a range test
    y = _check_labels(y, x.shape[0], arch.d_out if loss == "squared_error" else max(arch.d_out, 2))
    n = x.shape[0]
    vec = np.stack([t.vec for t in thetas])
    keep = None
    if any(m is not None for m in masks):
        keep = np.stack([np.ones(arch.n_coords) if m is None else m.s for m in masks])
        vec *= keep
    snapshot = None
    if snapshot_epoch == 0:
        snapshot = vec.copy()
    tapes = {}  # one per batch size: the full batches and the last, short one
    targets = _loss_target(y, loss, arch.d_out)
    for epoch, eseed in enumerate(seeds):
        perm = _rng(eseed, "epoch seed").permutation(n)
        for lo in range(0, n, batch_size):
            idx = perm[lo : lo + batch_size]
            tape = tapes.get(idx.size)
            if tape is None:
                tape = tapes[idx.size] = Tape(arch, idx.size, len(vec))
            _, g = grad_scalar(arch, vec, x[idx], aggregate=loss, target=targets[idx], tape=tape)
            g *= lr / idx.size  # the gradient lives in the tape, rewritten by the next pass
            vec -= g
            if keep is not None:
                vec *= keep
            finite = np.isfinite(vec).all(axis=1)
            if not finite.all():
                arm = f" in arm {int(np.argmin(finite))}" if lockstep else ""
                raise NonFiniteValue(f"training diverged in epoch {epoch}{arm}: non-finite parameters")
        if snapshot_epoch is not None and epoch + 1 == snapshot_epoch:
            snapshot = vec.copy()
    finals = tuple(ParamVector(arch, v) for v in vec)
    snaps = None if snapshot is None else tuple(ParamVector(arch, v) for v in snapshot)
    if lockstep:
        return finals, snaps
    return finals[0], None if snaps is None else snaps[0]


def accuracy(arch: Architecture, theta: ParamVector, x, y) -> float:
    """Share of the rows of x whose predicted class, the largest output (with
    one output, 1 where it is > 0: the sigmoid the logistic loss trains), is
    their label in y, one per row, a whole number in [0, max(d_out, 2)).
    Raises MissingData for no rows, NonFiniteValue when the pass overflows."""
    _check_bound(arch, theta)
    x = _check_batch(arch, x)
    if not x.shape[0]:
        raise MissingData("accuracy needs at least one input row")
    labels = _check_labels(y, x.shape[0], max(arch.d_out, 2))
    out = _finite_run(arch, theta.vec, x)[arch.output_pos]
    pred = out[0] > 0.0 if arch.d_out == 1 else out.argmax(axis=0)
    return float(np.mean(pred == labels))


@dataclass(frozen=True)
class ArmResult:
    criterion: str
    rescaled: bool
    test_accuracy: float
    mask: Mask
    n_pruned: int


@dataclass(frozen=True)
class ExperimentReport:
    config: ExperimentConfig
    arms: tuple
    mask_hamming: dict
    factors: dict
    dense_accuracy: float
    elapsed_s: float = field(default=0.0)

    def render(self) -> str:
        cfg = self.config
        lines = [
            f"seed {cfg.seed}  dataset {cfg.dataset}  widths {list(cfg.widths)}  "
            f"epochs {cfg.epochs}  rewind@{cfg.rewind_epoch}  lr {cfg.lr}  loss {cfg.loss}",
            f"prune fraction {cfg.prune_fraction} ({'edges+biases' if cfg.prune_biases else 'edges only'})  "
            f"rescale preset {cfg.rescale_preset}",
            f"dense test accuracy {self.dense_accuracy:.4f}   ({self.elapsed_s:.1f}s)",
            "",
            "criterion   rescaled   pruned   test_acc",
        ]
        for arm in self.arms:
            lines.append(
                f"{arm.criterion:<11} {str(arm.rescaled):<10} {arm.n_pruned:<8} {arm.test_accuracy:.4f}"
            )
        lines.append("")
        for crit, h in self.mask_hamming.items():
            lines.append(f"mask hamming distance, plain vs rescaled [{crit}]: {h}")
        return "\n".join(lines)


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    cfg = config.validated()
    t_start = time.perf_counter()
    roots = np.random.SeedSequence(cfg.seed).spawn(4)
    data_rng, init_rng, rescale_rng = map(_rng, (roots[0], roots[1], roots[3]))
    seeds = epoch_seeds(roots[2], cfg.epochs)

    xtr, ytr, xte, yte = make_dataset(cfg, data_rng)
    arch = mlp_architecture(cfg.widths)
    theta0 = _init_params(arch, init_rng)
    # drawn before training, so a bad preset fails at once; redrawn until one factor
    # differs from 1, so the rescaled arm is another parametrization of the same function
    while True:
        factors = random_rescaling(arch, rescale_rng, preset=cfg.rescale_preset)
        if any(f != 1.0 for f in factors.values()):
            break

    theta_T, theta_rw = sgd_train(
        arch, theta0, xtr, ytr, seeds, cfg.lr, cfg.batch_size,
        loss=cfg.loss, snapshot_epoch=cfg.rewind_epoch,
    )
    dense_acc = accuracy(arch, theta_T, xte, yte)

    obd_batch = (xtr[:256], _loss_target(ytr[:256], cfg.loss, arch.d_out))

    def score(theta_base, crit):
        if crit == "pathmag":
            return path_mag_scores(arch, theta_base, method="autodiff")
        return baseline_scores(arch, theta_base, crit, data=obd_batch, loss=cfg.loss)

    arms = []  # (criterion, rescaled, mask) in report order
    for crit in cfg.criteria:
        for rescaled in (False, True):
            theta_base = rescale(arch, theta_T, factors) if rescaled else theta_T
            _, mask = apply_prune(
                theta_base,
                score(theta_base, crit),
                fraction=cfg.prune_fraction,
                edges_only=not cfg.prune_biases,
            )
            arms.append((crit, rescaled, mask))
    masks = [mask for _, _, mask in arms]
    # arms with identical masks would train the same run: each distinct mask
    # trains once, in lockstep with the others, and its arms share the result
    distinct = {mask.keep.tobytes(): mask for mask in masks}
    finetuned = {}
    if distinct:
        trained, _ = sgd_train(
            arch, [mask.apply(theta_rw) for mask in distinct.values()], xtr, ytr,
            seeds[cfg.rewind_epoch :], cfg.lr, cfg.batch_size, loss=cfg.loss, mask=list(distinct.values()),
        )
        finetuned = dict(zip(distinct, trained))
    hamming = {crit: masks[2 * k].hamming(masks[2 * k + 1]) for k, crit in enumerate(cfg.criteria)}

    return ExperimentReport(
        config=cfg,
        arms=tuple(
            ArmResult(
                criterion=crit,
                rescaled=rescaled,
                test_accuracy=accuracy(arch, finetuned[mask.keep.tobytes()], xte, yte),
                mask=mask,
                n_pruned=len(mask.pruned),
            )
            for crit, rescaled, mask in arms
        ),
        mask_hamming=hamming,
        factors=factors,
        dense_accuracy=dense_acc,
        elapsed_s=time.perf_counter() - t_start,
    )

"""Command-line front end.

Exit codes: 0 on success, 1 on a domain error (anything raising
PathliftError), 2 on usage errors (argparse).  Commands that draw random
numbers require an explicit --seed.
"""

from __future__ import annotations

import argparse
import re
import sys

import numpy as np

from . import __version__
from .builders import random_dag, random_params, same_sign_partner
from .errors import MissingData, ParseError, PathliftError
from .experiment import ExperimentConfig, run_experiment
from .graph import forward
from .lipschitz import equality_witness, sign_counterexample, verify_bound
from .metrics import (
    path_metric_exact_dominated,
    path_metric_lower,
    path_metric_oracle,
    path_metric_report,
    path_metric_upper,
    path_norm_fast,
)
from .netfile import load_network, save_network
from .paths import path_lifting, save_path_table
from .pruning import apply_prune, baseline_scores, path_mag_scores
from .transforms import normalize, random_rescaling, rescale


def _cmd_eval(args):
    arch, theta = load_network(args.network)
    if args.trace:
        out, values = forward(arch, theta, args.input, trace=True)
        for nid in arch.ids:
            print(f"{nid}\t{float(values[nid])!r}")
    else:
        out = forward(arch, theta, args.input)
    print(" ".join(repr(float(v)) for v in out))


def _cmd_pathnorm(args):
    arch, theta = load_network(args.network)
    print(repr(path_norm_fast(arch, theta, q=args.q)))
    if args.dump:
        lift = path_lifting(arch, theta)
        save_path_table(args.dump, lift.paths, lift.values)


def _cmd_pathmetric(args):
    arch, t1 = load_network(args.network)
    arch2, t2 = load_network(args.other)
    if arch2 != arch:
        raise PathliftError("the two files describe different architectures")
    if args.lower:
        print(repr(path_metric_lower(arch, t1, t2)))
    elif args.exact:
        print(repr(path_metric_exact_dominated(arch, t1, t2)))
    elif args.upper is not None:
        print(repr(path_metric_upper(arch, t1, t2, refined=args.upper == "refined")))
    elif args.oracle:
        print(repr(path_metric_oracle(arch, t1, t2)))
    else:
        print(path_metric_report(arch, t1, t2).render())


def _load_batch(path, arch, loss):
    try:
        data = np.loadtxt(path, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise ParseError(f"{path}: not a numeric CSV batch ({exc})") from None
    if loss == "logistic":
        if data.shape[1] != arch.d_in + 1:
            raise MissingData(
                f"expected {arch.d_in} input columns plus one label column"
            )
        return data[:, : arch.d_in], data[:, arch.d_in].astype(np.int64)
    if data.shape[1] != arch.d_in + arch.d_out:
        raise MissingData(
            f"expected {arch.d_in} input columns plus {arch.d_out} target columns"
        )
    return data[:, : arch.d_in], data[:, arch.d_in :]


def _rows(first, *rest) -> str:
    """Tab-separated lines, one per entry of the equal-length columns: the
    cells and separators interleaved in one list, then one join."""
    step = 2 * (1 + len(rest))
    cells = ["\t"] * (step * len(first))
    for i, column in enumerate((first, *rest)):
        cells[2 * i :: step] = column
    cells[step - 1 :: step] = ["\n"] * len(first)
    return "".join(cells)


def _cmd_prune(args):
    arch, theta = load_network(args.network)
    method = {"autodiff": "autodiff", "diff": "pathnorm_diff", "brute": "bruteforce"}[args.method]
    data = _load_batch(args.data, arch, args.loss) if args.data else None
    if args.criterion == "pathmag":
        score = lambda th: path_mag_scores(arch, th, method=method)
    elif args.criterion == "magnitude":
        score = lambda th: baseline_scores(arch, th, "magnitude")
    else:
        score = lambda th: baseline_scores(arch, th, "obd_fd", data=data, loss=args.loss)
    scores = score(theta)
    pruned, mask = apply_prune(
        theta,
        scores,
        fraction=args.amount,
        count=args.count,
        edges_only=not args.include_biases,
        iterative=args.iterative,
        rescore=score,
    )
    values = np.asarray(scores.values, dtype=np.float64).tolist()
    flags = ["" if keep else "yes" for keep in mask.keep.tolist()]
    sys.stdout.write(
        f"pruned {len(mask.pruned)} coordinate(s)\ncoordinate\tscore\tpruned\n"
        + _rows(arch.coord_labels, map(float.__repr__, values), flags)
    )
    if args.out:
        save_network(args.out, arch, pruned)


def _cmd_rescale(args):
    arch, theta = load_network(args.network)
    if args.factor:
        factors = {}
        for item in args.factor:
            nid, _, val = item.partition("=")
            try:
                factors[nid] = float(val)
            except ValueError:
                raise ParseError(f"expected NEURON=FACTOR, got {item!r}") from None
    else:
        if args.seed is None:
            raise PathliftError("either --seed or --factor is required")
        factors = random_rescaling(arch, args.seed, preset=args.preset)
    out = rescale(arch, theta, factors)
    for nid, f in factors.items():
        print(f"{nid}\t{f!r}")
    if args.out:
        save_network(args.out, arch, out)


def _cmd_normalize(args):
    arch, theta = load_network(args.network)
    out = normalize(arch, theta, include_kpool=args.include_kpool)
    if args.out:
        save_network(args.out, arch, out)
    else:
        sys.stdout.write(_rows(arch.coord_labels, map(float.__repr__, out.vec.tolist())))


def _cmd_verify_lipschitz(args):
    root = np.random.SeedSequence(args.seed)
    held = 0
    worst = None
    for child in root.spawn(args.cases):
        rng = np.random.default_rng(child)
        arch = random_dag(rng)
        t1 = random_params(arch, rng, zero_frac=0.05)
        t2 = same_sign_partner(t1, rng, zero_frac=0.05)
        x = rng.normal(scale=1.5, size=arch.d_in)
        report = verify_bound(arch, t1, t2, x, variant=args.variant)
        held += report.holds
        if worst is None or report.slack < worst:
            worst = report.slack
    print(f"{held}/{args.cases} hold ({args.variant} variant), worst slack {worst!r}")
    if held != args.cases:
        raise PathliftError("bound violated")


def _cmd_witness(args):
    if args.counterexample:
        ce = sign_counterexample()
        print("two-edge chain, weights (1, 1) vs (-1, -1), x = 1")
        print(f"path metric      {ce.path_metric!r}")
        print(f"|output gap|     {ce.lhs!r}")
        print(f"rhs if signs were ignored: {ce.rhs_ignoring_signs!r}  (bound refuses this pair)")
    else:
        d, a, b, x0 = args.equality
        w = equality_witness(int(d), a, b, x0)
        print(f"chain of {int(d)} edge(s), weights {a} vs {b}, input {x0}")
        print(f"predicted |a^d - b^d| * x0 = {w.predicted!r}")
        print(w.report.render())


def _cmd_experiment(args):
    cfg = ExperimentConfig(
        seed=args.seed,
        dataset=args.dataset,
        epochs=args.epochs,
        rewind_epoch=args.rewind_epoch,
        prune_fraction=args.fraction,
        criteria=tuple(args.criteria.split(",")),
        loss=args.loss,
        rescale_preset=args.preset,
        widths=tuple(int(w) for w in args.widths.split(",")),
        lr=args.lr,
        batch_size=args.batch_size,
        n_train=args.n_train,
        n_test=args.n_test,
        prune_biases=args.prune_biases,
    )
    print(run_experiment(cfg).render())


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="pathlift", description=__doc__)
    p.add_argument("--version", action="version", version=f"pathlift {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("eval", help="run a network file on an input")
    q.add_argument("network")
    q.add_argument("--input", type=float, nargs="+", required=True)
    q.add_argument("--trace", action="store_true", help="print every neuron value")
    q.set_defaults(fn=_cmd_eval)

    q = sub.add_parser("pathnorm", help="lq path norm (to the q) in one forward pass")
    q.add_argument("network")
    q.add_argument("--q", type=float, default=1.0)
    q.add_argument("--dump", help="also write the enumerated path lifting table here")
    q.set_defaults(fn=_cmd_pathnorm)

    q = sub.add_parser("pathmetric", help="distance between two parameterizations")
    q.add_argument("network")
    q.add_argument("other")
    g = q.add_mutually_exclusive_group()
    g.add_argument("--lower", action="store_true")
    g.add_argument("--exact", action="store_true")
    g.add_argument("--upper", nargs="?", const="coarse", choices=["coarse", "refined"])
    g.add_argument("--oracle", action="store_true")
    q.set_defaults(fn=_cmd_pathmetric)

    q = sub.add_parser("prune", help="score and zero low-importance coordinates")
    q.add_argument("network")
    q.add_argument("--criterion", choices=["pathmag", "magnitude", "obd"], default="pathmag")
    q.add_argument("--method", choices=["autodiff", "diff", "brute"], default="autodiff")
    amount = q.add_mutually_exclusive_group(required=True)
    amount.add_argument("--amount", type=float, help="fraction of eligible coordinates")
    amount.add_argument("--count", type=int, help="number of coordinates")
    q.add_argument("--iterative", action="store_true", help="re-score after each removal")
    q.add_argument("--include-biases", action="store_true")
    q.add_argument("--data", help="csv batch (inputs then targets) for obd")
    q.add_argument("--loss", choices=["squared_error", "logistic"], default="squared_error")
    q.add_argument("--out", help="write the pruned network here")
    q.set_defaults(fn=_cmd_prune)

    q = sub.add_parser("rescale", help="apply a (random) neuron rescaling")
    q.add_argument("network")
    q.add_argument("--seed", type=int)
    q.add_argument("--preset", default="pow2_factors")
    q.add_argument("--factor", action="append", help="explicit id=factor (repeatable)")
    q.add_argument("--out", help="write the rescaled network here")
    q.set_defaults(fn=_cmd_rescale)

    q = sub.add_parser("normalize", help="canonical representative of the rescaling orbit")
    q.add_argument("network")
    q.add_argument("--include-kpool", action="store_true")
    q.add_argument("--out", help="write the normalized network here")
    q.set_defaults(fn=_cmd_normalize)

    q = sub.add_parser("verify-lipschitz", help="check the bound on random same-sign pairs")
    q.add_argument("--seed", type=int, required=True)
    q.add_argument("--cases", type=int, default=100)
    q.add_argument("--variant", choices=["main", "split"], default="main")
    q.set_defaults(fn=_cmd_verify_lipschitz)

    q = sub.add_parser("witness", help="equality witness / sign counterexample")
    g = q.add_mutually_exclusive_group(required=True)
    g.add_argument("--equality", nargs=4, type=float, metavar=("D", "A", "B", "X0"))
    g.add_argument("--counterexample", action="store_true")
    q.set_defaults(fn=_cmd_witness)

    q = sub.add_parser("experiment", help="train / rescale / prune / rewind / finetune")
    q.add_argument("--seed", type=int, required=True)
    q.add_argument("--dataset", choices=["two_gaussians", "xor"], default="two_gaussians")
    q.add_argument("--epochs", type=int, default=200)
    q.add_argument("--rewind-epoch", type=int, default=10)
    q.add_argument("--fraction", type=float, default=0.4)
    q.add_argument("--criteria", default="pathmag,magnitude")
    q.add_argument("--loss", choices=["logistic", "squared_error"], default="logistic")
    q.add_argument("--preset", default="pow2_factors")
    q.add_argument("--widths", default="2,16,16,2")
    q.add_argument("--lr", type=float, default=0.05)
    q.add_argument("--batch-size", type=int, default=256)
    q.add_argument("--n-train", type=int, default=2000)
    q.add_argument("--n-test", type=int, default=500)
    q.add_argument("--prune-biases", action="store_true")
    q.set_defaults(fn=_cmd_experiment)
    for parser in (p, *sub.choices.values()):  # argparse's own pattern reads "-5e-05" as an option
        parser._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.fn(args)
    except (PathliftError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

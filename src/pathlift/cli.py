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
from .graph import _rng, _scalar, forward
from .lipschitz import equality_witness, sign_counterexample, verify_bound
from .metrics import (
    path_metric_exact_dominated,
    path_metric_lower,
    path_metric_oracle,
    path_metric_report,
    path_metric_upper,
    path_norm_fast,
)
from .netfile import _reprs, _write_rows, load_network, save_network
from .paths import path_lifting, save_path_table
from .pruning import apply_prune, baseline_scores, path_mag_scores
from .transforms import normalize, random_rescaling, rescale


def _seed_flag(seed):
    _scalar(seed, PathliftError, "--seed must be an integer >= 0", lambda n: n >= 0, whole=True)


def _int_or_text(text: str):
    """``text`` as an int, or as it is when it names none (the API refuses it)."""
    try:
        return int(text)
    except ValueError:
        return text


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
        labels = data[:, arch.d_in]
        whole = np.isfinite(labels) & (labels == np.trunc(labels)) & (np.abs(labels) < 2.0**63)
        bad = np.flatnonzero(~whole)
        if bad.size:
            raise ParseError(
                f"{path}: data row {bad[0] + 1}: class label {float(labels[bad[0]])!r} "
                "is not a whole number in the int64 range"
            )
        return data[:, : arch.d_in], labels.astype(np.int64)
    if data.shape[1] != arch.d_in + arch.d_out:
        raise MissingData(
            f"expected {arch.d_in} input columns plus {arch.d_out} target columns"
        )
    return data[:, : arch.d_in], data[:, arch.d_in :]


def _coord_rows(arch, *columns) -> None:
    """Write to stdout one tab-separated line per coordinate, its label
    then its fields in ``columns``, a chunk of lines per write."""
    _write_rows(sys.stdout, arch.n_coords, lambda a, b: arch._labels(np.arange(a, b)), *columns)


def _cmd_prune(args):
    arch, theta = load_network(args.network)
    method = {"autodiff": "autodiff", "diff": "pathnorm_diff", "brute": "bruteforce"}[args.method]
    data = _load_batch(args.data, arch, args.loss) if args.data else None
    if args.criterion == "pathmag":
        scores = path_mag_scores(arch, theta, method=method)
    else:
        scores = baseline_scores(arch, theta, args.criterion, data=data, loss=args.loss)
    pruned, mask = apply_prune(
        theta, scores, fraction=args.amount, count=args.count, edges_only=not args.include_biases
    )
    sys.stdout.write(f"pruned {len(mask.pruned)} coordinate(s)\ncoordinate\tscore\tpruned\n")
    _coord_rows(arch, _reprs(np.asarray(scores.values, dtype=np.float64)),
                lambda a, b: ["" if keep else "yes" for keep in mask.keep[a:b].tolist()])
    if args.out:
        save_network(args.out, arch, pruned)


def _cmd_rescale(args):
    if args.seed is not None:
        _seed_flag(args.seed)
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
        _coord_rows(arch, _reprs(out.vec))


def _cmd_verify_lipschitz(args):
    _seed_flag(args.seed)
    _scalar(args.cases, PathliftError, "--cases must be an integer >= 1", lambda n: n >= 1, whole=True)
    root = np.random.SeedSequence(args.seed)
    held = 0
    worst = None
    for child in root.spawn(args.cases):
        rng = _rng(child)
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
        w = equality_witness(d, a, b, x0)
        print(f"chain of {w.arch.n_edges} edge(s), weights {a} vs {b}, input {x0}")
        print(f"predicted |a^d - b^d| * x0 = {w.predicted!r}")
        print(w.report.render())


def _cmd_experiment(args):
    given = {k: v for k, v in vars(args).items() if k not in ("command", "fn")}
    if "criteria" in given:
        given["criteria"] = tuple(given["criteria"].split(","))
    if "widths" in given:
        given["widths"] = tuple(map(_int_or_text, given["widths"].split(",")))
    print(run_experiment(ExperimentConfig(**given)).render())


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

    # every flag's dest is its ExperimentConfig field, whose default applies
    # when the flag is absent
    q = sub.add_parser("experiment", help="train / rescale / prune / rewind / finetune",
                       argument_default=argparse.SUPPRESS)
    q.add_argument("--seed", type=int, required=True)
    q.add_argument("--dataset", choices=["two_gaussians", "xor"])
    q.add_argument("--epochs", type=int)
    q.add_argument("--rewind-epoch", type=int)
    q.add_argument("--fraction", type=float, dest="prune_fraction")
    q.add_argument("--criteria")
    q.add_argument("--loss", choices=["logistic", "squared_error"])
    q.add_argument("--preset", dest="rescale_preset")
    q.add_argument("--widths")
    q.add_argument("--lr", type=float)
    q.add_argument("--batch-size", type=int)
    q.add_argument("--n-train", type=int)
    q.add_argument("--n-test", type=int)
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

"""The benchmark's three workloads.

Each workload is a closed loop with one caller: a researcher's script or a
CLI invocation waits for each result before it asks for the next one.  A
workload builds its inputs from the seed in ``setup``, makes one untimed
call of each library operation in ``warmup`` where a call leaves state
behind (``path_norm_fast`` caches its surrogate on the architecture), and
runs one round of operations per ``round`` call.  Every operation goes
through ``Recorder.call``, which times it, checks its output and counts it.
CLI commands get no warm-up: a user pays load and build on every
invocation.

``instrument_targets`` names the public functions, as bound inside
pathlift's modules, around which a traced run opens spans.  Only API that
the package keeps is called or wrapped: never ``neuron_values``,
``batch_values``, ``backward``, ``pool_selections``,
``summation_surrogate``, ``subgraph_to`` or ``validate_architecture``.
"""

from __future__ import annotations

import contextlib
import io
import time
from collections import defaultdict

import numpy as np
from spans import NullTracer

from pathlift import cli, experiment, metrics, netfile, pruning
from pathlift import builders, lipschitz
from pathlift import (
    Architecture,
    ExperimentConfig,
    ParamVector,
    PathExplosion,
    activation_breakpoints,
    conv_grid_architecture,
    forward,
    grad_scalar,
    linearized_output,
    load_network,
    mlp_architecture,
    path_activations,
    path_lifting,
    path_mag_scores,
    path_metric_lower,
    path_metric_oracle,
    path_metric_upper,
    path_norm_fast,
    pruning_error_bound,
    random_dag,
    random_params,
    run_experiment,
    same_sign_partner,
    save_network,
    verify_bound,
)

REL_TOL = 1e-9
# entropy of the fixed random-DAG corpus of the paths workload
CORPUS_ENTROPY = 4


class Recorder:
    """Times, checks and counts the operations of a run, round by round.

    A check returns None when the output is right and a message otherwise.
    An operation that raises or fails its check counts as failed; the run
    goes on.  ``clock`` times the operations: ``Yardstick.clock`` leaves
    out the reference calls that interrupt them.
    """

    def __init__(self, tracer, clock=time.perf_counter):
        self.tracer = tracer
        self.clock = clock
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.rounds = []  # per round: {op: seconds summed over its calls}
        self.calls = defaultdict(list)  # op: seconds of each call
        self.counts = []  # per round: {counter: value}
        self.begin_round()

    def begin_round(self):
        self._ops = defaultdict(float)
        self._counts = defaultdict(int)

    def end_round(self):
        self.rounds.append(dict(self._ops))
        self.counts.append(dict(self._counts))

    def count(self, name: str, n: int = 1):
        self._counts[name] += n

    def fail(self, op: str, message: str):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{op}: {message}")

    def call(self, op: str, layer: str, fn, *args, check=None, **kwargs):
        self.attempted += 1
        t0 = self.clock()
        try:
            with self.tracer.span(op, layer):
                out = fn(*args, **kwargs)
        except Exception as exc:  # one failed operation must not end the run
            self.fail(op, f"{type(exc).__name__}: {exc}"[:300])
            return None
        dt = self.clock() - t0
        self._ops[op] += dt
        self.calls[op].append(dt)
        problem = check(out) if check is not None else None
        if problem:
            self.fail(op, problem)
        return out


def _rel_close(a, b, tol=REL_TOL) -> bool:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = max(1.0, float(np.max(np.abs(b), initial=0.0)))
    return a.shape == b.shape and float(np.max(np.abs(a - b), initial=0.0)) <= tol * scale


def _run_cli(argv):
    """pathlift.cli.main in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def mlp_path_count(widths) -> int:
    """Paths ending at the outputs of a dense MLP, from its widths alone."""
    counts = [1]
    for w_prev in widths[:-1]:
        counts.append(1 + w_prev * counts[-1])
    return widths[-1] * counts[-1]


class Workload:
    name = ""
    # named timing -> (unit, ops): one op is timed per call, several ops
    # by their total per round
    metrics: dict = {}
    # named timing given as a rate -> work items per call
    rates: dict = {}

    def __init__(self, seed: int, workdir, smoke: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.smoke = smoke

    def _ref(self, key, fn, *args, **kwargs):
        """Reference value for a check, computed once (in the untimed,
        untraced warm-up where there is one) and reused."""
        if key not in self._refs:
            self._refs[key] = fn(*args, **kwargs)
        return self._refs[key]

    def setup(self):
        raise NotImplementedError

    def warmup(self):
        pass

    def round(self, rec: Recorder, k: int):
        raise NotImplementedError

    def instrument_targets(self):
        return []

    def metric_samples(self, rec: Recorder) -> dict:
        """Per named timing, its samples in seconds."""
        out = {}
        for name, (_, ops) in self.metrics.items():
            if len(ops) == 1:
                out[name] = list(rec.calls[ops[0]])
            else:
                out[name] = [sum(r.get(op, 0.0) for op in ops) for r in rec.rounds]
        return out


# ---- experiment ---------------------------------------------------------


class ExperimentWorkload(Workload):
    name = "experiment"
    metrics = {"experiment.seed_s": ("s", ["experiment.seed"])}

    def config(self, k: int) -> ExperimentConfig:
        seed = self.seed * 1000 + k
        if self.smoke:
            return ExperimentConfig(seed=seed, epochs=4, rewind_epoch=1, n_train=300, n_test=100)
        return ExperimentConfig(seed=seed)

    def setup(self):
        # run_experiment builds its data, network and parameters from the
        # config, so the inputs are the validated configs; there is no
        # cached state, hence no warm-up (it would cost a whole seed).
        self.configs = [self.config(k).validated() for k in range(64)]

    def round(self, rec: Recorder, k: int):
        cfg = self.configs[k % len(self.configs)]

        def check(report):
            h = report.mask_hamming.get("pathmag")
            if h != 0:
                return f"path-magnitude mask hamming distance {h} at seed {cfg.seed}"
            return None

        rec.call("experiment.seed", "experiment", run_experiment, cfg, check=check)

    def instrument_targets(self):
        def train_name(args, kwargs):
            return "experiment.train_dense" if kwargs.get("mask") is None else "experiment.finetune"

        return [
            (experiment, "make_dataset", "experiment.make_dataset", "experiment"),
            (experiment, "mlp_architecture", "builders.mlp_architecture", "builders"),
            (builders, "Architecture", "graph.build", "graph"),
            (experiment, "sgd_train", train_name, "experiment"),
            (experiment, "grad_scalar", "autodiff.grad_b256_mlp", "autodiff"),
            (experiment, "accuracy", "experiment.accuracy", "experiment"),
            (experiment, "random_rescaling", "transforms.random_rescaling", "transforms"),
            (experiment, "rescale", "transforms.rescale", "transforms"),
            (experiment, "path_mag_scores", "experiment.score_pathmag", "pruning"),
            (pruning, "grad_path_norm", "autodiff.grad_path_norm", "autodiff"),
            (experiment, "baseline_scores", "experiment.score_magnitude", "pruning"),
            (experiment, "apply_prune", "pruning.apply_prune", "pruning"),
        ]


# ---- conv_grid ----------------------------------------------------------


class ConvGridWorkload(Workload):
    name = "conv_grid"
    metrics = {
        "conv.eval_ms": ("ms", ["graph.forward_b1"]),
        "conv.grad_b256_ms": ("ms", ["autodiff.grad_b256_conv"]),
        "conv.scores_ms": ("ms", ["pruning.path_mag_scores"]),
        "conv.upper_refined_ms": ("ms", ["metrics.upper_refined"]),
        "cli.eval_s": ("s", ["cli.eval"]),
        "cli.pathnorm_s": ("s", ["cli.pathnorm"]),
        "cli.prune_s": ("s", ["cli.prune"]),
        "cli.pathmetric_s": ("s", ["cli.pathmetric"]),
    }
    prune_amount = 0.4

    def setup(self):
        self._refs = {}
        rng = np.random.default_rng([self.seed, 2])
        if self.smoke:
            self.arch = conv_grid_architecture(side=6, channels=(2, 3), d_out=3)
        else:
            self.arch = conv_grid_architecture()
        self.theta = random_params(self.arch, rng)
        self.other = same_sign_partner(self.theta, rng)
        self.x1 = rng.normal(size=self.arch.d_in)
        self.xb = rng.normal(size=(256, self.arch.d_in))
        self.net = str(self.workdir / "conv_net.json")
        self.other_net = str(self.workdir / "conv_other.json")
        self.pruned_net = str(self.workdir / "conv_pruned.json")
        save_network(self.net, self.arch, self.theta)
        save_network(self.other_net, self.arch, self.other)
        self._pruned_file_checked = False

    def warmup(self):
        self._lib_calls(Recorder(NullTracer()))

    def _lib_calls(self, rec):
        a, t = self.arch, self.theta
        out = rec.call("graph.forward_b1", "graph", forward, a, t, self.x1)
        rec.call("autodiff.grad_b256_conv", "autodiff", grad_scalar, a, t, self.xb,
                 check=lambda r: None if np.all(np.isfinite(r[1])) else "non-finite gradient")
        scores = rec.call("pruning.path_mag_scores", "pruning", path_mag_scores, a, t, method="autodiff")
        lower = self._ref("lower", path_metric_lower, a, t, self.other)
        upper = rec.call(
            "metrics.upper_refined", "metrics", path_metric_upper, a, t, self.other, refined=True,
            check=lambda u: None if u >= lower else f"refined upper {u!r} < lower {lower!r}",
        )
        return out, scores, upper

    def round(self, rec: Recorder, k: int):
        # the library calls are short next to the CLI commands: three of
        # each per round give their medians enough samples
        for _ in range(3):
            out, scores, upper = self._lib_calls(rec)

        def cli_check(expect_stdout):
            def check(res):
                code, stdout, stderr = res
                if code != 0:
                    return f"exit code {code}: {stderr.strip()[:200]}"
                return expect_stdout(stdout)
            return check

        def eval_out(stdout):
            got = [float(v) for v in stdout.split()]
            if out is None or not np.array_equal(np.array(got), out):
                return "eval output differs from in-process forward"
            return None

        def pathnorm_out(stdout):
            want = self._ref("norm", path_norm_fast, self.arch, self.theta)
            return None if float(stdout) == want else f"pathnorm {stdout.strip()} != {want!r}"

        def prune_out(stdout):
            return self._check_prune(stdout, scores)

        def pathmetric_out(stdout):
            if upper is None or float(stdout) != upper:
                return f"pathmetric {stdout.strip()} != library value {upper!r}"
            return None

        inputs = [repr(float(v)) for v in self.x1]
        rec.call("cli.eval", "cli", _run_cli, ["eval", self.net, "--input", *inputs],
                 check=cli_check(eval_out))
        rec.call("cli.pathnorm", "cli", _run_cli, ["pathnorm", self.net],
                 check=cli_check(pathnorm_out))
        rec.call("cli.prune", "cli", _run_cli,
                 ["prune", self.net, "--amount", str(self.prune_amount), "--out", self.pruned_net],
                 check=cli_check(prune_out))
        rec.call("cli.pathmetric", "cli", _run_cli,
                 ["pathmetric", self.net, self.other_net, "--upper", "refined"],
                 check=cli_check(pathmetric_out))

    def _check_prune(self, stdout, scores):
        """The prune table's pruned set obeys the error guarantee; the first
        time, the written network is also read back and compared."""
        lines = stdout.splitlines()
        pruned = [i for i, row in enumerate(lines[2:]) if row.endswith("\tyes")]
        want = round(self.prune_amount * self.arch.n_edges)
        if len(pruned) != want:
            return f"{len(pruned)} coordinates pruned, expected {want}"
        if scores is None:
            return "no library scores to check the pruned set against"
        report = pruning_error_bound(self.arch, self.theta, pruned, self.x1, scores=scores)
        if not report.holds:
            return f"pruning error bound fails: {report.lhs!r} > {report.bound!r}"
        if not self._pruned_file_checked:
            self._pruned_file_checked = True
            _, written = load_network(self.pruned_net)
            keep = np.ones(self.arch.n_coords, dtype=bool)
            keep[pruned] = False
            if not np.array_equal(written.vec, self.theta.vec * keep):
                return "written pruned network differs from the pruned table"
        return None

    def instrument_targets(self):
        return [
            (cli, "load_network", "netfile.load", "netfile"),
            (cli, "save_network", "netfile.save", "netfile"),
            (netfile, "Architecture", "graph.build", "graph"),
            (cli, "forward", "graph.forward_b1", "graph"),
            (cli, "path_norm_fast", "metrics.path_norm_fast", "metrics"),
            (cli, "path_mag_scores", "pruning.path_mag_scores", "pruning"),
            (cli, "apply_prune", "pruning.apply_prune", "pruning"),
            (cli, "path_metric_upper", "metrics.upper_refined", "metrics"),
            (metrics, "normalize", "transforms.normalize", "transforms"),
            (metrics, "path_norm_fast", "metrics.path_norm_fast", "metrics"),
            (pruning, "grad_path_norm", "autodiff.grad_path_norm", "autodiff"),
        ]


# ---- paths --------------------------------------------------------------


class PathsWorkload(Workload):
    name = "paths"
    metrics = {
        "paths.lift_per_s": ("1/s", ["paths.lifting_large"]),
        "paths.oracle_s": ("s", ["metrics.oracle"]),
        "lipschitz.corpus_s": (
            "s", ["lipschitz.verify_main", "lipschitz.verify_split", "lipschitz.breakpoints"]),
    }

    def setup(self):
        self._refs = {}
        rng = np.random.default_rng([self.seed, 3])
        if self.smoke:
            small, large, over, n_corpus = (2, 3, 3, 2), (3, 4, 4, 2), (4, 50, 50, 50, 2), 3
        else:
            small, large, over, n_corpus = (4, 12, 12, 12, 2), (4, 20, 20, 20, 2), (4, 50, 50, 50, 2), 100
        self.mlps = {}
        for role, widths in (("small", small), ("large", large)):
            arch = mlp_architecture(widths)
            theta = random_params(arch, rng)
            self.mlps[role] = (arch, theta, same_sign_partner(theta, rng),
                               rng.normal(size=arch.d_in), mlp_path_count(widths))
        self.rates = {"paths.lift_per_s": self.mlps["large"][4]}
        arch = mlp_architecture(over)
        self.over_cap = (arch, random_params(arch, rng), mlp_path_count(over))
        # The corpus is one fixed draw: nets, partners and points.  Its cost
        # is mostly activation_breakpoints bisecting activation changes, and
        # the nets and points set how many there are and on how large a
        # net.  Drawn from the seed, the corpus cost twice as much on some
        # seeds as on others; with only the points drawn from it, a quarter
        # more.
        self.corpus = []
        for child in np.random.SeedSequence(CORPUS_ENTROPY).spawn(n_corpus):
            r = np.random.default_rng(child)
            arch = random_dag(r, max_layers=5, max_width=6)
            t1 = random_params(arch, r)
            t2 = same_sign_partner(t1, r)
            self.corpus.append((arch, t1, t2, r.normal(scale=1.5, size=arch.d_in)))

    def warmup(self):
        # every call in a round is a library call: one untimed round
        self.round(Recorder(NullTracer()), 0)

    def _norm(self, arch, theta):
        return self._ref(("norm", id(theta)), path_norm_fast, arch, theta)

    def round(self, rec: Recorder, k: int):
        for role in ("small", "large"):
            arch, theta, other, x, n_paths = self.mlps[role]

            def lift_check(lift, arch=arch, theta=theta, n_paths=n_paths):
                if len(lift) != n_paths:
                    return f"{len(lift)} paths, expected {n_paths}"
                if not _rel_close(np.abs(lift.values).sum(), self._norm(arch, theta)):
                    return "sum |lifting| differs from path_norm_fast"
                return None

            lift = rec.call(f"paths.lifting_{role}", "paths", path_lifting, arch, theta,
                            check=lift_check)
            if lift is not None:
                rec.count("paths.lifted", len(lift))

        arch, theta, other, x, n_paths = self.mlps["large"]
        rec.call("paths.activations", "paths", path_activations, arch, theta, x,
                 check=lambda a: None if a.shape == (n_paths,) and np.all((a == 0) | (a == 1))
                 else "activations are not a 0/1 vector over the paths")
        fx = self._ref("forward", forward, arch, theta, x)
        rec.call("paths.linearized", "paths", linearized_output, arch, theta, x,
                 check=lambda y: None if _rel_close(y, fx) else "linearized output differs from forward")
        lower = abs(self._norm(arch, theta) - self._norm(arch, other))
        rec.call("metrics.oracle", "metrics", path_metric_oracle, arch, theta, other,
                 check=lambda m: None if m >= lower * (1 - REL_TOL) else "oracle below the norm gap")
        auto = self._ref("scores", path_mag_scores, arch, theta, method="autodiff").values
        rec.call("pruning.bruteforce", "pruning", path_mag_scores, arch, theta, method="bruteforce",
                 check=lambda s: None if _rel_close(s.values, auto) else "brute-force scores differ from autodiff")

        arch, theta, want = self.over_cap

        def refused():
            # the count, not the exception: its traceback would keep this
            # round's frame, and the liftings in it, alive until a full GC
            try:
                path_lifting(arch, theta)
            except PathExplosion as exc:
                return exc.count
            return None

        count = rec.call("paths.cap", "paths", refused,
                         check=lambda c: None if c == want
                         else f"expected PathExplosion with count {want}, got {c!r}")
        if count is not None:
            rec.count("paths.cap_refusals")

        for arch, t1, t2, x in self.corpus:
            for variant in ("main", "split"):
                rep = rec.call(f"lipschitz.verify_{variant}", "lipschitz", verify_bound,
                               arch, t1, t2, x, variant=variant,
                               check=lambda r: None if r.holds else f"bound violated: {r.render()}")
                if rep is not None and variant == "main":
                    rec.count(f"lipschitz.route.{rep.metric_method}")
            res = rec.call("lipschitz.breakpoints", "lipschitz", activation_breakpoints,
                           arch, t1, t2, x, samples=32,
                           check=lambda r: None if r[1].rel_err <= REL_TOL
                           else f"telescoping rel_err {r[1].rel_err!r}")
            if res is not None:
                rec.count("lipschitz.breakpoints_found", len(res[0]))

    def instrument_targets(self):
        return [
            (metrics, "path_lifting", "paths.path_lifting", "paths"),
            (pruning, "path_lifting", "paths.path_lifting", "paths"),
            (lipschitz, "path_lifting", "paths.path_lifting", "paths"),
            (lipschitz, "path_activations", "paths.path_activations", "paths"),
            (lipschitz, "path_metric_oracle", "metrics.oracle_inner", "metrics"),
            (lipschitz, "forward", "graph.forward", "graph"),
            (metrics, "path_norm_fast", "metrics.path_norm_fast", "metrics"),
            (pruning, "grad_path_norm", "autodiff.grad_path_norm", "autodiff"),
        ]


def chain_probe() -> dict:
    """Known defect: enumerating a 3,000-edge ReLU chain (3,001 paths, far
    under the cap).  Kept out of the timed workloads, whose operations must
    all succeed; reported by the smoke run and the baseline record."""
    d = 3000
    names = ["in"] + [f"m{k:04d}" for k in range(1, d)] + ["out"]
    arch = Architecture(
        [("in", "input")] + [(n, "relu") for n in names[1:-1]] + [("out", "identity")],
        list(zip(names[:-1], names[1:])),
    )
    theta = ParamVector(arch, np.concatenate([np.ones(d), np.zeros(d)]))
    try:
        lift = path_lifting(arch, theta)
    except Exception as exc:  # the defect shows as an arbitrary exception
        return {"op": "paths.chain_3000", "attempted": 1, "failed": 1,
                "error": f"{type(exc).__name__}: {exc}"[:200]}
    ok = len(lift) == d + 1
    return {"op": "paths.chain_3000", "attempted": 1, "failed": 0 if ok else 1,
            "error": None if ok else f"{len(lift)} paths, expected {d + 1}"}


WORKLOADS = {w.name: w for w in (ExperimentWorkload, ConvGridWorkload, PathsWorkload)}

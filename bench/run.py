"""Benchmark of the pathlift package.

    python3 bench/run.py --workload {experiment,conv_grid,paths} --seed N \\
        --seconds S --trace {0,1}
    python3 bench/run.py --smoke

Run from the root of a checkout; the package is imported from its ``src``.
One process runs one workload.  It sets up the inputs from the seed at
least five times and for at least three seconds, timing each set-up, warms
up, then runs closed-loop rounds until ``--seconds`` have passed and at
least three rounds have run, each after a full garbage collection.  Through the rounds it
times a fixed reference computation (``yardstick.py``); ``round_ref`` is
the median over rounds of the round time in units of it.  Every
operation's output is checked.  Human-readable lines come first; the last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics (from spans around calls into each module) with
``--trace 1``.
A traced run also runs one untraced round first, to measure the tracing
overhead.  ``--smoke`` runs every workload on small inputs for one traced
round, with all output checks, and reports the known-defect probe.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# set up at least this many times and for at least this long, so that a
# cheap set-up still gets enough samples for a steady median
SETUP_REPEATS = 5
SETUP_MIN_S = 3.0
# measure at least this many rounds, so that the median round is not the
# mean of two: an experiment round (one run_experiment seed) takes 11 s
MIN_ROUNDS = 3

# Per-layer metrics, from the traced run.  Kinds:
#   span        median duration of one span of that name
#   self        median self time (duration minus child spans) of one span
#   round_sum   total duration of those spans per round, median over rounds
#   round_count number of those spans per round, median over rounds
#   counter     workload counter per round, median over rounds
# Values are 0 on workloads that do not make the call.
SPAN_METRICS = {
    "graph.build_s": ("s", "span", ["graph.build"]),
    "netfile.load_s": ("s", "span", ["netfile.load"]),
    "netfile.save_s": ("s", "span", ["netfile.save"]),
    "cli.eval.self_s": ("s", "self", ["cli.eval"]),
    "cli.pathnorm.self_s": ("s", "self", ["cli.pathnorm"]),
    "cli.prune.self_s": ("s", "self", ["cli.prune"]),
    "cli.pathmetric.self_s": ("s", "self", ["cli.pathmetric"]),
    "graph.forward_b1_ms": ("ms", "span", ["graph.forward_b1"]),
    "autodiff.grad_b256_mlp_ms": ("ms", "span", ["autodiff.grad_b256_mlp"]),
    "autodiff.grad_b256_conv_ms": ("ms", "span", ["autodiff.grad_b256_conv"]),
    "autodiff.grad_path_norm_ms": ("ms", "span", ["autodiff.grad_path_norm"]),
    "pruning.path_mag_scores_ms": ("ms", "span", ["pruning.path_mag_scores"]),
    "pruning.apply_prune_ms": ("ms", "span", ["pruning.apply_prune"]),
    "pruning.bruteforce_ms": ("ms", "span", ["pruning.bruteforce"]),
    "metrics.path_norm_fast_ms": ("ms", "span", ["metrics.path_norm_fast"]),
    "transforms.normalize_ms": ("ms", "span", ["transforms.normalize"]),
    "metrics.upper_refined_ms": ("ms", "span", ["metrics.upper_refined"]),
    "transforms.rescale_ms": ("ms", "span", ["transforms.rescale"]),
    "paths.lifting_17594_ms": ("ms", "span", ["paths.lifting_small"]),
    "paths.lifting_80842_ms": ("ms", "span", ["paths.lifting_large"]),
    "paths.activations_ms": ("ms", "span", ["paths.activations"]),
    "paths.linearized_ms": ("ms", "span", ["paths.linearized"]),
    "metrics.oracle_ms": ("ms", "span", ["metrics.oracle"]),
    "lipschitz.verify_main_ms": ("ms", "span", ["lipschitz.verify_main"]),
    "lipschitz.verify_split_ms": ("ms", "span", ["lipschitz.verify_split"]),
    "lipschitz.breakpoints_ms": ("ms", "span", ["lipschitz.breakpoints"]),
    "experiment.train_dense_s": ("s", "span", ["experiment.train_dense"]),
    "experiment.finetune_s": ("s", "span", ["experiment.finetune"]),
    "experiment.score_s": ("s", "round_sum", ["experiment.score_pathmag", "experiment.score_magnitude"]),
    "experiment.accuracy_ms": ("ms", "span", ["experiment.accuracy"]),
    "experiment.grad_steps": ("count", "round_count", ["autodiff.grad_b256_mlp"]),
    "paths.lifted": ("count", "counter", ["paths.lifted"]),
    "paths.cap_refusals": ("count", "counter", ["paths.cap_refusals"]),
    "lipschitz.breakpoints_found": ("count", "counter", ["lipschitz.breakpoints_found"]),
    "lipschitz.route.oracle": ("count", "counter", ["lipschitz.route.oracle"]),
    "lipschitz.route.dominated": ("count", "counter", ["lipschitz.route.dominated"]),
    "lipschitz.route.lower": ("count", "counter", ["lipschitz.route.lower"]),
}
UNIT_SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}
E2E_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "round_ref": "ref"}

# Which end-to-end metric each per-layer metric should move, on which
# workload.  Kept with the code that defines both, and written to the
# baseline record.
LAYER_MAP = {
    "graph.build_s": "setup_s and cli.* on conv_grid; about 0 on experiment",
    "netfile.load_s": "cli.* on conv_grid",
    "netfile.save_s": "cli.prune_s on conv_grid",
    "cli.*.self_s": "the matching cli.* on conv_grid (argument parsing and printing)",
    "graph.forward_b1_ms": "conv.eval_ms, and a small share of cli.eval_s, on conv_grid",
    "autodiff.grad_b256_mlp_ms": "experiment.seed_s on experiment",
    "autodiff.grad_b256_conv_ms": "conv.grad_b256_ms on conv_grid",
    "autodiff.grad_path_norm_ms": "conv.scores_ms and cli.prune_s on conv_grid",
    "pruning.*_ms": "conv.scores_ms and cli.prune_s on conv_grid; lipschitz.corpus_s on paths",
    "metrics.path_norm_fast_ms, transforms.normalize_ms, metrics.upper_refined_ms":
        "conv.upper_refined_ms and cli.pathmetric_s on conv_grid",
    "transforms.rescale_ms": "experiment.seed_s on experiment (a small share)",
    "paths.*_ms, paths.us_per_path, metrics.oracle_ms": "paths.lift_per_s and paths.oracle_s on paths",
    "lipschitz.*_ms": "lipschitz.corpus_s on paths",
    "experiment.*": "experiment.seed_s on experiment",
    "<layer>.calls, <layer>.busy_s, <layer>.self_s": "round_ref of the workload that calls the layer",
}


def _prepare_environment() -> dict:
    """Pin BLAS threads (unless set) and clear the path-cap override,
    before numpy is imported."""
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    cap_was_set = "PATHLIFT_PATH_CAP" in os.environ
    os.environ.pop("PATHLIFT_PATH_CAP", None)
    return {"path_cap_env_was_set": cap_was_set, "path_cap_env_unset_for_run": True}


def _environment(extra: dict) -> dict:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps["blas"].get(k) for k in ("name", "version")}
    except (TypeError, KeyError):  # older numpy prints instead of returning
        blas = "unavailable"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "machine": platform.machine(),
        **extra,
    }


def _import_probe():
    """Start the package in a fresh interpreter, as every user run does."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", "import pathlift"], env=env, check=True,
                   stdout=subprocess.DEVNULL)


def _summary(samples, unit: str) -> dict:
    """Median, the highest percentile with at least ten samples beyond it
    (on the slow side, which for a rate is the low one), and the sample
    count.  Below twenty samples that percentile would not lie in the slow
    half, so none is given."""
    n = len(samples)
    out = {"median": statistics.median(samples) if n else 0.0, "unit": unit, "n": n}
    if n >= 20:
        q = math.floor(100.0 * (1.0 - 10.0 / n))
        q = 100 - q if unit == "1/s" else q
        out[f"p{q}"] = statistics.quantiles(samples, n=100, method="inclusive")[q - 1]
    return out


def run_workload(name: str, seed: int, seconds: float, traced: bool, workdir: Path,
                 smoke: bool = False) -> dict:
    import workloads
    from spans import LAYERS, NullTracer, Tracer, instrument
    from yardstick import Yardstick

    wl = workloads.WORKLOADS[name](seed, workdir, smoke=smoke)
    setups = []
    while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_MIN_S:
        t0 = time.perf_counter()
        _import_probe()
        wl.setup()
        setups.append(time.perf_counter() - t0)
    wl.warmup()

    # untraced rounds run with the yardstick; a traced run has one, first
    yardstick = Yardstick()
    untraced_round = None
    if traced:
        plain = workloads.Recorder(NullTracer(), yardstick.clock)
        with yardstick:
            wl.round(plain, 0)
            plain.end_round()
            yardstick.end_round()
        untraced_round = sum(plain.rounds[0].values())
    tracer = Tracer() if traced else NullTracer()
    rec = workloads.Recorder(tracer) if traced else workloads.Recorder(tracer, yardstick.clock)
    targets = wl.instrument_targets() if traced else []
    deadline = time.perf_counter() + seconds
    min_rounds = 1 if smoke else MIN_ROUNDS
    with instrument(tracer, targets) as missing, (contextlib.nullcontext() if traced else yardstick):
        k = 1 if traced else 0
        while True:
            gc.collect()  # every round starts from the same heap
            tracer.round = k
            rec.begin_round()
            wl.round(rec, k)
            rec.end_round()
            if not traced:
                yardstick.end_round()
            k += 1
            if time.perf_counter() >= deadline and len(rec.rounds) >= min_rounds:
                break
    if traced:
        rec.attempted += plain.attempted
        rec.failed += plain.failed
        rec.failures += plain.failures

    samples = wl.metric_samples(rec)
    named = {}
    for m, vals in samples.items():
        unit = wl.metrics[m][0]
        if m in wl.rates:
            named[m] = _summary([wl.rates[m] / v for v in vals], unit)
        else:
            named[m] = _summary([v * UNIT_SCALE[unit] for v in vals], unit)
    named["setup_s"] = _summary(setups, "s")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    named["peak_rss_mb"] = {"median": peak_rss_mb, "unit": "MB", "n": 1}
    round_totals = [sum(r.values()) for r in (plain if traced else rec).rounds]
    named["round_s"] = _summary(round_totals, "s")
    named["reference_ms"] = _summary([r * 1e3 for r in yardstick.samples], "ms")

    result = {
        "workload": name,
        "seed": seed,
        "rounds": len(rec.rounds),
        "round_totals": round_totals,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "failures": rec.failures,
        "named": named,
        "end_to_end": {
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb,
            "round_ref": statistics.median(yardstick.in_units(round_totals)),
        },
    }
    if traced:
        rounds = list(range(1, k))
        result["per_layer"] = _per_layer(tracer, rec, rounds, wl, LAYERS, untraced_round)
        result["missing_instrumentation"] = missing
    return result


def _per_layer(tracer, rec, rounds, wl, layers, untraced_round) -> dict:
    out = {}
    for metric, (unit, kind, names) in SPAN_METRICS.items():
        scale = UNIT_SCALE.get(unit, 1.0)
        if kind in ("span", "self"):
            vals = [v for n in names for v in tracer.durations(n, self_time=kind == "self")]
            value = statistics.median(vals) * scale if vals else 0.0
        elif kind == "round_sum":
            value = statistics.median(tracer.per_round(names, rounds, "duration")) * scale
        elif kind == "round_count":
            value = statistics.median(tracer.per_round(names, rounds, "count"))
        else:
            value = statistics.median([c.get(names[0], 0) for c in rec.counts])
        out[metric] = (value, unit)
    lift = tracer.durations("paths.lifting_large")
    n_large = wl.rates.get("paths.lift_per_s")
    out["paths.us_per_path"] = (statistics.median(lift) / n_large * 1e6 if lift else 0.0, "us")
    scores = rec.calls["pruning.path_mag_scores"]
    evals = rec.calls["graph.forward_b1"]
    ratio = statistics.median(scores) / (2 * statistics.median(evals)) if scores and evals else 0.0
    out["conv.score_ratio"] = (ratio, "ratio")
    traced_round = statistics.median([sum(r.values()) for r in rec.rounds])
    out["trace_overhead_s"] = (traced_round - untraced_round, "s")
    totals = tracer.layer_totals()
    for layer in layers:
        out[f"{layer}.calls"] = (totals[layer]["calls"] / len(rounds), "count")
        out[f"{layer}.busy_s"] = (totals[layer]["busy_s"] / len(rounds), "s")
        out[f"{layer}.self_s"] = (totals[layer]["self_s"] / len(rounds), "s")
    return out


def _result_metrics(res: dict, traced: bool) -> dict:
    if traced:
        return {k: {"value": v, "unit": u} for k, (v, u) in res["per_layer"].items()}
    return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in res["end_to_end"].items()}


def _print_human(result: dict):
    print(f"workload {result['workload']}  seed {result['seed']}  rounds {result['rounds']}  "
          f"attempted {result['attempted']}  failed {result['failed']}")
    for name, s in result["named"].items():
        extra = "  ".join(f"{k} {v:.6g}" for k, v in s.items() if k.startswith("p"))
        print(f"  {name:<26} median {s['median']:.6g} {s['unit']}  n {s['n']}  {extra}".rstrip())
    for f in result["failures"]:
        print(f"  FAILED {f}")
    for m in result.get("missing_instrumentation", []):
        print(f"  no span: {m} does not exist")


def _smoke(workdir: Path, env_extra: dict) -> int:
    import workloads

    summary = {}
    ok = True
    for name in workloads.WORKLOADS:
        res = run_workload(name, 0, 0.0, True, workdir, smoke=True)
        _print_human(res)
        ok &= res["failed"] == 0 and not res["missing_instrumentation"]
        summary[name] = {"attempted": res["attempted"], "failed": res["failed"],
                         "failures": res["failures"],
                         "end_to_end": sorted(_result_metrics(res, False)),
                         "per_layer": sorted(_result_metrics(res, True))}
    probe = workloads.chain_probe()
    print(f"known-defect probe {probe['op']}: failed {probe['failed']}  {probe['error'] or ''}")
    print(json.dumps({"correct": ok, "attempted": sum(s["attempted"] for s in summary.values()),
                      "failed": sum(s["failed"] for s in summary.values()),
                      "workloads": summary, "probe": probe,
                      "environment": _environment(env_extra)}))
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true", help="every workload, small inputs, one round")
    args = p.parse_args(argv)
    if not (SRC / "pathlift" / "__init__.py").is_file():
        print(f"error: no pathlift sources under {SRC}", file=sys.stderr)
        return 2
    env_extra = _prepare_environment()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import pathlift

    if Path(pathlift.__file__).resolve().parent != (SRC / "pathlift").resolve():
        print(f"error: imported pathlift from {pathlift.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    if not args.smoke and args.workload not in workloads.WORKLOADS:
        p.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    workdir = ROOT / ".bench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.smoke:
            return _smoke(workdir, env_extra)
        res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    _print_human(res)
    res["environment"] = _environment(env_extra)
    print("detail " + json.dumps(res))
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": _result_metrics(res, bool(args.trace))}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

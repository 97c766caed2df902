"""Acceptance suite: one test per shipped guarantee, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Each test recomputes its claim from scratch on seeded corpora; the
frozen constants (the diamond network's worked values, the breakpoint at
t = 1/3, the 1-2-1 bound sweep) were derived by hand and cross-checked
against independent oracles in the module tests.
"""

import time

import numpy as np

from pathlift.builders import (
    conv_grid_architecture,
    mlp_architecture,
    mlp_matrices,
    mlp_params,
    random_dag,
    random_params,
    same_sign_partner,
)
from pathlift.experiment import ExperimentConfig, run_experiment
from pathlift.graph import Architecture, ParamVector, forward
from pathlift.lipschitz import (
    activation_breakpoints,
    bound_rhs,
    sign_counterexample,
    equality_witness,
    trajectory_point,
    verify_bound,
)
from pathlift.metrics import (
    mlp_bounds,
    path_metric_exact_dominated,
    path_metric_lower,
    path_metric_oracle,
    path_metric_upper,
    path_norm_fast,
)
from pathlift.paths import linearized_output, max_path_length, path_lifting
from pathlift.pruning import path_mag_scores, pruning_error_bound
from pathlift.autodiff import grad_path_norm
from pathlift.transforms import random_rescaling, rescale

from conftest import diamond_arch, diamond_theta, random_cases, replaced

RTOL = 1e-9
ATOL = 1e-12


def _report(num: int, ok: bool, text: str):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num:02d} failed: {text}"


def _close(a, b):
    return bool(np.allclose(a, b, rtol=RTOL, atol=ATOL))


def _leq(lhs, rhs):
    return lhs <= rhs * (1.0 + RTOL) + ATOL


def _diamond_pair():
    arch = diamond_arch()
    theta = diamond_theta(arch)
    return arch, theta, replaced(theta, {2: 0.0})


def test_criterion_01():
    start = time.perf_counter()
    ok = True
    for arch, theta, _ in random_cases(100, seed=101, max_layers=5, max_width=6):
        fast = path_norm_fast(arch, theta)
        slow = float(np.abs(path_lifting(arch, theta).values).sum())
        ok = ok and _close(fast, slow)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    _report(1, ok, f"one-pass path norm equals enumerated sum on 100 nets ({elapsed:.2f}s)")


def test_criterion_02():
    ok = True
    for arch, theta, rng in random_cases(100, seed=101, max_layers=5, max_width=6):
        for _ in range(5):
            x = rng.normal(scale=1.5, size=arch.d_in)
            ok = ok and _close(linearized_output(arch, theta, x), forward(arch, theta, x))
    _report(2, ok, "lifting x activations x incidence reproduces the forward pass, 500 evals")


def test_criterion_03():
    ok = True
    n_triples = 0
    for arch, theta, rng in random_cases(250, seed=303):
        partner = same_sign_partner(theta, rng)
        x = rng.normal(scale=1.5, size=arch.d_in)
        base_lift = path_lifting(arch, theta).values
        base_norm = path_norm_fast(arch, theta)
        base_metric = path_metric_oracle(arch, theta, partner)
        base_scores = path_mag_scores(arch, theta).values
        base_rhs = bound_rhs(arch, theta, partner, x)
        base_fwd = forward(arch, theta, x)
        for _ in range(4):
            factors = random_rescaling(arch, rng)
            t_r = rescale(arch, theta, factors)
            p_r = rescale(arch, partner, factors)
            n_triples += 1
            ok = ok and _close(path_lifting(arch, t_r).values, base_lift)
            ok = ok and _close(path_norm_fast(arch, t_r), base_norm)
            ok = ok and _close(path_metric_oracle(arch, t_r, p_r), base_metric)
            ok = ok and _close(path_mag_scores(arch, t_r).values, base_scores)
            ok = ok and _close(bound_rhs(arch, t_r, p_r, x), base_rhs)
            ok = ok and _close(forward(arch, t_r, x), base_fwd)
    ok = ok and n_triples == 1000
    _report(3, ok, "lifting, norm, metric, scores, bound rhs, forward invariant on 1000 rescalings")


def test_criterion_04():
    ok = True
    for arch, theta, rng in random_cases(1000, seed=404, zero_frac=0.05):
        partner = same_sign_partner(theta, rng, zero_frac=0.05)
        x = rng.normal(scale=1.5, size=arch.d_in)
        ok = ok and verify_bound(arch, theta, partner, x, variant="main").holds
        ok = ok and verify_bound(arch, theta, partner, x, variant="split").holds
    ce = sign_counterexample()
    ok = ok and ce.lhs == 1.0 and ce.path_metric == 0.0 and ce.rhs_ignoring_signs == 0.0
    _report(4, ok, "output-gap bound holds on 1000 same-sign pairs; sign counterexample exact")


def test_criterion_05():
    rng = np.random.default_rng(505)
    ok = True
    for _ in range(50):
        d = int(rng.integers(1, 5))
        a, b, x0 = rng.uniform(0.05, 4.0, size=3)
        w = equality_witness(d, a, b, x0)
        ok = ok and abs(w.report.slack) <= 1e-12 * w.report.rhs + 1e-15
    arch, theta, pruned = _diamond_pair()
    tight = verify_bound(arch, theta, pruned, [2.0])
    ok = ok and tight.lhs == 6.0 and tight.rhs == 6.0 and tight.slack == 0.0
    _report(5, ok, "split bound is an equality on 50 chain witnesses; diamond case exactly tight")


def test_criterion_06():
    ok = True
    for arch, theta, rng in random_cases(200, seed=606):
        k = int(rng.integers(1, arch.n_coords + 1))
        keep = np.ones(arch.n_coords)
        keep[rng.choice(arch.n_coords, size=k, replace=False)] = 0.0
        masked = ParamVector(arch, theta.vec * keep)
        oracle = path_metric_oracle(arch, theta, masked)
        exact = path_metric_exact_dominated(arch, theta, masked)
        lower = path_metric_lower(arch, theta, masked)
        ok = ok and _close(exact, oracle) and _close(lower, oracle)
    _report(6, ok, "norm-difference metric is exact on 200 dominated (pruning) pairs")


def test_criterion_07():
    cases = [c for c in random_cases(400, seed=707) if max_path_length(c[0]) >= 2]
    ok = len(cases) >= 200
    for arch, theta, rng in cases[:200]:
        other = random_params(arch, rng)
        oracle = path_metric_oracle(arch, theta, other)
        ok = ok and _leq(oracle, path_metric_upper(arch, theta, other, refined=True))
        ok = ok and _leq(oracle, path_metric_upper(arch, theta, other, refined=False))
    arch, theta, pruned = _diamond_pair()
    ok = ok and path_metric_upper(arch, theta, pruned, refined=False) == 24.0
    ok = ok and path_metric_oracle(arch, theta, pruned) == 3.0
    _report(7, ok, "refined and coarse upper bounds dominate the oracle metric on 200 pairs")


def test_criterion_08():
    ok = True
    eps = 1e-6
    worst = 0.0
    for arch, theta, rng in random_cases(100, seed=808):
        ad = path_mag_scores(arch, theta, method="autodiff").values
        ok = ok and _close(path_mag_scores(arch, theta, method="pathnorm_diff").values, ad)
        ok = ok and _close(path_mag_scores(arch, theta, method="bruteforce").values, ad)
        grad = grad_path_norm(arch, theta)
        base = theta.vec
        for i in range(arch.n_coords):
            if abs(base[i]) <= 1e-3:
                continue
            step = np.zeros_like(base)
            step[i] = eps
            fd = (
                path_norm_fast(arch, ParamVector(arch, base + step))
                - path_norm_fast(arch, ParamVector(arch, base - step))
            ) / (2.0 * eps)
            worst = max(worst, abs(grad[i] - fd) / max(abs(grad[i]), abs(fd), 1e-12))
    ok = ok and worst < 1e-5
    _report(8, ok, f"score routes agree on 100 nets; gradient vs differences worst rel {worst:.1e}")


def test_criterion_09():
    ok = True
    n_trials = 0
    for arch, theta, rng in random_cases(250, seed=909):
        for _ in range(4):
            k = int(rng.integers(1, arch.n_coords + 1))
            idx = rng.choice(arch.n_coords, size=k, replace=False)
            x = rng.normal(scale=2.0, size=arch.d_in)
            n_trials += 1
            ok = ok and pruning_error_bound(arch, theta, idx, x).holds
    ok = ok and n_trials == 1000
    arch, theta, _ = _diamond_pair()
    tight = pruning_error_bound(arch, theta, [2], [2.0])
    ok = ok and tight.bound == 6.0 and tight.lhs == 6.0
    _report(9, ok, "pruning error bound holds on 1000 trials; diamond single-edge case tight")


def _relu_mlp(layers, x):
    v = np.asarray(x, dtype=np.float64)
    for i, m in enumerate(layers):
        v = m @ v
        if i < len(layers) - 1:
            v = np.maximum(v, 0.0)
    return v


def test_criterion_10():
    arch = mlp_architecture((1, 2, 1))
    theta = mlp_params(arch, [np.array([[1.0], [-2.0]]), np.array([[3.0, 1.0]])])
    pruned = mlp_params(arch, [np.array([[1.0], [-2.0]]), np.array([[0.0, 1.0]])])
    ratios = []
    metrics = []
    for lam in (1.0, 128.0, 4096.0):
        t_r = rescale(arch, theta, {"L1n000": lam})
        b = mlp_bounds(mlp_matrices(arch, t_r), mlp_matrices(arch, pruned), [1.0])
        metrics.append(path_metric_oracle(arch, t_r, pruned))
        ratios.append(b["path_metric_ub"] / metrics[-1])
        if lam == 1.0:
            ok_base = b == {
                "path_metric_ub": 96.0,
                "legacy": 288.0,
                "recovered_same_sign": 96.0,
                "recovered_any_sign": 192.0,
            }
    ok = ok_base and ratios[0] < ratios[1] < ratios[2]
    ok = ok and all(_close(m, metrics[0]) for m in metrics)

    viol = 0
    for child in np.random.SeedSequence(20260815).spawn(500):
        rng = np.random.default_rng(child)
        depth = int(rng.integers(1, 4))
        widths = [int(rng.integers(1, 5)) for _ in range(depth + 1)]
        la = [rng.normal(scale=1.0, size=(widths[i + 1], widths[i])) for i in range(depth)]
        if rng.random() < 0.5:
            lb = [m * rng.uniform(0.25, 1.75, size=m.shape) for m in la]
        else:
            lb = [rng.normal(size=m.shape) for m in la]
        x = rng.normal(scale=1.5, size=widths[0])
        lhs = float(np.abs(_relu_mlp(la, x) - _relu_mlp(lb, x)).sum())
        b = mlp_bounds(la, lb, x)
        viol += not _leq(lhs, b["recovered_same_sign"])
        viol += not _leq(lhs, b["recovered_any_sign"])
    ok = ok and viol == 0
    _report(
        10,
        ok,
        "layer-matrix bound blows up across the orbit while the metric is constant; "
        "recovered output bounds hold on 500 MLP pairs",
    )


def test_criterion_11():
    ts = np.linspace(0.0, 1.0, 11)
    ok = True
    for arch, theta, rng in random_cases(100, seed=1111):
        partner = same_sign_partner(theta, rng)
        values = np.stack(
            [path_lifting(arch, trajectory_point(theta, partner, t)).values for t in ts]
        )
        diffs = np.diff(values, axis=0)
        tol = 1e-12 * max(1.0, float(np.abs(values).max()))
        for col in range(values.shape[1]):
            d = diffs[:, col]
            ok = ok and (d.min() >= -tol or d.max() <= tol)
        x = rng.normal(size=arch.d_in)
        _, tele = activation_breakpoints(arch, theta, partner, x, samples=32)
        ok = ok and tele.rel_err <= 1e-9
    arch = Architecture(
        [("in1", "input"), ("in2", "input"), ("h", "relu"), ("out", "identity")],
        [("in1", "h"), ("in2", "h"), ("h", "out")],
    )
    t1 = ParamVector(arch, [1.0, 2.0, 1.0, 0.0, 0.0])
    t2 = ParamVector(arch, [1.0, 0.25, 1.0, 0.0, 0.0])
    found, _ = activation_breakpoints(arch, t1, t2, [1.0, -1.0])
    ok = ok and len(found) == 1 and abs(found[0].t - 1.0 / 3.0) <= 1e-8
    _report(11, ok, "lifting monotone along 100 trajectories, distances telescope, breakpoint at 1/3")


def test_criterion_12():
    pathmag_zero = 0
    magnitude_nonzero = 0
    worst_s = 0.0
    for seed in range(20):
        t0 = time.perf_counter()
        report = run_experiment(ExperimentConfig(seed=seed))
        worst_s = max(worst_s, time.perf_counter() - t0)
        pathmag_zero += report.mask_hamming["pathmag"] == 0
        magnitude_nonzero += report.mask_hamming["magnitude"] > 0
    ok = pathmag_zero == 20 and magnitude_nonzero >= 19 and worst_s < 60.0
    _report(
        12,
        ok,
        f"masks under rescaling: path-magnitude identical 20/20, magnitude differs "
        f"{magnitude_nonzero}/20, worst {worst_s:.1f}s/seed",
    )


def test_criterion_13():
    arch = conv_grid_architecture()
    ok = 90_000 < arch.n_edges < 120_000
    rng = np.random.default_rng(13)
    theta = random_params(arch, rng)
    x = rng.normal(size=arch.d_in)
    forward(arch, theta, x)
    path_mag_scores(arch, theta, method="autodiff")

    def best_of(f, n=3):
        best = np.inf
        for _ in range(n):
            t0 = time.perf_counter()
            f()
            best = min(best, time.perf_counter() - t0)
        return best

    t_scores = best_of(lambda: path_mag_scores(arch, theta, method="autodiff"))
    t_two = best_of(lambda: (forward(arch, theta, x), forward(arch, theta, x)))
    ok = ok and t_scores <= 10.0 * t_two
    _report(
        13,
        ok,
        f"scores on a {arch.n_edges}-edge net take {t_scores / t_two:.1f}x two forward passes "
        f"(budget 10x)",
    )

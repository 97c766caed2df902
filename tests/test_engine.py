"""The compiled level schedule against the per-neuron reference loop, with
pools taking the k-th largest contribution or summing, and its
per-architecture cache."""

import numpy as np
import pytest

from pathlift import engine
from pathlift.builders import (
    conv_grid_architecture,
    mlp_architecture,
    random_dag,
    random_params,
)
from pathlift.autodiff import grad_path_norm, grad_scalar
from pathlift.engine import gradient, run
from pathlift.errors import DimensionMismatch, NonFiniteValue
from pathlift.graph import IDENTITY, KPOOL, RELU, ParamVector, forward, neuron_values
from pathlift.metrics import path_norm_fast
from pathlift.paths import enumerate_paths, max_path_length, path_lifting
from pathlift.pruning import path_mag_scores
from pathlift.transforms import random_rescaling, rescale

from conftest import pool_arch, pool_theta
from reference import (
    neuron_lists, reference_gradient, reference_unit_activations, reference_values, residual_conv_architecture,
)

RTOL = 1e-12


def _depths(arch):
    ant = neuron_lists(arch)[0]
    depth = np.zeros(arch.n_neurons, dtype=np.int64)
    for j in arch.non_input_pos:
        depth[j] = 1 + depth[ant[j]].max()
    return depth


def _integer_params(arch, rng):
    """Small-integer parameters: every value is an exact integer, so pool
    contributions tie exactly and often."""
    v = rng.choice([-2.0, -1.0, 1.0, 2.0], size=arch.n_coords)
    v[arch.n_edges :] = rng.choice([-1.0, 0.0, 1.0], size=arch.n_coords - arch.n_edges)
    return ParamVector(arch, v)


def _dag_corpus():
    cases = []
    for child in np.random.SeedSequence(2024).spawn(40):
        rng = np.random.default_rng(child)
        arch = random_dag(rng, max_layers=5, max_width=6, p_skip=0.5, p_identity=0.3, p_kpool=0.4)
        exact = len(cases) % 2 == 0
        theta = _integer_params(arch, rng) if exact else random_params(arch, rng)
        cases.append((arch, theta, exact, rng))
    return cases


def _inputs(arch, exact, rng, batch):
    if exact:
        return rng.integers(-2, 3, size=(batch, arch.d_in)).astype(np.float64)
    return rng.normal(size=(batch, arch.d_in))


def _assert_close(got, want):
    scale = float(np.max(np.abs(want), initial=0.0))
    np.testing.assert_allclose(got, want, rtol=RTOL, atol=RTOL * scale)


def _compare(arch, theta, x, rng, sum_pools=False):
    """Engine and reference agree on values, winners and gradients; returns
    the number of pool decisions that were exact ties."""
    vals, win = run(arch, theta.vec, x, sum_pools=sum_pools)
    ref_vals, ref_win = reference_values(arch, theta, x, sum_pools=sum_pools)
    _assert_close(vals[:-1], ref_vals)
    assert not np.any(vals[-1]), "the padding row must stay zero"
    assert win is None or not sum_pools
    for j, slots in (ref_win or {}).items():
        np.testing.assert_array_equal(win[j], slots)
    out_adj = rng.normal(size=(arch.d_out, x.shape[0]))
    _assert_close(
        gradient(arch, theta.vec, vals, win, out_adj),
        reference_gradient(arch, theta, ref_vals, ref_win, out_adj),
    )
    ties = 0
    ant, in_coords, _ = neuron_lists(arch)
    for j in ref_win or {}:
        contrib = theta.vec[in_coords[j]][:, None] * ref_vals[ant[j]]
        ties += int(np.sum(np.sum(contrib == ref_vals[j][None, :], axis=0) > 1))
    return ties


@pytest.mark.parametrize("batch", [1, 7])
def test_engine_matches_reference_on_random_dags(batch):
    ties = 0
    seen = {"kpool_k_above_1": False, "mixed_level": False, "skip_edge": False}
    for arch, theta, exact, rng in _dag_corpus():
        ties += _compare(arch, theta, _inputs(arch, exact, rng, batch), rng)
        depth = _depths(arch)
        seen["kpool_k_above_1"] |= bool(np.any(arch.pool_k > 1))
        for d in np.unique(depth):
            kinds = set(arch.kinds[depth == d].tolist())
            seen["mixed_level"] |= {IDENTITY, RELU, KPOOL} <= kinds
        ant = neuron_lists(arch)[0]
        for j in arch.non_input_pos:
            seen["skip_edge"] |= bool(np.any(depth[ant[j]] < depth[j] - 1))
    assert all(seen.values()), seen
    assert ties > 0, "the corpus must exercise exact pool ties"


@pytest.mark.parametrize("batch", [1, 7])
def test_engine_matches_reference_on_mlp(batch):
    rng = np.random.default_rng(99)
    arch = mlp_architecture((3, 8, 8, 2))
    _compare(arch, random_params(arch, rng), rng.normal(size=(batch, arch.d_in)), rng)


@pytest.mark.parametrize("batch", [1, 7])
def test_engine_matches_reference_on_conv_grid(batch):
    rng = np.random.default_rng(6)
    arch = conv_grid_architecture(side=6, channels=(2, 3), d_out=3)
    _compare(arch, random_params(arch, rng), rng.normal(size=(batch, arch.d_in)), rng)


@pytest.mark.parametrize("batch", [1, 7])
def test_sum_pools_matches_reference_on_random_dags(batch):
    pooled = 0
    for arch, theta, exact, rng in _dag_corpus():
        _compare(arch, theta, _inputs(arch, exact, rng, batch), rng, sum_pools=True)
        pooled += bool(np.any(arch.kinds == KPOOL))
    assert pooled >= 20
    rng = np.random.default_rng(7)
    arch = conv_grid_architecture(side=6, channels=(2, 3), d_out=3)
    _compare(arch, random_params(arch, rng), rng.normal(size=(batch, arch.d_in)), rng, sum_pools=True)


def test_one_schedule_serves_forward_path_norm_and_its_gradient(monkeypatch):
    built = []
    compile_ = engine.Schedule
    monkeypatch.setattr(engine, "Schedule", lambda arch: built.append(arch) or compile_(arch))
    for arch, theta, _, rng in _dag_corpus()[:10]:
        built.clear()
        forward(arch, theta, rng.normal(size=arch.d_in))
        path_norm_fast(arch, theta)
        grad_path_norm(arch, theta)
        assert max_path_length(arch) == max(len(p) - 1 for p in enumerate_paths(arch))
        assert built == [arch]


def test_public_wrappers_match_reference():
    for arch, theta, exact, rng in _dag_corpus()[:10]:
        x = _inputs(arch, exact, rng, 1)[0]
        ref_vals, ref_win = reference_values(arch, theta, x)
        _assert_close(neuron_values(arch, theta, x), ref_vals[:, 0])
        _, win = run(arch, theta.vec, x)
        assert {int(j): int(win[j, 0]) for j in np.flatnonzero(arch.kinds == KPOOL)} == {
            j: int(slots[0]) for j, slots in ref_win.items()
        }


def test_schedule_cached_before_path_norm_is_not_inherited_by_surrogate():
    # forward compiles and caches the schedule first; the path norm's pass
    # on that same schedule must still pool by sum
    arch = pool_arch()
    theta = pool_theta(arch)
    forward(arch, theta, [1.0, 1.0])
    assert path_norm_fast(arch, theta) == pytest.approx(np.sum(np.abs(path_lifting(arch, theta).values)), rel=RTOL)
    for arch, theta, _, rng in _dag_corpus()[:10]:
        forward(arch, theta, rng.normal(size=arch.d_in))
        want = np.sum(np.abs(path_lifting(arch, theta).values))
        assert path_norm_fast(arch, theta) == pytest.approx(want, rel=1e-9)


def _stacks():
    """Networks that run every kernel (shared rows, gathered rows, pools
    with k >= 1 and padded slots), each with a stack of parameter vectors:
    integers that tie in pools, random ones, random ones with zeroed
    coordinates, and all zeros."""
    nets = [(arch, exact, rng) for arch, _, exact, rng in _dag_corpus()[:20]]
    rng = np.random.default_rng(31)
    nets.append((mlp_architecture((3, 8, 8, 2)), False, rng))
    nets.append((conv_grid_architecture(side=6, channels=(2, 3), d_out=3), False, rng))
    for arch, exact, rng in nets:
        stack = np.stack([
            _integer_params(arch, rng).vec,
            random_params(arch, rng).vec,
            random_params(arch, rng, zero_frac=0.3).vec,
            np.zeros(arch.n_coords),
        ])
        yield arch, stack, exact, rng


@pytest.mark.parametrize("batch", [1, 256])
def test_stacked_items_are_their_single_passes_bit_for_bit(batch):
    for arch, stack, exact, rng in _stacks():
        x = _inputs(arch, exact, rng, batch)
        for sum_pools in (False, True):
            vals, win = run(arch, stack, x, sum_pools=sum_pools)
            assert vals.shape == (len(stack), arch.n_neurons + 1, batch)
            for i, vec in enumerate(stack):
                one_vals, one_win = run(arch, vec, x, sum_pools=sum_pools)
                assert vals[i].tobytes() == one_vals.tobytes()
                assert (win is None) == (one_win is None)
                assert win is None or np.array_equal(win[i], one_win)
        edge, start = engine.activations(arch, stack, x[0])
        for i, vec in enumerate(stack):
            one_edge, one_start = engine.activations(arch, vec, x[0])
            assert np.array_equal(edge[i], one_edge) and np.array_equal(start[i], one_start)


def test_chunked_blocks_are_the_one_chunk_passes_bit_for_bit(monkeypatch):
    """With one row (or group) per chunk every block of two or more splits:
    the forward pass, its winners, the gradient and the activations must
    not see the chunk boundaries."""
    nets = [(arch, exact, rng) for arch, _, exact, rng in _dag_corpus()]
    rng = np.random.default_rng(12)
    # mostly pools: several pools of one order and unequal fan-in share a level
    nets += [(random_dag(s, max_layers=4, max_width=6, p_kpool=0.9, p_identity=0.05), s % 2 == 0, rng)
             for s in range(10)]
    nets.append((conv_grid_architecture(side=6, channels=(2, 3), d_out=3), False, rng))
    cases = []
    for arch, exact, rng in nets:
        stack = np.stack([(_integer_params if exact else random_params)(arch, rng).vec for _ in range(3)])
        cases.append((arch, stack, _inputs(arch, exact, rng, 5), rng.normal(size=(3, arch.d_out, 5))))
    padded_pools = sum(
        blk.k >= 2 and blk.valid is not None and blk.rows.size >= 2
        for arch, *_ in cases for level in engine.schedule(arch).levels for blk in level
    )
    assert padded_pools >= 5

    def passes():
        got = []
        for arch, stack, x, out_adj in cases:
            for sum_pools in (False, True):
                vals, win = run(arch, stack, x, sum_pools=sum_pools)
                got += [vals, win, gradient(arch, stack, vals, win, out_adj)]
            got += engine.activations(arch, stack, x[0])
        return [None if a is None else (a.dtype, a.shape, a.tobytes()) for a in got]

    whole = passes()
    monkeypatch.setattr(engine, "_BLOCK_ELEMS", 1)
    assert passes() == whole


def test_activations_match_the_reference_values_and_winners():
    nets = [(arch, exact, rng) for arch, _, exact, rng in _dag_corpus()]
    rng = np.random.default_rng(8)
    nets.append((conv_grid_architecture(side=6, channels=(2, 3), d_out=3), False, rng))
    for arch, exact, rng in nets:
        thetas = [_integer_params(arch, rng), random_params(arch, rng), random_params(arch, rng, zero_frac=0.3)]
        x = _inputs(arch, exact, rng, 1)[0]
        edge, start = engine.activations(arch, np.stack([t.vec for t in thetas]), x)
        assert edge.shape == (3, arch.n_edges) and start.shape == (3, arch.n_neurons)
        for i, theta in enumerate(thetas):
            want_edge, want_start = reference_unit_activations(arch, theta, x)
            one_edge, one_start = engine.activations(arch, theta.vec, x)
            for got_edge, got_start in ((one_edge, one_start), (edge[i], start[i])):
                assert np.array_equal(got_edge, want_edge) and np.array_equal(got_start, want_start)


def test_schedule_blocks_are_the_depth_and_pool_order_groups():
    cases = [case[0] for case in _dag_corpus()]
    cases += [mlp_architecture((3, 8, 8, 2)), conv_grid_architecture(side=6, channels=(2, 3), d_out=3)]
    for arch in cases:
        depth, pool_k = _depths(arch), np.where(arch.kinds == KPOOL, arch.pool_k, 0)
        levels = engine.Schedule(arch).levels
        assert len(levels) == depth.max()
        for d, level in enumerate(levels, start=1):
            assert [blk.k for blk in level] == np.unique(pool_k[depth == d]).tolist()
            for blk in level:
                assert blk.rows.dtype == np.int64
                assert np.array_equal(blk.rows, np.flatnonzero((depth == d) & (pool_k == blk.k)))


def test_run_rejects_parameters_of_the_wrong_shape():
    arch = pool_arch()
    for bad in (np.zeros(4), np.zeros((2, 6)), np.zeros((2, 2, 5))):
        with pytest.raises(DimensionMismatch):
            run(arch, bad, [1.0, 1.0])


def _gradient_corpus():
    """Seeded networks for the stacked gradient: random DAGs with pools and
    skip edges, the experiment's MLP and one conv grid, each with stacks of
    P = 1 and P = 3 parameter vectors (integers that tie in pools, random
    ones, random ones with zeroed coordinates)."""
    nets = [(arch, exact, rng) for arch, _, exact, rng in _dag_corpus()[:20]]
    assert any(np.any(arch.kinds == KPOOL) for arch, _, _ in nets)
    rng = np.random.default_rng(77)
    nets.append((mlp_architecture((2, 16, 16, 2)), False, rng))
    nets.append((conv_grid_architecture(side=6, channels=(2, 3), d_out=3), False, rng))
    for arch, exact, rng in nets:
        three = [_integer_params(arch, rng).vec, random_params(arch, rng).vec,
                 random_params(arch, rng, zero_frac=0.3).vec]
        yield arch, np.stack(three[1:2]), exact, rng
        yield arch, np.stack(three), exact, rng


@pytest.mark.parametrize("batch", [1, 7, 256])
def test_stacked_gradient_items_are_their_single_sweeps_bit_for_bit(batch):
    for arch, stack, exact, rng in _gradient_corpus():
        x = _inputs(arch, exact, rng, batch)
        out_adj = rng.normal(size=(len(stack), arch.d_out, batch))
        for sum_pools in (False, True):
            vals, win = run(arch, stack, x, sum_pools=sum_pools)
            grads = gradient(arch, stack, vals, win, out_adj)
            assert grads.shape == stack.shape
            for i, vec in enumerate(stack):
                one_vals, one_win = run(arch, vec, x, sum_pools=sum_pools)
                assert grads[i].tobytes() == gradient(arch, vec, one_vals, one_win, out_adj[i]).tobytes()
        values, grads = grad_scalar(arch, stack, x)
        assert values.shape == (len(stack),)
        for i, vec in enumerate(stack):
            one_value, one_grad = grad_scalar(arch, ParamVector(arch, vec), x)
            assert values[i] == one_value and grads[i].tobytes() == one_grad.tobytes()


def test_a_reused_tape_keeps_nothing_of_its_earlier_passes():
    # each tape serves passes with other parameters, inputs and pool modes;
    # a stale adjoint, pad row or pool winner would show against a fresh tape
    for arch, stack, exact, rng in _gradient_corpus():
        # a vector's passes go through a tape of the default stack of one
        for batch, first in ((1, stack), (7, stack), (7, stack[0])):
            tape = engine.Tape(arch, batch, len(first)) if first.ndim == 2 else engine.Tape(arch, batch)
            for draw, sum_pools in enumerate((False, True, False, False)):
                params = first if draw == 0 else first * rng.choice([-2.0, 0.5, 1.0], size=first.shape)
                x = _inputs(arch, exact, rng, batch)
                out_adj = rng.normal(size=first.shape[:-1] + (arch.d_out, batch))
                want_vals, want_win = run(arch, params, x, sum_pools=sum_pools)
                want = gradient(arch, params, want_vals, want_win, out_adj)
                vals, win = run(arch, params, x, sum_pools=sum_pools, tape=tape)
                assert (vals if first.ndim == 2 else vals.base) is tape.vals
                assert vals.tobytes() == want_vals.tobytes()
                assert (win is None) == (want_win is None)
                assert win is None or np.array_equal(win, want_win)
                got = gradient(arch, params, vals, win, out_adj, tape=tape)
                assert got.tobytes() == want.tobytes()
                theta = params if params.ndim == 2 else ParamVector(arch, params)
                value, grad = grad_scalar(arch, theta, x, tape=tape)
                want_value, want_grad = grad_scalar(arch, theta, x)
                assert np.asarray(value).tobytes() == np.asarray(want_value).tobytes()
                assert grad.tobytes() == want_grad.tobytes()


def test_a_sweep_rewrites_every_gradient_entry_but_the_pinned_pool_biases():
    # the gradient rows are not zeroed per sweep: NaN left in them by an
    # earlier caller must not survive, and the pool biases stay exactly 0
    pooled = 0
    for arch, stack, exact, rng in _gradient_corpus():
        pooled += arch._pool_bias.size > 0
        tape = engine.Tape(arch, 7, len(stack))
        for sum_pools in (True, False, True):
            x = _inputs(arch, exact, rng, 7)
            out_adj = rng.normal(size=(len(stack), arch.d_out, 7))
            vals, win = run(arch, stack, x, sum_pools=sum_pools, tape=tape)
            if tape.gpad is not None:
                tape.gpad[:, np.setdiff1d(np.arange(arch.n_coords), arch._pool_bias)] = np.nan
            got = gradient(arch, stack, vals, win, out_adj, tape=tape)
            assert np.all(got[:, arch._pool_bias] == 0.0)
            want = gradient(arch, stack, *run(arch, stack, x, sum_pools=sum_pools), out_adj)
            assert got.tobytes() == want.tobytes()
    assert pooled


def test_bound_tapes_match_fresh_ones_across_alternating_passes():
    # a tape binds its blocks' views on its first run and its first gradient;
    # every later pass (other parameters, a forward-only pass between two
    # run + gradient pairs, the other pool mode, the aggregate's adjoint
    # written into the tape) must give a fresh tape's bytes
    nets = [(arch, exact, rng) for arch, _, exact, rng in _dag_corpus()]
    rng = np.random.default_rng(53)
    nets.append((mlp_architecture((2, 16, 16, 2)), False, rng))
    nets.append((conv_grid_architecture(side=6, channels=(2, 3), d_out=3), False, rng))
    for arch, exact, rng in nets:
        for p in (1, 3):
            # a full batch's tape beside the short last batch's
            tapes = {batch: engine.Tape(arch, batch, p) for batch in (7, 3)}
            for step in range(3):
                for batch, tape in tapes.items():
                    draws = [_integer_params(arch, rng) if exact else random_params(arch, rng, zero_frac=0.3)
                             for _ in range(2 * p)]
                    first, second = (np.stack([t.vec for t in draws[i * p : (i + 1) * p]]) for i in (0, 1))
                    if p == 1:  # a vector's passes
                        first, second = first[0], second[0]
                    x = _inputs(arch, exact, rng, batch)
                    sum_pools = step == 1
                    vals, win = run(arch, first, x, sum_pools=sum_pools, tape=tape)
                    want_vals, want_win = run(arch, first, x, sum_pools=sum_pools)
                    assert vals.tobytes() == want_vals.tobytes()
                    assert win is None or win.tobytes() == want_win.tobytes()
                    vals, win = run(arch, second, x, tape=tape)
                    want_vals, want_win = run(arch, second, x)
                    out_adj = rng.normal(size=second.shape[:-1] + (arch.d_out, batch))
                    got = gradient(arch, second, vals, win, out_adj, tape=tape)
                    assert vals.tobytes() == want_vals.tobytes()
                    assert got.tobytes() == gradient(arch, second, want_vals, want_win, out_adj).tobytes()
                    theta = second if p > 1 else ParamVector(arch, second)
                    labels = rng.integers(0, max(arch.d_out, 2), size=batch)
                    value, grad = grad_scalar(arch, theta, x, "logistic", labels, tape=tape)
                    want_value, want_grad = grad_scalar(arch, theta, x, "logistic", labels)
                    assert np.asarray(value).tobytes() == np.asarray(want_value).tobytes()
                    assert grad.tobytes() == want_grad.tobytes()


def test_tapes_of_another_shape_and_bad_stacks_are_refused():
    arch = mlp_architecture((2, 4, 2))
    stack = random_params(arch, np.random.default_rng(0)).vec[None].repeat(2, axis=0)
    x = np.ones((5, 2))
    for tape in (engine.Tape(arch, 4, 2), engine.Tape(arch, 5, 3), engine.Tape(arch, 5)):
        with pytest.raises(DimensionMismatch):
            run(arch, stack, x, tape=tape)
        with pytest.raises(DimensionMismatch):
            grad_scalar(arch, stack, x, tape=tape)
    for bad in (stack[:, :-1], stack[None], stack[0]):
        with pytest.raises(DimensionMismatch):
            grad_scalar(arch, bad, x)
    for value in (np.nan, np.inf):
        broken = stack.copy()
        broken[1, 3] = value
        with pytest.raises(NonFiniteValue):
            grad_scalar(arch, broken, x)


def _padded_dag():
    """The first corpus DAG with a block whose coordinates are no
    contiguous run (a padded block), with its parameters."""
    for arch, theta, exact, rng in _dag_corpus():
        blocks = [blk for level in engine.schedule(arch).levels for blk in level]
        if any(not isinstance(blk.coord, slice) for blk in blocks):
            return arch, theta, exact, rng
    raise AssertionError("the corpus must hold a DAG with a padded block")


def test_contiguous_tables_are_read_as_slices_and_padded_blocks_by_position():
    rng = np.random.default_rng(12)
    mlp = mlp_architecture((2, 16, 16, 2))
    grid = conv_grid_architecture(side=6, channels=(2, 3), d_out=3)
    dag, dag_theta, exact, dag_rng = _padded_dag()
    for arch in (mlp, grid):
        sched = engine.schedule(arch)
        assert isinstance(sched.inputs, slice) and isinstance(sched.outputs, slice)
        tape = engine.Tape(arch, 1, 3)
        for blk in (blk for level in sched.levels for blk in level):
            assert isinstance(blk.coord, slice)
            w = engine._weights(tape.wpad, blk)
            assert w.shape == (3,) + blk.src.shape and np.shares_memory(w, tape.wpad)
    padded = [blk for level in engine.schedule(dag).levels for blk in level if not isinstance(blk.coord, slice)]
    assert all(blk.coord.ndim == 1 and blk.coord.size == blk.src.size for blk in padded)
    cases = [
        (mlp, random_params(mlp, rng), rng.normal(size=(7, 2)), rng),
        (grid, random_params(grid, rng), rng.normal(size=(7, grid.d_in)), rng),
        (dag, dag_theta, _inputs(dag, exact, dag_rng, 7), dag_rng),
    ]
    for arch, theta, x, rng in cases:
        for sum_pools in (False, True):
            _compare(arch, theta, x, rng, sum_pools=sum_pools)
        stack = np.stack([theta.vec, random_params(arch, rng).vec, np.zeros(arch.n_coords)])
        out_adj = rng.normal(size=(3, arch.d_out, x.shape[0]))
        for sum_pools in (False, True):
            vals, win = run(arch, stack, x, sum_pools=sum_pools)
            grads = gradient(arch, stack, vals, win, out_adj)
            for i, vec in enumerate(stack):
                one_vals, one_win = run(arch, vec, x, sum_pools=sum_pools)
                assert vals[i].tobytes() == one_vals.tobytes()
                assert grads[i].tobytes() == gradient(arch, vec, one_vals, one_win, out_adj[i]).tobytes()


def test_a_residual_conv_net_matches_the_reference_and_its_own_single_passes():
    rng = np.random.default_rng(41)
    arch = residual_conv_architecture()
    theta = random_params(arch, rng)
    x = rng.normal(size=(7, arch.d_in))
    _compare(arch, theta, x, rng)
    stack = np.stack([theta.vec, random_params(arch, rng).vec, random_params(arch, rng, zero_frac=0.3).vec])
    out_adj = rng.normal(size=(3, arch.d_out, 7))
    vals, win = run(arch, stack, x)
    grads = gradient(arch, stack, vals, win, out_adj)
    for i, vec in enumerate(stack):
        one_vals, one_win = run(arch, vec, x)
        assert vals[i].tobytes() == one_vals.tobytes()
        assert grads[i].tobytes() == gradient(arch, vec, one_vals, one_win, out_adj[i]).tobytes()
    # powers of two move every value of the sum-pool pass exactly
    for seed in range(3):
        moved = rescale(arch, theta, random_rescaling(arch, seed))
        assert not np.array_equal(moved.vec, theta.vec)
        assert path_mag_scores(arch, moved).values.tobytes() == path_mag_scores(arch, theta).values.tobytes()


def _periods(arch):
    """(rows, G, transposed rows, transposed G) of every block that is not
    one shared source row; G is the number of distinct source rows."""
    return [
        (blk.src.shape[0], len(blk.groups), blk.trow.shape[0], len(blk.tgroups))
        for level in engine.Schedule(arch).levels for blk in level if blk.shared is None
    ]


def test_blocks_group_the_rows_that_read_the_same_sources():
    # conv1 and conv2 repeat their sources once per filter; the adjoint
    # into conv1 reads the same 180 rows from each of its 8 filters; the
    # pool rows keep one source row each
    assert _periods(conv_grid_architecture()) == [(800, 100, 144, 144), (1280, 64, 800, 100), (320, 320, 1280, 1280)]
    # every MLP layer reads one shared row
    for widths in ((2, 16, 16, 2), (3, 8, 8, 2)):
        assert _periods(mlp_architecture(widths)) == []
    # padded border rows repeat too: each convolution has period side**2
    arch = residual_conv_architecture(side=4, channels=3, blocks=2)
    blocks = [blk for level in engine.Schedule(arch).levels for blk in level]
    convs = [blk for blk in blocks if blk.src.shape[0] == 48 and blk.src.shape[1] > 2]
    assert len(convs) == 5
    for blk in convs:
        assert np.array_equal(blk.groups, blk.src[:16]) and np.any(blk.groups == arch.n_neurons)
        assert np.array_equal(np.tile(blk.groups, (3, 1)), blk.src)
    # no block of the random DAGs repeats its sources
    for arch, _, _, _ in _dag_corpus():
        for rows, g, trows, tg in _periods(arch):
            assert (g, tg) == (rows, trows)

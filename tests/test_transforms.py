"""Neuron rescalings and the normalized orbit representative."""

import numpy as np
import pytest

from pathlift import (
    IneligibleNeuron,
    NonPositiveFactor,
    POW2_FACTORS,
    ParamVector,
    ParseError,
    conv_grid_architecture,
    forward,
    hidden_positions,
    normalize,
    path_lifting,
    path_norm_fast,
    random_params,
    random_rescaling,
    rescale,
)
from conftest import pool_arch, pool_theta, random_cases
from reference import neuron_lists, reference_normalize, reference_rescale


def test_rescale_diamond_values(diamond):
    arch, theta = diamond
    out = rescale(arch, theta, {"h1": 2.0})
    np.testing.assert_array_equal(out.vec[:4], [2.0, -2.0, 1.5, 1.0])
    np.testing.assert_allclose(forward(arch, out, [1.0]), [3.0])


def test_rescale_scales_bias(diamond):
    arch, theta = diamond
    theta2 = theta.replace({4: 0.5})  # b(h1)
    out = rescale(arch, theta2, {"h1": 4.0})
    assert out.bias("h1") == 2.0


def test_rescale_rejects_input_and_output(diamond):
    arch, theta = diamond
    with pytest.raises(IneligibleNeuron):
        rescale(arch, theta, {"in": 2.0})
    with pytest.raises(IneligibleNeuron):
        rescale(arch, theta, {"out": 2.0})


def test_rescale_rejects_bad_factors(diamond):
    arch, theta = diamond
    with pytest.raises(NonPositiveFactor):
        rescale(arch, theta, {"h1": 0.0})
    with pytest.raises(NonPositiveFactor):
        rescale(arch, theta, {"h1": -1.0})
    with pytest.raises(NonPositiveFactor):
        rescale(arch, theta, {"h1": float("nan")})


def test_rescale_preserves_forward_on_corpus():
    for arch, theta, rng in random_cases(30, seed=301):
        factors = {
            arch.ids[j]: float(rng.uniform(0.2, 5.0)) for j in hidden_positions(arch)
        }
        out = rescale(arch, theta, factors)
        x = rng.normal(size=arch.d_in)
        np.testing.assert_allclose(
            forward(arch, out, x), forward(arch, theta, x), rtol=1e-9, atol=1e-12
        )


def test_power_of_two_rescaling_is_bit_exact():
    for arch, theta, rng in random_cases(20, seed=302):
        factors = {
            arch.ids[j]: float(rng.choice(POW2_FACTORS))
            for j in hidden_positions(arch)
        }
        out = rescale(arch, theta, factors)
        np.testing.assert_array_equal(
            path_lifting(arch, out).values, path_lifting(arch, theta).values
        )
        x = rng.normal(size=arch.d_in)
        np.testing.assert_array_equal(forward(arch, out, x), forward(arch, theta, x))


def test_rescale_pool_neuron_allowed(pool_net):
    arch, theta = pool_net
    out = rescale(arch, theta, {"m": 8.0})
    np.testing.assert_array_equal(out.vec[:3], [16.0, -24.0, 0.125])
    np.testing.assert_array_equal(
        forward(arch, out, [1.0, 1.0]), forward(arch, theta, [1.0, 1.0])
    )


def test_random_rescaling_factor_presets(diamond):
    arch, _ = diamond
    factors = random_rescaling(arch, seed=5)
    assert set(factors) == {"h1", "h2"}
    assert all(f in POW2_FACTORS for f in factors.values())
    wide = random_rescaling(arch, seed=5, preset="log_uniform:8")
    assert all(1 / 8 <= f <= 8 for f in wide.values())


def test_random_rescaling_deterministic(diamond):
    arch, _ = diamond
    assert random_rescaling(arch, seed=9) == random_rescaling(arch, seed=9)


def test_random_rescaling_bad_presets(diamond):
    arch, _ = diamond
    with pytest.raises(ParseError):
        random_rescaling(arch, seed=1, preset="nonsense")
    with pytest.raises(NonPositiveFactor):
        random_rescaling(arch, seed=1, preset="log_uniform:0.5")


def test_normalize_diamond(diamond):
    arch, theta = diamond
    out = normalize(arch, theta)
    # h1 already has incoming l1 norm 1; h2 has 2, so its incoming weight
    # halves and its outgoing weight doubles
    np.testing.assert_array_equal(out.vec[:4], [1.0, -1.0, 3.0, 2.0])
    np.testing.assert_array_equal(
        path_lifting(arch, out).values, path_lifting(arch, theta).values
    )


def test_normalize_idempotent_on_corpus():
    for arch, theta, _ in random_cases(20, seed=303):
        once = normalize(arch, theta)
        twice = normalize(arch, once)
        np.testing.assert_allclose(twice.vec, once.vec, rtol=1e-12, atol=0)


def test_normalize_unit_incoming_norms():
    for arch, theta, _ in random_cases(20, seed=304):
        out = normalize(arch, theta, include_kpool=True)
        in_coords = neuron_lists(arch)[1]
        for j in hidden_positions(arch):
            incoming = np.abs(out.vec[in_coords[j]]).sum()
            if arch.bias_coord[j] >= 0:
                incoming += abs(out.vec[arch.bias_coord[j]])
            assert incoming == pytest.approx(1.0) or incoming == 0.0


def test_normalize_preserves_lifting_on_corpus():
    for arch, theta, _ in random_cases(20, seed=305, zero_frac=0.1):
        out = normalize(arch, theta, include_kpool=True)
        np.testing.assert_allclose(
            path_lifting(arch, out).values,
            path_lifting(arch, theta).values,
            rtol=1e-9,
            atol=1e-12,
        )
        assert path_norm_fast(arch, out) == pytest.approx(path_norm_fast(arch, theta))


def test_normalize_dead_neuron_untouched(diamond):
    arch, theta = diamond
    dead = theta.replace({0: 0.0, 4: 0.0})  # h1 has no incoming mass
    out = normalize(arch, dead)
    assert out.weight("in", "h1") == 0.0
    assert out.weight("h1", "out") == 0.0  # only paths that lift to 0 ran through it
    for x in ([1.0], [-2.0], [0.5]):
        np.testing.assert_array_equal(forward(arch, out, x), forward(arch, dead, x))


def test_normalize_skips_pool_by_default(pool_net):
    arch, theta = pool_net
    out = normalize(arch, theta)
    np.testing.assert_array_equal(out.vec, theta.vec)
    out2 = normalize(arch, theta, include_kpool=True)
    np.testing.assert_allclose(np.abs(out2.vec[:2]).sum(), 1.0)
    np.testing.assert_array_equal(
        forward(arch, out2, [1.0, 1.0]), forward(arch, theta, [1.0, 1.0])
    )


def test_hidden_positions(diamond, pool_net):
    arch, _ = diamond
    assert [arch.ids[j] for j in hidden_positions(arch)] == ["h1", "h2"]
    parch, _ = pool_net
    assert [parch.ids[j] for j in hidden_positions(parch)] == ["m"]
    assert list(hidden_positions(parch, include_kpool=False)) == []


def _level_corpus():
    """Random DAGs with pools and skip edges; half of them with 40% of the
    coordinates zeroed, which leaves some neurons with no incoming mass."""
    kw = dict(max_layers=5, max_width=6, p_skip=0.5, p_kpool=0.4)
    return random_cases(40, seed=306, **kw) + random_cases(40, seed=307, zero_frac=0.4, **kw)


def test_normalize_matches_reference_loop():
    seen = {"pool": False, "skip": False, "dead": False}
    for arch, theta, _ in _level_corpus():
        ant, in_coords, _ = neuron_lists(arch)
        seen["pool"] |= bool(np.any(arch.pool_k > 0))
        seen["skip"] |= bool(np.any(arch.depth[arch.src] < arch.depth[arch.dst] - 1))
        seen["dead"] |= any(
            not np.any(theta.vec[in_coords[j]]) and theta.vec[arch.bias_coord[j]] == 0.0
            for j in hidden_positions(arch)
        )
        for include_kpool in (False, True):
            np.testing.assert_allclose(
                normalize(arch, theta, include_kpool=include_kpool).vec,
                reference_normalize(arch, theta, include_kpool=include_kpool).vec,
                rtol=1e-13,
                atol=0,
            )
    assert all(seen.values()), seen


def test_rescale_matches_reference_loop_bit_for_bit():
    cases = _level_corpus()
    arch = conv_grid_architecture(side=6, channels=(2, 3), d_out=3)
    cases.append((arch, random_params(arch, 8), np.random.default_rng(8)))
    for arch, theta, rng in cases:
        factors = random_rescaling(arch, rng, preset="log_uniform:1e3")
        np.testing.assert_array_equal(
            rescale(arch, theta, factors).vec, reference_rescale(arch, theta, factors).vec
        )

"""Property tests of the l1 guarantees over seeded random DAGs.

Hypothesis draws the seed and the shape knobs of each network (pools, skip
edges, zeroed coordinates); ``derandomize`` fixes the examples it tries, so
the suite stays deterministic.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from pathlift import (
    ParamVector,
    activation_breakpoints,
    normalize,
    path_lifting,
    path_metric_exact_dominated,
    path_metric_lower,
    path_metric_oracle,
    path_metric_upper,
    path_norm_fast,
    random_dag,
    random_params,
    random_rescaling,
    rescale,
    same_sign_partner,
    verify_bound,
)
from pathlift.metrics import _dominating

from reference import reference_activation_breakpoints

PROPERTY = settings(max_examples=150, derandomize=True, database=None, deadline=None)


def _le(a, b):
    """a <= b up to rounding."""
    return a <= b * (1 + 1e-9) + 1e-12


@st.composite
def networks(draw, layers=st.integers(2, 5), widths=st.integers(1, 5)):
    """(arch, theta, rng): a random DAG with pools and skip edges, and
    parameters with some coordinates zeroed."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    arch = random_dag(
        rng,
        max_layers=draw(layers),
        max_width=draw(widths),
        p_skip=draw(st.sampled_from([0.0, 0.25, 0.5])),
        p_kpool=draw(st.sampled_from([0.0, 0.25, 0.5])),
    )
    theta = random_params(arch, rng, zero_frac=draw(st.sampled_from([0.0, 0.1, 0.3])))
    return arch, theta, rng


@PROPERTY
@given(networks(), st.sampled_from(["pow2_factors", "log_uniform:1e3"]))
def test_lifting_norm_and_normalize_are_rescaling_invariant(net, preset):
    arch, theta, rng = net
    moved = rescale(arch, theta, random_rescaling(arch, rng, preset=preset))
    partner = same_sign_partner(theta, rng)
    pairs = [
        (path_lifting(arch, moved).values, path_lifting(arch, theta).values),
        (path_norm_fast(arch, moved), path_norm_fast(arch, theta)),
        (normalize(arch, moved, include_kpool=True).vec, normalize(arch, theta, include_kpool=True).vec),
    ] + [
        (path_metric_upper(arch, moved, partner, refined=r), path_metric_upper(arch, theta, partner, refined=r))
        for r in (False, True)
    ]
    for got, want in pairs:
        if preset == "pow2_factors":
            np.testing.assert_array_equal(got, want)
        else:
            np.testing.assert_allclose(got, want, rtol=1e-12)


@PROPERTY
@given(networks())
def test_bound_holds_on_same_sign_pairs(net):
    arch, theta, rng = net
    other = same_sign_partner(theta, rng, zero_frac=0.1)
    x = rng.normal(scale=1.5, size=arch.d_in)
    for variant in ("main", "split"):
        report = verify_bound(arch, theta, other, x, variant=variant)
        assert report.holds, report.render()


@PROPERTY
@given(networks())
def test_exact_dominated_equals_oracle_on_both_routes(net):
    arch, theta, rng = net
    # shrunk coordinatewise, a third zeroed: the parameter route
    small = ParamVector(arch, theta.vec * rng.uniform(size=arch.n_coords) * (rng.random(arch.n_coords) > 0.3))
    np.testing.assert_allclose(
        path_metric_exact_dominated(arch, theta, small), path_metric_oracle(arch, theta, small), rtol=1e-12
    )
    # rescaled by powers of two, the liftings still dominate bit for bit
    moved = rescale(arch, small, random_rescaling(arch, rng))
    got = path_metric_exact_dominated(arch, theta, moved)
    want = path_metric_oracle(arch, theta, moved)
    if _dominating(theta, moved, theta.vec, moved.vec) is None:  # the lifting route
        assert got == want
    else:
        np.testing.assert_allclose(got, want, rtol=1e-12)


@PROPERTY
@given(networks(), st.booleans())
def test_lower_and_upper_bounds_enclose_the_oracle(net, independent):
    arch, t1, rng = net
    if independent:
        t2 = random_params(arch, rng)
    else:
        t2 = ParamVector(arch, t1.vec * rng.uniform(-1.5, 1.5, size=arch.n_coords))
    oracle = path_metric_oracle(arch, t1, t2)
    assert _le(path_metric_lower(arch, t1, t2), oracle)
    assert _le(oracle, path_metric_upper(arch, t1, t2, refined=True))
    assert _le(oracle, path_metric_upper(arch, t1, t2))


@PROPERTY
@given(
    # wider nets, partners up to e**2 apart and a wide x: about a quarter
    # of the draws have activation changes to bisect
    networks(layers=st.integers(3, 5), widths=st.integers(4, 6)),
    st.sampled_from([1, 2, 3, 7, 32]),
    st.sampled_from([0.0, 1e-10, 1e-2]),
)
def test_breakpoints_equal_the_reference_loop(net, samples, width):
    arch, theta, rng = net
    partner = ParamVector(arch, theta.vec * np.exp(rng.uniform(-2.0, 2.0, size=arch.n_coords)))
    x = rng.normal(scale=3.0, size=arch.d_in)
    got = activation_breakpoints(arch, theta, partner, x, samples=samples, width=width)
    assert got == reference_activation_breakpoints(arch, theta, partner, x, samples=samples, width=width)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 40),
    st.sampled_from([0.0, 1e-12, 1e-6, 1e-2]),
)
def test_breakpoints_on_same_sign_partners_equal_the_reference_loop(seed, samples, width):
    rng = np.random.default_rng(seed)
    arch = random_dag(rng, max_layers=4, max_width=5)
    theta = random_params(arch, rng)
    for _ in range(8):  # about one pair in six has activation changes: look for one
        partner = same_sign_partner(theta, rng)
        x = rng.normal(scale=1.5, size=arch.d_in)
        got = activation_breakpoints(arch, theta, partner, x, samples=samples, width=width)
        if got[0]:
            break
    assert got == reference_activation_breakpoints(arch, theta, partner, x, samples=samples, width=width)

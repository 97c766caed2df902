"""The bulk network-file writer and loader against the json module's writer."""

import io
import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pathlift import Architecture, ParamVector, conv_grid_architecture, random_dag, random_params
from pathlift.netfile import load_network, save_network
from conftest import edge_ids
from reference import reference_save

_AWKWARD_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 1e-300, 1.7e308, -1.7e308, 0.1, 1 / 3]

_ids = st.text(
    alphabet=st.sampled_from('"\\/\n\t abéß€中\U0001f600\x00\x7f') | st.characters(),
    min_size=1,
    max_size=6,
)
_floats = st.sampled_from(_AWKWARD_FLOATS) | st.floats(allow_nan=False, allow_infinity=False)


def _saved(arch, theta) -> str:
    buf = io.StringIO()
    save_network(buf, arch, theta)
    return buf.getvalue()


def _assert_round_trip(arch, theta):
    text = _saved(arch, theta)
    want = io.StringIO()
    reference_save(want, arch, theta)
    assert text == want.getvalue()
    arch2, theta2 = load_network(io.StringIO(text))
    assert arch2 == arch
    assert theta2.vec.tobytes() == theta.vec.tobytes()  # bit for bit, signed zeros included


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_save_is_json_dump_and_load_is_bit_exact(seed, data):
    shape = random_dag(np.random.default_rng(seed), p_kpool=0.4)
    names = data.draw(st.lists(_ids, min_size=shape.n_neurons, max_size=shape.n_neurons, unique=True))
    name = dict(zip(shape.ids, names))
    arch = Architecture(
        [(name[nid], tag) for nid, tag in zip(shape.ids, shape.tags)],
        [(name[u], name[v]) for u, v in edge_ids(shape)],
    )
    values = data.draw(st.lists(_floats, min_size=arch.n_coords, max_size=arch.n_coords))
    _assert_round_trip(arch, ParamVector(arch, values))


def test_save_is_json_dump_on_conv_grid():
    arch = conv_grid_architecture(side=6, channels=(2, 3), d_out=3)
    rng = np.random.default_rng(3)
    theta = random_params(arch, rng, zero_frac=0.1)
    _assert_round_trip(arch, ParamVector(arch, theta.vec * rng.uniform(1e-7, 1e7, size=arch.n_coords)))


def test_load_places_weights_listed_in_any_order():
    for child in np.random.SeedSequence(9).spawn(30):
        rng = np.random.default_rng(child)
        arch = random_dag(rng, p_kpool=0.4, p_skip=0.5)
        theta = random_params(arch, rng)
        doc = json.loads(_saved(arch, theta))
        doc["neurons"] = [doc["neurons"][i] for i in rng.permutation(arch.n_neurons)]
        doc["edges"] = [doc["edges"][i] for i in rng.permutation(arch.n_edges)]
        for entry in doc["edges"][::2]:  # key order is free too
            entry["weight"] = entry.pop("weight")
            entry["src"] = entry.pop("src")
        arch2, theta2 = load_network(io.StringIO(json.dumps(doc)))
        assert arch2 == arch
        weights = {(e["src"], e["dst"]): e["weight"] for e in doc["edges"]}
        want = np.zeros(arch.n_coords)
        want[: arch.n_edges] = [weights[e] for e in edge_ids(arch)]
        for nid, b in doc["biases"].items():
            want[arch.bias_coord[arch.position(nid)]] = b
        assert np.array_equal(theta2.vec, ParamVector(arch, want).vec)
        assert np.array_equal(theta2.vec, theta.vec)

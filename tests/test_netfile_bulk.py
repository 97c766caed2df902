"""The bulk network-file writer and loader against the json module's writer,
and the loader's checks on both layouts."""

import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathlift import Architecture, ParamVector, conv_grid_architecture, random_dag, random_params
from pathlift.errors import ArchitectureError, ParseError
from pathlift import netfile
from pathlift.netfile import load_network, save_network
from conftest import edge_ids
from reference import reference_row_save, reference_save

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


def _drawn(seed, data):
    """A random DAG renamed with drawn awkward ids, and drawn awkward parameters."""
    shape = random_dag(np.random.default_rng(seed), p_kpool=0.4)
    names = data.draw(st.lists(_ids, min_size=shape.n_neurons, max_size=shape.n_neurons, unique=True))
    name = dict(zip(shape.ids, names))
    arch = Architecture(
        [(name[nid], tag) for nid, tag in zip(shape.ids, shape.tags)],
        [(name[u], name[v]) for u, v in edge_ids(shape)],
    )
    values = data.draw(st.lists(_floats, min_size=arch.n_coords, max_size=arch.n_coords))
    return arch, ParamVector(arch, values)


def _assert_saved_at_every_chunk_size(arch, theta):
    """save_network writes reference_save's bytes with a chunk of 1, 2, 3
    and 7 entries per write."""
    want = io.StringIO()
    reference_save(want, arch, theta)
    for chunk in (1, 2, 3, 7):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(netfile, "_CHUNK", chunk)
            assert _saved(arch, theta) == want.getvalue(), chunk


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_save_is_json_dump_and_load_is_bit_exact(seed, data):
    arch, theta = _drawn(seed, data)
    _assert_round_trip(arch, theta)
    rows = io.StringIO()  # the row layout still loads bit for bit
    reference_row_save(rows, arch, theta)
    arch2, theta2 = load_network(io.StringIO(rows.getvalue()))
    assert arch2 == arch
    assert theta2.vec.tobytes() == theta.vec.tobytes()


def test_save_is_json_dump_on_conv_grid():
    arch = conv_grid_architecture(side=6, channels=(2, 3), d_out=3)
    rng = np.random.default_rng(3)
    theta = random_params(arch, rng, zero_frac=0.1)
    _assert_round_trip(arch, ParamVector(arch, theta.vec * rng.uniform(1e-7, 1e7, size=arch.n_coords)))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_save_is_json_dump_at_every_chunk_size(seed, data):
    _assert_saved_at_every_chunk_size(*_drawn(seed, data))


def test_save_is_json_dump_at_every_chunk_size_on_conv_grid_and_empty_columns():
    arch = conv_grid_architecture(side=6, channels=(2, 3), d_out=3)
    _assert_saved_at_every_chunk_size(arch, random_params(arch, np.random.default_rng(4), zero_frac=0.1))
    lone = Architecture([("in", "input")], [])  # every column but the ids is empty
    _assert_saved_at_every_chunk_size(lone, ParamVector(lone, []))
    _assert_round_trip(lone, ParamVector(lone, []))


def _entries(columns: dict) -> list:
    """A columnar table's rows, as the row layout lists them."""
    return [dict(zip(columns, row)) for row in zip(*columns.values())]


def test_load_places_weights_listed_in_any_order():
    for child in np.random.SeedSequence(9).spawn(30):
        rng = np.random.default_rng(child)
        arch = random_dag(rng, p_kpool=0.4, p_skip=0.5)
        theta = random_params(arch, rng)
        doc = json.loads(_saved(arch, theta))
        order = {"neurons": rng.permutation(arch.n_neurons), "edges": rng.permutation(arch.n_edges)}
        # every column of a table permuted alike; the key order is free too
        columnar = {t: {k: [c[i] for i in order[t]] for k, c in reversed(doc[t].items())} for t in order}
        columnar["biases"] = doc["biases"]
        rows = {t: _entries(columnar[t]) for t in order}
        for entry in rows["edges"][::2]:
            entry["weight"] = entry.pop("weight")
            entry["src"] = entry.pop("src")
        rows["biases"] = doc["biases"]
        edges = columnar["edges"]
        weights = {(u, v): w for u, v, w in zip(edges["src"], edges["dst"], edges["weight"])}
        want = np.zeros(arch.n_coords)
        want[: arch.n_edges] = [weights[e] for e in edge_ids(arch)]
        for nid, b in doc["biases"].items():
            want[arch.bias_coord[arch.position(nid)]] = b
        for permuted in (rows, columnar):
            arch2, theta2 = load_network(io.StringIO(json.dumps(permuted)))
            assert arch2 == arch
            assert np.array_equal(theta2.vec, ParamVector(arch, want).vec)
            assert np.array_equal(theta2.vec, theta.vec)


_NEURONS = '"neurons": {"id": ["a", "b"], "activation": ["input", "identity"]}'
_ROW_NEURONS = '"neurons": [{"id": "a", "activation": "input"}, {"id": "b", "activation": "identity"}]'


@pytest.mark.parametrize("text, key", [
    ('{%s, "edges": [{"src": "a", "dst": "b", "weight": 1.0, "weight": 5.0}]}' % _ROW_NEURONS, "weight"),
    ('{%s, "edges": [{"src": "a", "dst": "b", "weight": 1.0}], "biases": {"b": 1.0, "b": 2.0}}'
     % _ROW_NEURONS, "b"),
    ('{%s, "edges": [], "edges": [{"src": "a", "dst": "b", "weight": 1.0}]}' % _ROW_NEURONS, "edges"),
    ('{%s, "edges": {"src": ["a"], "dst": ["b"], "weight": [1.0], "weight": [5.0]}}' % _NEURONS, "weight"),
    ('{%s, "edges": {"src": ["a"], "dst": ["b"], "weight": [1.0]}, "biases": {"b": 1.0, "b": 2.0}}'
     % _NEURONS, "b"),
    ('{"neurons": {"id": [], "id": ["a"], "activation": ["input"]}, "edges": {"src": [], "dst": [],'
     ' "weight": []}}', "id"),
], ids=["row entry", "row biases", "top level", "column", "columnar biases", "neuron column"])
def test_a_repeated_key_is_a_parse_error(text, key):
    # a dict keeps the last of a repeated key, which would drop a parameter
    with pytest.raises(ParseError, match=f"repeated key '{key}'"):
        load_network(io.StringIO(text))


def _columnar(**edges) -> dict:
    """The net a, c -> b in the columnar layout, its edge columns replaced
    by ``edges``."""
    doc = {
        "neurons": {"id": ["a", "c", "b"], "activation": ["input", "input", "identity"]},
        "edges": {"src": ["a", "c"], "dst": ["b", "b"], "weight": [1.0, 2.0]},
        "biases": {"b": 0.5},
    }
    doc["edges"].update(edges)
    return doc


def _without(table: dict, key: str) -> dict:
    return {k: v for k, v in table.items() if k != key}


_MALFORMED = {
    "missing column": (
        {**_columnar(), "edges": _without(_columnar()["edges"], "weight")},
        ParseError, r"'edges' columns must be exactly \['src', 'dst', 'weight'\]"),
    "missing neuron column": (
        {**_columnar(), "neurons": _without(_columnar()["neurons"], "activation")},
        ParseError, "'neurons' columns must be exactly"),
    "extra column": (_columnar(label=["x", "y"]), ParseError, "'edges' columns must be exactly"),
    "bias column": (
        {**_columnar(), "neurons": {**_columnar()["neurons"], "bias": [0.0, 0.0, 0.5]}},
        ParseError, "'neurons' columns must be exactly"),
    "non-list column": (
        _columnar(weight=1.0), ParseError, "'edges' columns must be lists of one length, got .*'weight': 'float'"),
    "unequal columns": (
        _columnar(dst=["b"]), ParseError, "'edges' columns must be lists of one length, got .*'dst': 1"),
    "bool weight": (_columnar(weight=[1.0, True]), ParseError, "edge weight must be a number.*True"),
    "string weight": (
        _columnar(weight=[1.0, "heavy"]),
        ParseError, r"edge weight must be a number: \{'src': 'c', 'dst': 'b', 'weight': 'heavy'\}"),
    "huge weight": (_columnar(weight=[10**400, 1.0]), ParseError, "edge weight too large for a float"),
    "bad activation tag": (
        {**_columnar(), "neurons": {"id": ["a", "c", "b"], "activation": ["input", "input", "gelu"]}},
        ArchitectureError, "unknown activation 'gelu'"),
}


@pytest.mark.parametrize("case", list(_MALFORMED))
def test_malformed_columnar_documents_are_refused(case):
    # a bad activation tag is the constructor's ArchitectureError, as in the
    # row layout; every other damage is a ParseError naming what is wrong
    arch, theta = load_network(io.StringIO(json.dumps(_columnar())))
    assert theta.vec.tolist() == [1.0, 2.0, 0.5]
    doc, error, message = _MALFORMED[case]
    with pytest.raises(error, match=message):
        load_network(io.StringIO(json.dumps(doc)))

"""The chunked writers against whole-document references, and their memory.

The prune and normalize tables and the path table are byte-identical to
their references at every chunk size, an empty table included; errors
label only the coordinates they name; and on the default conv grid a save
costs less than 4 MB of traced memory, a ``prune --out`` no more than 4 MB
beyond its own load.
"""

import contextlib
import io
import os
import tracemalloc

import numpy as np
import pytest

from pathlift import (
    MixedZeroCoordinate,
    NonFiniteValue,
    ParamVector,
    SignConditionViolated,
    check_sign_condition,
    conv_grid_architecture,
    mlp_architecture,
    path_lifting,
    random_params,
    save_path_table,
    trajectory_point,
)
from pathlift import netfile
from pathlift.cli import main
from pathlift.netfile import load_network, save_network
from pathlift.pruning import apply_prune, path_mag_scores
from pathlift.transforms import normalize
from reference import reference_path_table, reference_rows

CHUNKS = (None, 1, 2, 3, 7)  # None: the module's own chunk size
MB = 2**20


@pytest.fixture(params=CHUNKS, ids=lambda c: f"chunk{c or ''}")
def chunk(request, monkeypatch):
    if request.param:
        monkeypatch.setattr(netfile, "_CHUNK", request.param)
    return request.param


@pytest.fixture(scope="module")
def conv_net(tmp_path_factory):
    arch = conv_grid_architecture(side=6, channels=(2, 3), d_out=3)
    theta = random_params(arch, np.random.default_rng(6), zero_frac=0.1)
    path = tmp_path_factory.mktemp("conv") / "net.json"
    save_network(path, arch, theta)
    return str(path), arch, theta


def test_prune_table_is_the_whole_table(conv_net, chunk, capsys):
    path, arch, theta = conv_net
    assert main(["prune", path, "--amount", "0.4"]) == 0
    scores = path_mag_scores(arch, theta)
    _, mask = apply_prune(theta, scores, fraction=0.4, edges_only=True)
    want = f"pruned {len(mask.pruned)} coordinate(s)\ncoordinate\tscore\tpruned\n" + reference_rows(
        arch.coord_labels, map(repr, scores.values.tolist()), ["" if k else "yes" for k in mask.keep.tolist()]
    )
    assert capsys.readouterr().out == want


def test_normalize_table_is_the_whole_table(conv_net, chunk, capsys):
    path, arch, theta = conv_net
    assert main(["normalize", path]) == 0
    assert capsys.readouterr().out == reference_rows(arch.coord_labels, map(repr, normalize(arch, theta).vec.tolist()))


def test_an_empty_table_is_its_header_alone(tmp_path, chunk, capsys):
    lone = tmp_path / "lone.json"
    lone.write_text('{"neurons": [{"id": "in", "activation": "input"}], "edges": []}')
    assert main(["prune", str(lone), "--count", "0", "--criterion", "magnitude"]) == 0
    assert capsys.readouterr().out == "pruned 0 coordinate(s)\ncoordinate\tscore\tpruned\n"
    assert main(["normalize", str(lone)]) == 0
    assert capsys.readouterr().out == reference_rows([], []) == ""
    buf = io.StringIO()
    save_path_table(buf, (), np.empty(0))
    assert buf.getvalue() == "path\tvalue\n"


def test_path_table_is_the_per_row_table(tmp_path, chunk):
    arch = mlp_architecture((3, 4, 4, 2))
    theta = random_params(arch, np.random.default_rng(7))
    lift = path_lifting(arch, theta)
    want = io.StringIO()
    reference_path_table(want, lift.paths, lift.values)
    got = io.StringIO()
    save_path_table(got, lift.paths, lift.values)
    assert got.getvalue() == want.getvalue()
    save_network(tmp_path / "mlp.json", arch, theta)
    assert main(["pathnorm", str(tmp_path / "mlp.json"), "--dump", str(tmp_path / "paths.tsv")]) == 0
    assert (tmp_path / "paths.tsv").read_text() == want.getvalue()


# ---- errors and memory on the default conv grid ------------------------------


@pytest.fixture(scope="module")
def grid():
    """The default conv grid, its parameters, and a second build of it whose
    labels give the expected messages."""
    arch = conv_grid_architecture()
    return arch, random_params(arch, np.random.default_rng(8)), conv_grid_architecture().coord_labels


def test_errors_label_only_the_coordinates_they_name(grid):
    arch, theta, labels = grid
    m = arch.n_edges
    bad = [3, 7, 9, 5000, m - 1, m, arch.n_coords - 1]
    v = theta.vec.copy()
    v[bad] = [np.nan, np.inf, -np.inf, np.nan, np.inf, np.nan, -np.inf]
    with pytest.raises(NonFiniteValue) as err:
        ParamVector(arch, v)
    shown = ", ".join(f"{labels[i]}={float(v[i])!r}" for i in bad[:5])
    assert str(err.value) == f"non-finite parameter(s): {shown} (+2 more)"
    assert "coord_labels" not in vars(arch)

    flipped = theta.vec.copy()
    flipped[bad] *= -1.0
    with pytest.raises(SignConditionViolated) as err:
        check_sign_condition(theta, ParamVector(arch, flipped))
    want = SignConditionViolated([labels[i] for i in bad])
    assert (err.value.coords, str(err.value)) == (want.coords, str(want))
    assert "coord_labels" not in vars(arch)

    zeroed = theta.vec.copy()
    zeroed[bad] = 0.0
    with pytest.raises(MixedZeroCoordinate) as err:
        trajectory_point(theta, ParamVector(arch, zeroed), 0.5)
    assert str(err.value) == f"zero on one side only at: {[labels[i] for i in bad[:5]]}"
    assert "coord_labels" not in vars(arch)


def _traced_peak(fn, *args):
    """The peak of traced memory, in bytes, while ``fn(*args)`` runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_writers_hold_a_chunk_not_a_document(grid, tmp_path):
    arch, theta, _ = grid
    net, out = str(tmp_path / "net.json"), str(tmp_path / "pruned.json")
    save_network(net, arch, theta)
    assert _traced_peak(save_network, out, arch, theta) < 4 * MB
    argv = ["prune", net, "--amount", "0.4", "--out", out]
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        assert main(argv) == 0  # warm: nothing is imported or compiled for the first time below
        prune = _traced_peak(main, argv)
    assert prune <= _traced_peak(load_network, net) + 4 * MB

"""Network files: JSON documents holding one architecture plus parameters.

Schema (the columnar layout :func:`save_network` writes)::

    {"neurons": {"id":         ["in", "h1", "p", ...],
                 "activation": ["input", "relu", {"kpool": 2}, ...]},
     "edges":   {"src":    ["in", ...],
                 "dst":    ["h1", ...],
                 "weight": [1.0, ...]},
     "biases":  {"h1": 0.0, ...}}

Activations are "input" | "identity" | "relu" | {"kpool": k}.  Omitted
biases default to 0; biases of kpool neurons are pinned to 0 regardless of
what the file says.  Tables carry exactly the columns shown above, of equal
length; unknown columns and repeated keys anywhere in the document are
rejected, so a misplaced parameter cannot be dropped silently.  Floats are
written with Python's shortest round-trip representation (up to 17
significant digits), so save -> load reproduces every parameter bit for bit.

:func:`load_network` also reads the row layout, where ``"neurons"`` and
``"edges"`` are lists of entries with those keys::

    {"neurons": [{"id": "h1", "activation": "relu"}, ...],
     "edges":   [{"src": "in", "dst": "h1", "weight": 1.0}, ...],
     "biases":  {"h1": 0.0, ...}}

A list is read as rows and an object as columns; after that, both layouts
take one path.

The file is exactly what ``json.dump(doc, fh, indent=1)`` writes, followed
by a newline; :func:`save_network` writes those bytes a chunk at a time,
formatting ``_CHUNK`` entries of a column per write, each neuron id
JSON-encoded once, so a save holds no string as long as a column.  The
target is opened as it is given, so an interrupted save leaves a partial
file, as ``json.dump`` would.  The CLI's coordinate tables and the path
table go through the same chunked row writer.  :func:`load_network`
parses the document with one ``json.load`` and validates it in bulk (key
sets, column lengths, number types over whole lists); only when a bulk
check fails does it walk the table's entries one by one, to name the first
bad one.
"""

from __future__ import annotations

import contextlib
import json
import os
from collections import Counter
from json.encoder import encode_basestring_ascii as _encode
from operator import itemgetter

import numpy as np

from .errors import ParseError
from .graph import Architecture, ParamVector, _check_bound, _EdgeColumns

_KPOOL = '{{\n    "kpool": {}\n   }}'.format
_NEURON_KEYS = ("id", "activation")
_EDGE_KEYS = ("src", "dst", "weight")


def _opened(fp, mode: str):
    """A context giving an open handle: the file at ``fp`` opened in
    ``mode`` and closed on exit, or ``fp`` itself when it is a handle."""
    if isinstance(fp, (str, os.PathLike)):
        return open(fp, mode)
    return contextlib.nullcontext(fp)


# entries per write: the writers format a column or a table this many
# entries at a time (8,192 floats make a write of about 200 KB)
_CHUNK = 8192


def _spans(n: int):
    """(a, b) for each run of at most _CHUNK entries of range(n), in order."""
    return ((a, min(a + _CHUNK, n)) for a in range(0, n, _CHUNK))


def _write_object(fh, n: int, columns: dict) -> None:
    """Write an object of columns of ``n`` encoded entries nested one level
    deep, as ``json.dump(indent=1)`` lays it out; ``column(a, b)`` gives a
    column's entries a:b."""
    lead = "{\n  "
    for key, column in columns.items():
        fh.write(lead + _encode(key) + (": [\n   " if n else ": []"))
        for a, b in _spans(n):
            fh.write((",\n   " if a else "") + ",\n   ".join(column(a, b)))
        fh.write("\n  ]" if n else "")
        lead = ",\n  "
    fh.write("\n }")


def _write_rows(fh, n: int, *columns) -> None:
    """Write ``n`` tab-separated lines, each ended by a newline, _CHUNK
    lines per write; ``column(a, b)`` gives the fields of rows a:b."""
    for a, b in _spans(n):
        fh.write("\n".join(map("\t".join, zip(*(column(a, b) for column in columns)))) + "\n")


def _reprs(vec: np.ndarray):
    """The column of float64 ``vec``'s shortest round-trip reprs."""
    return lambda a, b: map(float.__repr__, vec[a:b].tolist())


def save_network(fp, arch: Architecture, theta: ParamVector) -> None:
    _check_bound(arch, theta)
    enc = list(map(_encode, arch.ids))
    acts = [
        _KPOOL(int.__repr__(tag[1])) if isinstance(tag, tuple) else _encode(tag)
        for tag in arch.tags
    ]
    vec, m = theta.vec, arch.n_edges
    edges = {
        "src": lambda a, b: map(enc.__getitem__, arch.src[a:b].tolist()),
        "dst": lambda a, b: map(enc.__getitem__, arch.dst[a:b].tolist()),
        "weight": _reprs(vec),
    }
    biases = [f"{enc[j]}: {float.__repr__(v)}" for j, v in zip(arch.non_input_pos.tolist(), vec[m:].tolist())]
    with _opened(fp, "w") as fh:
        fh.write('{\n "neurons": ')
        _write_object(fh, arch.n_neurons, {"id": lambda a, b: enc[a:b], "activation": lambda a, b: acts[a:b]})
        fh.write(',\n "edges": ')
        _write_object(fh, m, edges)
        fh.write(',\n "biases": ' + ("{\n  " + ",\n  ".join(biases) + "\n }" if biases else "{}") + "\n}\n")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _walk_neurons(entries) -> None:
    """Raise ParseError on the first bad neuron entry; runs only when a bulk check found one."""
    for item in entries:
        if not isinstance(item, dict) or "id" not in item or "activation" not in item:
            raise ParseError(f"malformed neuron entry {item!r}")
        extra = set(item) - {"id", "activation"}
        if extra:
            hint = "; biases belong in the top-level 'biases' table" if "bias" in extra else ""
            raise ParseError(f"unknown key(s) {sorted(extra)} in neuron entry {item['id']!r}{hint}")


def _walk_edges(entries) -> None:
    """Raise ParseError on the first bad edge entry; runs only when a bulk check found one."""
    for item in entries:
        if not isinstance(item, dict) or not {"src", "dst", "weight"} <= set(item):
            raise ParseError(f"malformed edge entry {item!r}")
        extra = set(item) - {"src", "dst", "weight"}
        if extra:
            raise ParseError(f"unknown key(s) {sorted(extra)} in edge entry {item!r}")
        if not _is_number(item["weight"]):
            raise ParseError(f"edge weight must be a number: {item!r}")
        try:
            float(item["weight"])
        except OverflowError:
            raise ParseError(f"edge weight too large for a float: {item!r}") from None


def _unique(pairs: list) -> dict:
    """A JSON object as a dict, refusing a key it repeats: a dict would keep
    only its last value."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        key = next(k for k, n in Counter(map(itemgetter(0), pairs)).items() if n > 1)
        raise ParseError(f"repeated key {key!r} in one JSON object")
    return obj


def _columns(name: str, table, keys: tuple, walk) -> list:
    """One list per key: a columnar table's columns, or the values of a row
    table's entries.  When an entry is not a dict with exactly these keys,
    ``walk`` raises naming the first bad one."""
    if isinstance(table, dict):
        if set(table) != set(keys):
            raise ParseError(f"{name!r} columns must be exactly {list(keys)}, got {list(table)}")
        columns = [table[k] for k in keys]
        if not all(isinstance(c, list) for c in columns) or len(set(map(len, columns))) > 1:
            shapes = {k: len(c) if isinstance(c, list) else type(c).__name__ for k, c in zip(keys, columns)}
            raise ParseError(f"{name!r} columns must be lists of one length, got {shapes}")
        return columns
    try:
        if set(map(type, table)) <= {dict} and set(map(len, table)) <= {len(keys)}:
            return [list(map(itemgetter(k), table)) for k in keys]
    except KeyError:
        pass
    walk(table)


def _weights(values: list, table) -> np.ndarray:
    """The edge weights as float64.  On a non-number or an integer too large
    for a float, the walk over the edge entries names the first bad one; a
    columnar table's entries are built for that walk alone."""
    if set(map(type, values)) <= {int, float}:
        try:
            return np.fromiter(map(float, values), dtype=np.float64, count=len(values))
        except OverflowError:
            pass
    if isinstance(table, dict):
        table = [dict(zip(_EDGE_KEYS, row)) for row in zip(*map(table.get, _EDGE_KEYS))]
    _walk_edges(table)


def load_network(fp):
    """Read a network file in either layout; returns (architecture,
    parameters)."""
    with _opened(fp, "r") as fh:
        try:
            doc = json.load(fh, object_pairs_hook=_unique)
        except json.JSONDecodeError as exc:
            raise ParseError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    for key in ("neurons", "edges"):
        if not isinstance(doc.get(key), (list, dict)):
            raise ParseError(f"missing or malformed {key!r} table")
    ids, acts = _columns("neurons", doc["neurons"], _NEURON_KEYS, _walk_neurons)
    src, dst, ws = _columns("edges", doc["edges"], _EDGE_KEYS, _walk_edges)
    weights = _weights(ws, doc["edges"])
    biases = doc.get("biases", {})
    if not isinstance(biases, dict):
        raise ParseError("'biases' must map neuron ids to numbers")
    if not set(map(type, biases.values())) <= {int, float}:
        for k, v in biases.items():
            if not _is_number(v):
                raise ParseError(f"bias of {k!r} must be a number")
    arch = Architecture(zip(ids, acts), _EdgeColumns((src, dst)))
    floats = {}
    for k, v in biases.items():
        try:
            floats[str(k)] = float(v)
        except OverflowError:
            raise ParseError(f"bias of {k!r} too large for a float") from None
    return arch, ParamVector._from_given_order(arch, weights, floats)

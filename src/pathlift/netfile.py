"""Network files: JSON documents holding one architecture plus parameters.

Schema::

    {"neurons": [{"id": "h1", "activation": "relu"},
                 {"id": "p",  "activation": {"kpool": 2}}, ...],
     "edges":   [{"src": "in", "dst": "h1", "weight": 1.0}, ...],
     "biases":  {"h1": 0.0, ...}}

Activations are "input" | "identity" | "relu" | {"kpool": k}.  Omitted
biases default to 0; biases of kpool neurons are pinned to 0 regardless of
what the file says.  Entries carry exactly the keys shown above; unknown
keys are rejected so a misplaced parameter cannot be dropped silently.
Floats are written with Python's shortest round-trip representation (up to
17 significant digits), so save -> load reproduces every parameter bit for
bit.

The layout is the one ``json.dump(doc, fh, indent=1)`` writes, followed by
a newline; :func:`save_network` assembles those bytes as one string, each
neuron id JSON-encoded once.  :func:`load_network` parses the document with
one ``json.load`` and validates it in bulk (entry types, key sets, number
types over whole lists); only when a bulk check fails does it walk the
entries one by one, to name the first bad one.
"""

from __future__ import annotations

import contextlib
import json
import os
from json.encoder import encode_basestring_ascii as _encode
from operator import itemgetter

import numpy as np

from .errors import ParseError
from .graph import Architecture, ParamVector, _check_bound, _EdgeColumns

_KPOOL = '{{\n    "kpool": {}\n   }}'.format


def _opened(fp, mode: str):
    """A context giving an open handle: the file at ``fp`` opened in
    ``mode`` and closed on exit, or ``fp`` itself when it is a handle."""
    if isinstance(fp, (str, os.PathLike)):
        return open(fp, mode)
    return contextlib.nullcontext(fp)


def _list(keys: tuple, columns: list) -> str:
    """A list of objects with these keys, one per row of ``columns``, nested
    one level deep, as ``json.dump(indent=1)`` lays it out: the fixed pieces
    and the encoded values interleaved, then one join."""
    if not columns[0]:
        return "[]"
    row = []
    for key in keys:
        row += [",\n   " + _encode(key) + ": ", None]
    row[0] = "  {\n   " + _encode(keys[0]) + ": "
    row.append("\n  },\n")
    parts = row * len(columns[0])
    for i, col in enumerate(columns):
        parts[2 * i + 1 :: len(row)] = col
    parts[-1] = "\n  }\n ]"
    return "[\n" + "".join(parts)


def save_network(fp, arch: Architecture, theta: ParamVector) -> None:
    _check_bound(arch, theta)
    enc = list(map(_encode, arch.ids))
    acts = [
        _KPOOL(int.__repr__(tag[1])) if isinstance(tag, tuple) else _encode(tag)
        for tag in arch.tags
    ]
    vec = theta.vec.tolist()
    edges = [
        list(map(enc.__getitem__, arch.src.tolist())),
        list(map(enc.__getitem__, arch.dst.tolist())),
        list(map(float.__repr__, vec[: arch.n_edges])),
    ]
    biases = [f"{enc[j]}: {float.__repr__(vec[arch.bias_coord[j]])}" for j in arch.non_input_pos]
    text = "".join((
        '{\n "neurons": ', _list(("id", "activation"), [enc, acts]),
        ',\n "edges": ', _list(("src", "dst", "weight"), edges),
        ',\n "biases": ', "{\n  " + ",\n  ".join(biases) + "\n }" if biases else "{}",
        "\n}\n",
    ))
    with _opened(fp, "w") as fh:
        fh.write(text)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _walk_neurons(entries) -> None:
    for item in entries:
        if not isinstance(item, dict) or "id" not in item or "activation" not in item:
            raise ParseError(f"malformed neuron entry {item!r}")
        extra = set(item) - {"id", "activation"}
        if extra:
            hint = "; biases belong in the top-level 'biases' table" if "bias" in extra else ""
            raise ParseError(f"unknown key(s) {sorted(extra)} in neuron entry {item['id']!r}{hint}")


def _walk_edges(entries) -> None:
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


def _columns(entries: list, keys: tuple, walk) -> list:
    """One list per key of the entries' values.  When an entry is not a
    dict with exactly these keys, ``walk`` raises naming the first bad one."""
    try:
        if set(map(type, entries)) <= {dict} and set(map(len, entries)) <= {len(keys)}:
            return [list(map(itemgetter(k), entries)) for k in keys]
    except KeyError:
        pass
    walk(entries)
    return [list(map(itemgetter(k), entries)) for k in keys]


def _weights(values: list, entries: list) -> np.ndarray:
    """The edge weights as float64.  On a non-number or an integer too large
    for a float, the walk over the edge entries names the first bad one."""
    if set(map(type, values)) <= {int, float}:
        try:
            return np.fromiter(map(float, values), dtype=np.float64, count=len(values))
        except OverflowError:
            pass
    _walk_edges(entries)
    return np.fromiter(map(float, values), dtype=np.float64, count=len(values))


def load_network(fp):
    """Read a network file; returns (architecture, parameters)."""
    with _opened(fp, "r") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    for key in ("neurons", "edges"):
        if key not in doc or not isinstance(doc[key], list):
            raise ParseError(f"missing or malformed {key!r} list")
    ids, acts = _columns(doc["neurons"], ("id", "activation"), _walk_neurons)
    src, dst, ws = _columns(doc["edges"], ("src", "dst", "weight"), _walk_edges)
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

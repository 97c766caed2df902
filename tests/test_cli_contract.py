"""The command-line contract, swept over a seeded corpus of damaged network
files: every command either exits 0 printing only finite numbers, or
prints ``error: ...`` and exits 1.  No exception escapes ``main`` and no
warning is raised."""

import json
import math
import warnings

import numpy as np

from pathlift.builders import random_dag, random_params, same_sign_partner
from pathlift.cli import main
from pathlift.netfile import save_network

from conftest import chain3

# what a damaged field may hold
VALUES = (None, "x", math.nan, 1e308, -1e308, 1e-320, 10**400, True, [1.0])


def _pick(rng, items):
    return items[int(rng.integers(len(items)))]


def _mutate(doc: dict, rng) -> None:
    """One damage to a network document: a field's value replaced, a kpool
    arity of 0, 1.5 or 99, a neuron or edge entry duplicated or deleted, a
    bias deleted, or a bias added for an input or an unknown id."""
    kind = int(rng.integers(5))
    if kind == 0:
        table = doc[_pick(rng, ("neurons", "edges", "biases"))]
        if isinstance(table, dict):
            if table:
                table[_pick(rng, list(table))] = _pick(rng, VALUES)
        elif table:
            entry = _pick(rng, table)
            entry[_pick(rng, list(entry))] = _pick(rng, VALUES)
    elif kind == 1:
        if doc["neurons"]:
            _pick(rng, doc["neurons"])["activation"] = {"kpool": _pick(rng, (0, 1.5, 99))}
    elif kind == 2:
        table = doc[_pick(rng, ("neurons", "edges"))]
        if table:
            i = int(rng.integers(len(table)))
            if rng.random() < 0.5:
                table.append(dict(table[i]))
            else:
                del table[i]
    elif kind == 3:
        if doc["biases"]:
            del doc["biases"][_pick(rng, list(doc["biases"]))]
    else:
        inputs = [n["id"] for n in doc["neurons"] if n["activation"] == "input"]
        doc["biases"][_pick(rng, inputs + ["no-such-neuron"])] = 0.5


def _chain_files(tmp_path):
    """The relu chain in->m1->m2->out: weights (1e154, 1e154, 1) against
    (3e153, 1e154, 1), whose coarse upper bound overflows, and weights
    (1e308, 1, 1), which a rescaling of m1 by more than 1 overflows."""
    nets = {
        "a": chain3((1e154, 1e154, 1.0), (0.5, -0.5, 0.0)),
        "b": chain3((3e153, 1e154, 1.0), (0.1, -0.9, 0.0)),
        "c": chain3((1e308, 1.0, 1.0), (0.0, 0.0, 0.0)),
    }
    for name, net in nets.items():
        save_network(tmp_path / f"{name}.json", *net)
    a, b, c = (str(tmp_path / f"{name}.json") for name in nets)
    return [(a, b, 1), (b, a, 1), (c, c, 1)]


def _damaged_files(tmp_path, n: int, seed: int):
    """(damaged file, undamaged same-sign partner file, input count) for n
    random DAGs, each file damaged once or twice."""
    files = []
    for k, child in enumerate(np.random.SeedSequence(seed).spawn(n)):
        rng = np.random.default_rng(child)
        arch = random_dag(rng)
        theta = random_params(arch, rng)
        path, partner = tmp_path / f"net{k}.json", tmp_path / f"partner{k}.json"
        save_network(partner, arch, same_sign_partner(theta, rng))
        save_network(path, arch, theta)
        doc = json.loads(path.read_text())
        for _ in range(1 + int(rng.integers(2))):
            _mutate(doc, rng)
        path.write_text(json.dumps(doc))
        files.append((str(path), str(partner), arch.d_in))
    return files


def _commands(path: str, other: str, d_in: int):
    yield ["eval", path, "--input", *["0.5"] * d_in]
    for q in ("1", "3"):
        yield ["pathnorm", path, "--q", q]
    for flag in (["--lower"], ["--exact"], ["--upper"], ["--upper", "refined"], ["--oracle"], []):
        yield ["pathmetric", path, other, *flag]
    yield ["prune", path, "--count", "1"]
    yield ["prune", path, "--count", "1", "--method", "brute"]
    yield ["rescale", path, "--seed", "1"]
    yield ["normalize", path, "--include-kpool"]


def _numbers(text: str) -> list:
    """Every whitespace-separated token of ``text`` that parses as a float
    (inf and nan included; words such as "dominance" do not parse)."""
    found = []
    for token in text.split():
        try:
            found.append(float(token))
        except ValueError:
            pass
    return found


def test_every_command_keeps_the_contract_on_damaged_files(tmp_path, capsys):
    cases = _chain_files(tmp_path) + _damaged_files(tmp_path, 40, seed=0)
    failures = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for case in cases:
            for argv in _commands(*case):
                try:
                    code = main(argv)
                except (Exception, SystemExit) as exc:
                    failures.append((argv, f"escaped main: {exc!r}"))
                    capsys.readouterr()
                    continue
                out, err = capsys.readouterr()
                if code == 0 and not all(map(math.isfinite, _numbers(out))):
                    failures.append((argv, f"exit 0 with {out!r}"))
                elif code == 1 and not err.startswith("error: "):
                    failures.append((argv, f"exit 1 with {err!r}"))
                elif code not in (0, 1):
                    failures.append((argv, f"exit {code}"))
    assert not failures, failures[:10]

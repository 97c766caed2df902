"""Network file round trips, schema errors, and the command-line front end."""

import io
import json
import re

import numpy as np
import pytest

from pathlift.builders import mlp_architecture, random_dag, random_params
from pathlift.cli import main
from pathlift.errors import ArchitectureError, DanglingEdge, ParseError
from pathlift.experiment import ExperimentConfig, run_experiment
from pathlift.graph import Architecture, ParamVector, forward
from pathlift.netfile import load_network, save_network
from pathlift.pruning import obd_fd_scores

from conftest import bias, diamond_arch, diamond_theta, pool_arch, pool_theta, replaced


def _write_diamond(tmp_path, name="net.json"):
    arch = diamond_arch()
    theta = diamond_theta(arch)
    path = tmp_path / name
    save_network(path, arch, theta)
    return path, arch, theta


def test_round_trip_diamond(tmp_path):
    path, arch, theta = _write_diamond(tmp_path)
    arch2, theta2 = load_network(path)
    assert arch2 == arch
    np.testing.assert_array_equal(theta2.vec, theta.vec)


def test_round_trip_random_networks(tmp_path):
    for seed in range(6):
        rng = np.random.default_rng(seed)
        arch = random_dag(rng, p_kpool=0.4)
        theta = random_params(arch, rng, zero_frac=0.1)
        # awkward magnitudes exercise the shortest-repr float serialization
        theta = ParamVector(arch, theta.vec * rng.uniform(1e-7, 1e7, size=arch.n_coords))
        path = tmp_path / f"net{seed}.json"
        save_network(path, arch, theta)
        arch2, theta2 = load_network(path)
        assert arch2 == arch
        np.testing.assert_array_equal(theta2.vec, theta.vec)


def test_round_trip_file_objects():
    arch = pool_arch()
    theta = pool_theta(arch)
    buf = io.StringIO()
    save_network(buf, arch, theta)
    buf.seek(0)
    arch2, theta2 = load_network(buf)
    assert arch2 == arch
    np.testing.assert_array_equal(theta2.vec, theta.vec)


def test_unknown_activation_rejected(tmp_path):
    doc = {
        "neurons": [{"id": "a", "activation": "input"}, {"id": "b", "activation": "gelu"}],
        "edges": [{"src": "a", "dst": "b", "weight": 1.0}],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ArchitectureError):
        load_network(path)


def test_dangling_edge_rejected(tmp_path):
    doc = {
        "neurons": [{"id": "a", "activation": "input"}, {"id": "b", "activation": "identity"}],
        "edges": [{"src": "a", "dst": "ghost", "weight": 1.0}],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(DanglingEdge):
        load_network(path)


def test_malformed_documents_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        load_network(path)
    path.write_text(json.dumps([1, 2, 3]))
    with pytest.raises(ParseError):
        load_network(path)
    path.write_text(json.dumps({"neurons": []}))
    with pytest.raises(ParseError):
        load_network(path)
    path.write_text(json.dumps({"neurons": [{"id": "a"}], "edges": []}))
    with pytest.raises(ParseError):
        load_network(path)


def test_bool_weight_rejected(tmp_path):
    doc = {
        "neurons": [{"id": "a", "activation": "input"}, {"id": "b", "activation": "identity"}],
        "edges": [{"src": "a", "dst": "b", "weight": True}],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError):
        load_network(path)
    doc["edges"][0]["weight"] = 1.0
    doc["biases"] = {"b": True}
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError):
        load_network(path)


def test_unknown_keys_rejected(tmp_path):
    doc = {
        "neurons": [{"id": "a", "activation": "input"},
                    {"id": "b", "activation": "identity", "bias": 0.25}],
        "edges": [{"src": "a", "dst": "b", "weight": 2.5}],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match="biases belong"):
        load_network(path)
    doc["neurons"][1] = {"id": "b", "activation": "identity"}
    doc["edges"][0]["label"] = "skip"
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match="unknown key"):
        load_network(path)


def test_biases_default_to_zero(tmp_path):
    doc = {
        "neurons": [{"id": "a", "activation": "input"}, {"id": "b", "activation": "identity"}],
        "edges": [{"src": "a", "dst": "b", "weight": 2.5}],
    }
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    arch, theta = load_network(path)
    np.testing.assert_array_equal(theta.vec, [2.5, 0.0])


def test_kpool_bias_pinned_on_load(tmp_path):
    doc = {
        "neurons": [
            {"id": "in1", "activation": "input"},
            {"id": "in2", "activation": "input"},
            {"id": "m", "activation": {"kpool": 1}},
            {"id": "out", "activation": "identity"},
        ],
        "edges": [
            {"src": "in1", "dst": "m", "weight": 2.0},
            {"src": "in2", "dst": "m", "weight": -3.0},
            {"src": "m", "dst": "out", "weight": 1.0},
        ],
        "biases": {"m": 5.0, "out": 0.25},
    }
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    arch, theta = load_network(path)
    assert bias(theta, "m") == 0.0
    assert bias(theta, "out") == 0.25


def _huge_integer_doc(tmp_path, where):
    big = "1" + "0" * 400
    weight, bias = (big, "0.5") if where == "weight" else ("2.5", big)
    path = tmp_path / "huge.json"
    path.write_text(
        '{"neurons": [{"id": "a", "activation": "input"}, {"id": "b", "activation": "identity"}],'
        f' "edges": [{{"src": "a", "dst": "b", "weight": {weight}}}], "biases": {{"b": {bias}}}}}'
    )
    return path


@pytest.mark.parametrize("where", ["weight", "bias"])
def test_huge_integer_is_a_parse_error(tmp_path, capsys, where):
    path = _huge_integer_doc(tmp_path, where)
    with pytest.raises(ParseError, match="too large for a float"):
        load_network(path)
    assert main(["eval", str(path), "--input", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "too large for a float" in captured.err


def test_first_bad_entry_is_named(tmp_path):
    doc = {
        "neurons": [{"id": "a", "activation": "input"}, {"id": "b", "activation": "identity"}],
        "edges": [
            {"src": "a", "dst": "b", "weight": 1.0},
            {"src": "a", "dst": "b", "weight": "heavy"},
            {"src": "a", "dst": "b", "weight": 1.0, "label": "skip"},
        ],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match="edge weight must be a number.*heavy"):
        load_network(path)
    doc["edges"][1]["weight"] = 10**400
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match="too large for a float"):
        load_network(path)
    doc["edges"][1]["weight"] = 2.0
    doc["neurons"].append("c")
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match="malformed neuron entry 'c'"):
        load_network(path)


def test_a_misspelled_weight_key_or_a_bias_list_is_a_parse_error(tmp_path):
    doc = {
        "neurons": [{"id": "a", "activation": "input"}, {"id": "b", "activation": "identity"}],
        "edges": [{"src": "a", "dst": "b", "weight": 1.0}, {"src": "a", "dst": "b", "wieght": 2.0}],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match="malformed edge entry .*wieght"):
        load_network(path)
    doc["edges"].pop()
    doc["biases"] = [0.5]
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match="'biases' must map neuron ids to numbers"):
        load_network(path)


# ---- command line ----------------------------------------------------------


def test_cli_eval(tmp_path, capsys):
    path, _, _ = _write_diamond(tmp_path)
    assert main(["eval", str(path), "--input", "1"]) == 0
    assert capsys.readouterr().out.strip() == "3.0"
    assert main(["eval", str(path), "--input", "1", "--trace"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "in\t1.0"
    assert lines[-1] == "3.0"
    assert len(lines) == 5


def test_cli_pathnorm(tmp_path, capsys):
    path, _, _ = _write_diamond(tmp_path)
    dump = tmp_path / "paths.tsv"
    assert main(["pathnorm", str(path), "--dump", str(dump)]) == 0
    assert capsys.readouterr().out.strip() == "5.0"
    table = dump.read_text().strip().splitlines()
    assert table[0] == "path\tvalue"
    assert len(table) == 6
    assert main(["pathnorm", str(path), "--q", "2"]) == 0
    assert capsys.readouterr().out.strip() == "13.0"


def test_cli_pathmetric(tmp_path, capsys):
    path, arch, theta = _write_diamond(tmp_path)
    other = tmp_path / "other.json"
    save_network(other, arch, replaced(theta, {2: 0.0}))
    assert main(["pathmetric", str(path), str(other)]) == 0
    report = capsys.readouterr().out
    assert "oracle" in report and "lower" in report
    for flag, expect in [("--lower", "3.0"), ("--exact", "3.0"), ("--oracle", "3.0")]:
        assert main(["pathmetric", str(path), str(other), flag]) == 0
        assert capsys.readouterr().out.strip() == expect
    assert main(["pathmetric", str(path), str(other), "--upper"]) == 0
    assert capsys.readouterr().out.strip() == "24.0"
    assert main(["pathmetric", str(path), str(other), "--upper", "refined"]) == 0
    assert capsys.readouterr().out.strip() == "3.0"


def test_cli_pathmetric_exact_needs_matching_signs(tmp_path, capsys):
    arch = Architecture([("in", "input"), ("out", "identity")], [("in", "out")])
    path, other = tmp_path / "a.json", tmp_path / "b.json"
    save_network(path, arch, ParamVector(arch, [1.0, 0.0]))
    save_network(other, arch, ParamVector(arch, [-0.5, 0.0]))
    assert main(["pathmetric", str(path), str(other), "--exact"]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["pathmetric", str(path), str(other)]) == 0
    assert "exact          (dominance unverified)" in capsys.readouterr().out


def test_cli_pathnorm_rejects_bad_q(tmp_path, capsys):
    path, _, _ = _write_diamond(tmp_path)
    for q in ("0", "-1", "inf", "nan"):
        assert main(["pathnorm", str(path), "--q", q]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: q must be" in captured.err


def test_cli_pathmetric_arch_mismatch(tmp_path, capsys):
    path, _, _ = _write_diamond(tmp_path)
    other = tmp_path / "other.json"
    arch = pool_arch()
    save_network(other, arch, pool_theta(arch))
    assert main(["pathmetric", str(path), str(other)]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_prune(tmp_path, capsys):
    path, _, _ = _write_diamond(tmp_path)
    out = tmp_path / "pruned.json"
    assert main(["prune", str(path), "--count", "2", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "pruned 2 coordinate(s)" in text
    assert "in->h2\t2.0\tyes" in text
    arch, pruned = load_network(out)
    np.testing.assert_array_equal(pruned.vec, [1.0, 0.0, 3.0, 0.0, 0.0, 0.0, 0.0])


def test_cli_prune_obd_needs_data(tmp_path, capsys):
    path, _, _ = _write_diamond(tmp_path)
    assert main(["prune", str(path), "--criterion", "obd", "--count", "1"]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_prune_obd_with_data(tmp_path, capsys):
    path, _, _ = _write_diamond(tmp_path)
    csv = tmp_path / "batch.csv"
    csv.write_text("0.5,0.2\n1.0,-0.4\n-0.25,0.0\n")
    assert main(["prune", str(path), "--criterion", "obd", "--count", "1",
                 "--data", str(csv)]) == 0
    assert "pruned 1 coordinate(s)" in capsys.readouterr().out


def test_cli_prune_obd_refuses_a_nan_target(tmp_path, capsys):
    path, _, _ = _write_diamond(tmp_path)
    csv = tmp_path / "batch.csv"
    csv.write_text("0.5,0.2\n1.0,nan\n-0.25,0.0\n")
    assert main(["prune", str(path), "--criterion", "obd", "--count", "2",
                 "--data", str(csv)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "target" in captured.err


@pytest.mark.parametrize("label", ["nan", "0.7"])
def test_cli_prune_refuses_a_label_that_is_no_class(tmp_path, capsys, label):
    arch = mlp_architecture((1, 3, 1))
    path = tmp_path / "net.json"
    save_network(path, arch, random_params(arch, np.random.default_rng(0)))
    csv = tmp_path / "batch.csv"
    csv.write_text(f"0.5,1\n1.0,{label}\n-0.25,0\n")
    code = main(["prune", str(path), "--criterion", "obd", "--count", "2",
                 "--loss", "logistic", "--data", str(csv)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"error: {csv}: data row 2: class label {float(label)!r} is not a whole number in the int64 range\n"


def test_cli_prune_obd_with_logistic_labels(tmp_path, capsys):
    arch = mlp_architecture((1, 3, 1))
    theta = random_params(arch, np.random.default_rng(0))
    path = tmp_path / "net.json"
    save_network(path, arch, theta)
    csv = tmp_path / "batch.csv"
    csv.write_text("0.5,1\n1.0,0\n-0.25,1\n")
    assert main(["prune", str(path), "--criterion", "obd", "--count", "2",
                 "--loss", "logistic", "--data", str(csv)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "pruned 2 coordinate(s)"
    data = ([[0.5], [1.0], [-0.25]], np.array([1, 0, 1]))
    expected = obd_fd_scores(arch, theta, data, loss="logistic").values
    assert [float(line.split("\t")[1]) for line in lines[2:]] == expected.tolist()


@pytest.mark.parametrize("loss, wanted", [
    ("squared_error", "1 input columns plus 1 target columns"),
    ("logistic", "1 input columns plus one label column"),
])
def test_cli_prune_obd_refuses_a_batch_with_the_wrong_column_count(tmp_path, capsys, loss, wanted):
    path, _, _ = _write_diamond(tmp_path)
    csv = tmp_path / "batch.csv"
    csv.write_text("0.5,1,0\n1.0,0,1\n")
    assert main(["prune", str(path), "--criterion", "obd", "--count", "1",
                 "--loss", loss, "--data", str(csv)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: expected {wanted}\n"


def test_cli_prune_csv_with_header_is_a_parse_error(tmp_path, capsys):
    path, _, _ = _write_diamond(tmp_path)
    csv = tmp_path / "batch.csv"
    csv.write_text("x,target\n0.5,0.2\n1.0,-0.4\n")
    assert main(["prune", str(path), "--criterion", "obd", "--count", "1",
                 "--data", str(csv)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "batch.csv" in err


def test_cli_rescale_explicit_factor(tmp_path, capsys):
    path, arch, theta = _write_diamond(tmp_path)
    out = tmp_path / "rescaled.json"
    assert main(["rescale", str(path), "--factor", "h1=2", "--out", str(out)]) == 0
    assert "h1\t2.0" in capsys.readouterr().out
    arch2, theta2 = load_network(out)
    np.testing.assert_array_equal(theta2.vec, [2.0, -2.0, 1.5, 1.0, 0.0, 0.0, 0.0])
    np.testing.assert_array_equal(forward(arch2, theta2, [1.0]), forward(arch, theta, [1.0]))


def test_cli_rescale_seeded(tmp_path, capsys):
    path, arch, theta = _write_diamond(tmp_path)
    out = tmp_path / "rescaled.json"
    assert main(["rescale", str(path), "--seed", "7", "--out", str(out)]) == 0
    arch2, theta2 = load_network(out)
    np.testing.assert_array_equal(forward(arch2, theta2, [0.5]), forward(arch, theta, [0.5]))


def test_cli_rescale_requires_seed_or_factor(tmp_path, capsys):
    path, _, _ = _write_diamond(tmp_path)
    assert main(["rescale", str(path)]) == 1
    assert "either --seed or --factor" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, message",
    [
        (["--factor", "h1"], "expected NEURON=FACTOR, got 'h1'"),
        (["--seed", "1", "--preset", "log_uniform:abc"], "bad preset 'log_uniform:abc'"),
    ],
)
def test_cli_rescale_refuses_a_factor_without_a_value_or_a_bad_preset(tmp_path, capsys, args, message):
    path, _, _ = _write_diamond(tmp_path)
    assert main(["rescale", str(path), *args]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_cli_normalize(tmp_path, capsys):
    path, arch, theta = _write_diamond(tmp_path)
    assert main(["normalize", str(path)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "in->h1\t1.0"
    out = tmp_path / "normalized.json"
    assert main(["normalize", str(path), "--out", str(out)]) == 0
    arch2, theta2 = load_network(out)
    np.testing.assert_array_equal(forward(arch2, theta2, [2.0]), forward(arch, theta, [2.0]))


def test_cli_verify_lipschitz(capsys):
    assert main(["verify-lipschitz", "--seed", "5", "--cases", "10"]) == 0
    out = capsys.readouterr().out
    assert "10/10 hold (main variant)" in out
    assert main(["verify-lipschitz", "--seed", "5", "--cases", "5", "--variant", "split"]) == 0
    assert "5/5 hold (split variant)" in capsys.readouterr().out


def test_cli_witness(capsys):
    assert main(["witness", "--equality", "2", "2", "1", "1"]) == 0
    out = capsys.readouterr().out
    assert "predicted |a^d - b^d| * x0 = 3.0" in out
    assert "holds" in out
    assert main(["witness", "--counterexample"]) == 0
    out = capsys.readouterr().out
    assert "path metric      0.0" in out
    assert "|output gap|     1.0" in out


def test_cli_usage_errors(tmp_path):
    path, _, _ = _write_diamond(tmp_path)
    with pytest.raises(SystemExit) as err:
        main(["prune", str(path)])  # --amount/--count missing
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == 2


def test_cli_experiment_tiny(capsys):
    assert main([
        "experiment", "--seed", "0", "--epochs", "8", "--rewind-epoch", "2",
        "--n-train", "60", "--n-test", "40", "--widths", "2,4,2",
        "--batch-size", "32", "--criteria", "pathmag",
    ]) == 0
    out = capsys.readouterr().out
    assert "dense" in out
    assert "pathmag" in out


def test_cli_tables_are_byte_exact(tmp_path, capsys):
    path, _, _ = _write_diamond(tmp_path)
    assert main(["prune", str(path), "--count", "2"]) == 0
    assert capsys.readouterr().out == (
        "pruned 2 coordinate(s)\ncoordinate\tscore\tpruned\n"
        "in->h1\t3.0\t\nin->h2\t2.0\tyes\nh1->out\t3.0\t\nh2->out\t2.0\tyes\n"
        "bias(h1)\t0.0\t\nbias(h2)\t0.0\t\nbias(out)\t0.0\t\n"
    )
    assert main(["normalize", str(path)]) == 0
    assert capsys.readouterr().out == (
        "in->h1\t1.0\nin->h2\t-1.0\nh1->out\t3.0\nh2->out\t2.0\n"
        "bias(h1)\t0.0\nbias(h2)\t0.0\nbias(out)\t0.0\n"
    )


def test_cli_eval_reads_negative_numbers_in_scientific_notation(tmp_path, capsys):
    arch = mlp_architecture((5, 3, 2))
    theta = random_params(arch, np.random.default_rng(6))
    path = tmp_path / "net.json"
    save_network(path, arch, theta)
    assert main(["eval", str(path), "--input", "1.0", "-5e-05", "-3", "-.5", "-1E+3"]) == 0
    want = forward(arch, theta, [1.0, -5e-05, -3.0, -0.5, -1e3])
    assert capsys.readouterr().out == " ".join(repr(float(v)) for v in want) + "\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["experiment", "--seed", "0", "--batch-size", "0"],
        ["experiment", "--seed", "0", "--batch-size", "-1"],
        ["experiment", "--seed", "0", "--n-train", "0"],
        ["experiment", "--seed", "0", "--n-test", "0"],
        ["rescale", "NET", "--seed", "0", "--preset", "log_uniform:inf"],
        ["rescale", "NET", "--seed", "0", "--preset", "log_uniform:1e309"],
        ["experiment", "--seed", "-1"],
        ["rescale", "NET", "--seed", "-1"],
        ["verify-lipschitz", "--seed", "-1"],
        ["verify-lipschitz", "--seed", "0", "--cases", "-1"],
        ["verify-lipschitz", "--seed", "0", "--cases", "0"],
        ["experiment", "--seed", "0", "--widths", "2,x"],
        ["experiment", "--seed", "0", "--widths", "2,2.5,2"],
        ["experiment", "--seed", "0", "--criteria", "pathmag,pathmag"],
        ["experiment", "--seed", "0", "--preset", "bogus"],
        ["witness", "--equality", "nan", "2", "1", "1"],
        ["witness", "--equality", "inf", "2", "1", "1"],
        ["witness", "--equality", "2.5", "2", "1", "1"],
        ["witness", "--equality", "0", "2", "1", "1"],
        ["experiment", "--seed", "0", "--epochs", "2", "--rewind-epoch", "1", "--lr", "-1"],
        ["experiment", "--seed", "0", "--epochs", "2", "--rewind-epoch", "1", "--lr", "0"],
        ["experiment", "--seed", "0", "--epochs", "2", "--rewind-epoch", "1", "--lr", "inf"],
        ["experiment", "--seed", "0", "--epochs", "2", "--rewind-epoch", "1", "--lr", "nan"],
    ],
)
def test_cli_rejects_out_of_range_values(tmp_path, capsys, argv):
    path, _, _ = _write_diamond(tmp_path)
    assert main([str(path) if a == "NET" else a for a in argv]) == 1
    err = capsys.readouterr().err
    assert "error:" in err
    assert "Traceback" not in err


def test_cli_experiment_defaults_are_the_config_defaults(capsys):
    argv = ["experiment", "--seed", "0", "--epochs", "4", "--rewind-epoch", "1", "--n-train", "60", "--n-test", "40"]
    assert main(argv) == 0
    want = run_experiment(ExperimentConfig(seed=0, epochs=4, rewind_epoch=1, n_train=60, n_test=40)).render()
    elapsed = re.compile(r"\(\d+\.\ds\)")
    assert elapsed.sub("", capsys.readouterr().out) == elapsed.sub("", want) + "\n"

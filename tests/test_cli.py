import argparse
import csv
import io
import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qamlab
from qamlab import (DiscreteMeasureSpace, SimpleFunctionMatrix, block_witness_search,
                    full_witness_search, generator_from_json, run_diagnostics,
                    run_finite_measure_suite, run_probability_suite)
from qamlab.cli import _to_csv, _to_json, build_parser, main


def write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def docs(tmp_path):
    return {
        "exp1": write(tmp_path / "exp1.json", {"family": "exp", "k": 1.0}),
        "exp2": write(tmp_path / "exp2.json", {"family": "exp", "k": 2.0}),
        "double_exp1": write(tmp_path / "f.json", {"family": "exp", "k": 1.0, "scale": 2.0}),
        "shifted": write(
            tmp_path / "shifted.json", {"family": "exp", "k": 1.0, "affine": {"a": 1.0, "b": 1.0}}
        ),
        "pow2": write(tmp_path / "pow2.json", {"family": "power", "p": 2.0}),
        "unit2": write(tmp_path / "unit2.json", {"weights": [1.0, 1.0]}),
        "tiny2": write(tmp_path / "tiny2.json", {"weights": [0.1, 0.1]}),
        "h": write(tmp_path / "h.json", {"values": [[0.0, math.log(2)], [math.log(3), math.log(4)]]}),
        "h_zero": write(tmp_path / "h0.json", {"values": [[0.0, 0.0], [0.0, 0.0]]}),
        "h_neg": write(tmp_path / "hneg.json", {"values": [[1.0, -3.0], [2.0, 4.0]]}),
        "tmp": tmp_path,
    }


def run_check(docs, f, g, h, *extra):
    return main(
        ["check", "--f", docs[f], "--g", docs[g],
         "--space-x", docs["unit2"], "--space-y", docs["unit2"], "--h", docs[h], *extra]
    )


class TestCheck:
    def test_proportional_pair_passes(self, docs, capsys):
        code = run_check(docs, "double_exp1", "exp1", "h")
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] is True
        assert report["rel_residual"] <= 1e-8

    def test_non_commuting_pair_fails(self, docs, capsys):
        code = run_check(docs, "exp2", "exp1", "h")
        assert code == 1
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] is False
        assert report["rel_residual"] > 1e-8

    def test_value_outside_domain_is_malformed_input(self, docs, capsys):
        code = run_check(docs, "pow2", "pow2", "h_neg")
        assert code == 2
        assert "domain" in capsys.readouterr().err

    def test_numeric_range_failure_reports_stage(self, docs, capsys):
        code = main(
            ["check", "--f", docs["shifted"], "--g", docs["exp1"],
             "--space-x", docs["tiny2"], "--space-y", docs["unit2"], "--h", docs["h_zero"]]
        )
        assert code == 3
        assert "stage" in capsys.readouterr().err

    def test_range_failure_on_the_rhs_only(self, docs, capsys):
        # the lhs is ln 1.2; the inner X-mean of the rhs falls below f's range (1, inf)
        wide = write(docs["tmp"] / "wide5.json", {"weights": [5.0, 5.0]})
        code = main(
            ["check", "--f", docs["shifted"], "--g", docs["exp1"],
             "--space-x", docs["tiny2"], "--space-y", wide, "--h", docs["h_zero"]]
        )
        assert code == 3
        assert "inner-X" in capsys.readouterr().err

    def test_missing_file(self, docs, capsys):
        code = main(
            ["check", "--f", str(docs["tmp"] / "absent.json"), "--g", docs["exp1"],
             "--space-x", docs["unit2"], "--space-y", docs["unit2"], "--h", docs["h"]]
        )
        assert code == 2

    def test_malformed_json(self, docs, capsys):
        bad = docs["tmp"] / "bad.json"
        bad.write_text("{not json")
        code = main(
            ["check", "--f", str(bad), "--g", docs["exp1"],
             "--space-x", docs["unit2"], "--space-y", docs["unit2"], "--h", docs["h"]]
        )
        assert code == 2

    def test_shape_mismatch(self, docs, capsys):
        wide = write(docs["tmp"] / "wide.json", {"values": [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]})
        code = main(
            ["check", "--f", docs["exp1"], "--g", docs["exp2"],
             "--space-x", docs["unit2"], "--space-y", docs["unit2"], "--h", wide]
        )
        assert code == 2

    def test_ragged_h_is_malformed_input(self, docs, capsys):
        # numpy's "inhomogeneous shape" text named no field
        ragged = write(docs["tmp"] / "ragged.json", {"values": [[0.0, 0.0], [0.0]]})
        code = main(
            ["check", "--f", docs["exp1"], "--g", docs["exp2"],
             "--space-x", docs["unit2"], "--space-y", docs["unit2"], "--h", ragged]
        )
        out = capsys.readouterr()
        assert code == 2
        assert out.out == ""
        assert out.err == "input error: simple-function values must form a non-empty 2-D grid\n"

    @pytest.mark.parametrize("weights", [[[1.0], [2.0, 3.0]], [1.0, [2.0]]], ids=["ragged-rows", "number-and-row"])
    def test_ragged_space_is_malformed_input(self, docs, capsys, weights):
        ragged = write(docs["tmp"] / "ragged-space.json", {"weights": weights})
        code = main(
            ["check", "--f", docs["exp1"], "--g", docs["exp2"],
             "--space-x", ragged, "--space-y", docs["unit2"], "--h", docs["h"]]
        )
        out = capsys.readouterr()
        assert code == 2
        assert out.out == ""
        assert out.err == "input error: weights must be a non-empty one-dimensional sequence\n"

    def test_csv_format(self, docs, capsys):
        code = run_check(docs, "double_exp1", "exp1", "h", "--format", "csv")
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert "rel_residual" in lines[0]

    def test_output_file(self, docs):
        out = docs["tmp"] / "report.json"
        code = run_check(docs, "double_exp1", "exp1", "h", "--out", str(out))
        assert code == 0
        assert json.loads(out.read_text())["pass"] is True

    def test_unwritable_output_is_malformed_input(self, docs, capsys):
        # a directory cannot be written as a file
        code = run_check(docs, "double_exp1", "exp1", "h", "--out", str(docs["tmp"]))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and err.count("\n") == 1


class TestWitness:
    def test_non_proportional_pair_found(self, docs, capsys):
        code = main(
            ["witness", "--f", docs["exp1"], "--g", docs["exp2"],
             "--space-x", docs["unit2"], "--space-y", docs["unit2"]]
        )
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "block"
        assert doc["rel_residual"] >= 1e-4

    def test_proportional_pair_none(self, docs, capsys):
        code = main(
            ["witness", "--f", docs["double_exp1"], "--g", docs["exp1"],
             "--space-x", docs["unit2"], "--space-y", docs["unit2"]]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out) == "none"

    def test_worker_counts_emit_identical_bytes(self, docs):
        out1 = docs["tmp"] / "w1.json"
        out3 = docs["tmp"] / "w3.json"
        for out, workers in ((out1, "1"), (out3, "3")):
            code = main(
                ["witness", "--f", docs["exp1"], "--g", docs["exp2"],
                 "--space-x", docs["unit2"], "--space-y", docs["unit2"],
                 "--workers", workers, "--out", str(out)]
            )
            assert code == 1
        assert out1.read_bytes() == out3.read_bytes()

    def test_larger_spaces_use_matrix_search(self, docs, capsys):
        space3 = write(docs["tmp"] / "s3.json", {"weights": [1.0, 1.0, 1.0]})
        code = main(
            ["witness", "--f", docs["exp1"], "--g", docs["exp2"],
             "--space-x", space3, "--space-y", docs["unit2"], "--grid", "7"]
        )
        assert code == 1
        assert json.loads(capsys.readouterr().out)["kind"] == "matrix"

    def test_linear_spacing_flag(self, docs, capsys):
        code = main(
            ["witness", "--f", docs["exp1"], "--g", docs["exp2"],
             "--space-x", docs["unit2"], "--space-y", docs["unit2"],
             "--spacing", "linear", "--range=-2:2", "--grid", "9"]
        )
        assert code == 1

    @pytest.mark.parametrize("threshold", ["nan", "0", "inf"])
    def test_bad_threshold_is_malformed_input(self, docs, capsys, threshold):
        # nan or inf would hide every witness, 0 would report rounding noise as one
        code = main(
            ["witness", "--f", docs["exp1"], "--g", docs["exp2"],
             "--space-x", docs["unit2"], "--space-y", docs["unit2"],
             "--threshold", threshold]
        )
        assert code == 2
        assert "threshold" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["0", "-3"])
    @pytest.mark.parametrize("y_weights", [[1.0, 1.0], [1.0, 1.0, 1.0]], ids=["block", "full"])
    def test_workers_below_one_is_malformed_input(self, docs, capsys, workers, y_weights):
        space_y = write(docs["tmp"] / "y.json", {"weights": y_weights})
        code = main(
            ["witness", "--f", docs["exp1"], "--g", docs["exp2"], "--space-x", docs["unit2"],
             "--space-y", space_y, "--grid", "5", "--workers", workers]
        )
        assert code == 2
        assert "workers" in capsys.readouterr().err


class TestSuiteAndPhi:
    def test_suite_passes(self, docs, capsys):
        code = main(["suite", "--seed", "7", "--out", str(docs["tmp"] / "suite.json")])
        assert code == 0
        doc = json.loads((docs["tmp"] / "suite.json").read_text())
        assert doc["pass"] is True
        assert {s["suite"] for s in doc["summaries"]} == {
            "finite-measure-proportional", "probability-affine",
        }
        assert len(doc["rows"]) == sum(s["cases"] for s in doc["summaries"])

    def test_suite_json_writer_is_the_indented_dump(self):
        fm = run_finite_measure_suite(seed=3, pairs_per_combo=2, h_per_pair=2)
        odd = {"case": -1, "f": 'a "quoted"\nname', "lhs": float("nan"), "pass": False, "rhs": 1e300}
        documents = [
            {"command": "suite", "seed": 3, "summaries": [fm.summary()], "rows": fm.rows, "pass": True},
            {"command": "suite", "seed": 3, "summaries": [], "rows": [odd, odd], "pass": False},
            {"command": "suite", "seed": 3, "summaries": [], "rows": [], "pass": True},
            {"command": "phi", "checks": [{"check": "x", "pass": True}]},
            "none",
        ]
        for doc in documents:
            assert _to_json(doc) == json.dumps(doc, indent=2, sort_keys=True)

    def test_suite_output_in_a_missing_directory_is_malformed_input(self, docs, capsys):
        out = docs["tmp"] / "absent" / "suite.json"
        code = main(["suite", "--seed", "1", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and err.count("\n") == 1
        assert str(out) in err and not out.exists()

    def test_phi_report(self, docs, capsys):
        code = main(["phi", "--f", docs["exp1"], "--g", docs["exp2"]])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        names = [row["check"] for row in doc["checks"]]
        assert "four_point_equation" in names
        assert "linear_form_fit" in names
        # a non-proportional pair fails the extraction check
        extract = next(r for r in doc["checks"] if r["check"] == "proportionality_extract")
        assert extract["pass"] is False

    def test_phi_proportional_pair_all_pass(self, docs, capsys):
        code = main(["phi", "--f", docs["double_exp1"], "--g", docs["exp1"]])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert all(row["pass"] for row in doc["checks"])

    def test_phi_csv(self, docs, capsys):
        code = main(["phi", "--f", docs["exp1"], "--g", docs["exp2"], "--format", "csv"])
        assert code == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header.startswith("check,")

    def test_phi_requires_positive_bijections(self, docs, capsys):
        ident = write(docs["tmp"] / "ident.json", {"family": "identity"})
        code = main(["phi", "--f", ident, "--g", docs["exp1"]])
        assert code == 2

    def test_missing_required_inputs(self, docs):
        assert main(["check", "--f", docs["exp1"]]) == 2
        assert main(["phi", "--f", docs["exp1"]]) == 2

    @pytest.mark.parametrize("argv, names", [
        (["check", "--g"], "--f, --space-x, --space-y, --h"),
        (["witness", "--space-x"], "--f, --g, --space-y"),
        (["phi", "--space-x"], "--f, --g"),
    ])
    def test_missing_inputs_are_named_in_option_order(self, docs, capsys, argv, names):
        # the one given option is unreadable: the missing ones are reported before any load
        code = main([*argv, str(docs["tmp"] / "absent.json")])
        assert code == 2
        assert capsys.readouterr().err == f"input error: {argv[0]} requires {names}\n"

    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_phi_refuses_a_space_without_two_atoms(self, docs, capsys, axis):
        three = write(docs["tmp"] / "three.json", {"weights": [1.0, 1.0, 1.0]})
        code = main(["phi", "--f", docs["exp1"], "--g", docs["exp2"], f"--space-{axis}", three])
        assert code == 2
        assert f"phi diagnostics need a two-atom {axis.upper()} space" in capsys.readouterr().err


def dictwriter_csv(doc):
    """The CSV writer ``_to_csv`` replaced: ``csv.DictWriter`` over a JSON-flattened copy of each row."""
    if "rows" in doc:
        rows = doc["rows"]
    elif "checks" in doc:
        rows = doc["checks"]
    else:
        rows = [doc]
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()), extrasaction="ignore")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: json.dumps(v, sort_keys=True) if isinstance(v, (dict, list)) else v
                         for k, v in row.items()})
    return buf.getvalue()


class TestCsvWriter:
    """``_to_csv`` writes each row's values, byte for byte as ``csv.DictWriter`` wrote the rows."""

    @staticmethod
    def command_doc(argv):
        args = build_parser().parse_args(argv)
        return args.run(args)[1]

    @pytest.mark.parametrize("seed", range(4))
    def test_suite_document(self, seed):
        fm = run_finite_measure_suite(seed=seed, pairs_per_combo=3, h_per_pair=2)
        pr = run_probability_suite(seed=seed, trials=12)
        doc = {"command": "suite", "seed": seed, "summaries": [fm.summary(), pr.summary()],
               "rows": fm.rows + pr.rows, "pass": fm.passed and pr.passed}
        assert len(doc["rows"]) > 12
        assert _to_csv(doc) == dictwriter_csv(doc)

    @pytest.mark.parametrize("pair", [("exp1", "exp2"), ("double_exp1", "exp1"), ("exp2", "exp1")])
    def test_phi_and_check_documents(self, docs, pair):
        f, g = docs[pair[0]], docs[pair[1]]
        phi = self.command_doc(["phi", "--f", f, "--g", g])
        check = self.command_doc(["check", "--f", f, "--g", g, "--space-x", docs["unit2"],
                                  "--space-y", docs["tiny2"], "--h", docs["h"]])
        # phi's rows hold None sides and dict inputs; check's one row holds the input documents
        assert any(row["lhs"] is None for row in phi["checks"])
        assert isinstance(check["h"], dict)
        for doc in (phi, check):
            assert _to_csv(doc) == dictwriter_csv(doc)

    def test_rows_of_scalars_and_awkward_strings(self):
        rows = [
            {"name": 'a, "quoted"\nname', "value": None, "pass": True, "count": 3, "x": -0.0},
            {"name": "plain", "value": 1e300, "pass": False, "count": -1, "x": float("nan")},
            {"name": "", "value": float("inf"), "pass": None, "count": 0, "x": "line\r\nend,"},
        ]
        for doc in ({"rows": rows}, {"checks": rows}, rows[0]):
            assert _to_csv(doc) == dictwriter_csv(doc)

    def test_rows_of_nested_dicts_and_lists(self):
        rows = [
            {"inputs": {"b": [1.0, {"c": None}], "a": "x,y"}, "pairs": [[0.5, 0.5], [1.0, 2.0]],
             "pass": True},
            {"inputs": {}, "pairs": [], "pass": False},
            {"inputs": {"z": {"y": {"x": [True, None, "q\"uote"]}}}, "pairs": [[]], "pass": None},
        ]
        for doc in ({"rows": rows}, {"checks": rows}, rows[0]):
            assert _to_csv(doc) == dictwriter_csv(doc)


class TestOptionsByCommand:
    @pytest.mark.parametrize(
        "argv",
        [
            ["suite", "--workers", "2"],
            ["witness", "--format", "csv"],
            ["witness", "--tol", "1e-3"],
            ["check", "--grid", "5"],
            ["phi", "--threshold", "1e-3"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_option_the_command_does_not_read_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["0", "nan", "inf"])
    @pytest.mark.parametrize("command", ["check", "suite", "phi"])
    def test_non_positive_tolerance_is_malformed_input(self, docs, capsys, command, tol):
        argv = {
            "check": ["check", "--f", docs["exp1"], "--g", docs["exp2"], "--space-x", docs["unit2"],
                      "--space-y", docs["unit2"], "--h", docs["h"]],
            "suite": ["suite"],
            "phi": ["phi", "--f", docs["exp1"], "--g", docs["exp2"]],
        }[command]
        assert main([*argv, "--tol", tol]) == 2
        assert "tolerance" in capsys.readouterr().err

    def test_malformed_range_is_malformed_input(self, docs, capsys):
        code = main(
            ["witness", "--f", docs["exp1"], "--g", docs["exp2"],
             "--space-x", docs["unit2"], "--space-y", docs["unit2"], "--range", "1"]
        )
        assert code == 2
        assert "--range" in capsys.readouterr().err

    def test_phi_csv_columns_are_the_row_keys(self, docs, capsys):
        assert main(["phi", "--f", docs["exp1"], "--g", docs["exp2"], "--format", "csv"]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header == "check,inputs,lhs,rhs,abs_residual,rel_residual,pass"


class TestSharedParser:
    def test_repeated_commands_share_one_parser(self, docs, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            if kwargs.get("prog") == "qamlab":
                built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        pair = ["--f", docs["exp1"], "--g", docs["exp2"],
                "--space-x", docs["unit2"], "--space-y", docs["unit2"]]

        def run(argv):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = ("exit", exc.code)
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        sequence = [
            ["witness", *pair, "--grid", "9"],
            ["check", *pair, "--h", docs["h"]],
            ["suite", "--seed", "7"],
            ["phi", *pair],
            ["check", *pair],
            ["suite", "--grid", "5"],
        ]
        first = [run(argv) for argv in sequence]
        second = [run(argv) for argv in sequence]
        assert first == second
        assert [code for code, _, _ in first] == [1, 1, 0, 0, 2, ("exit", 2)]
        assert "requires --h" in first[4][2]
        assert "unrecognized arguments" in first[5][2]
        assert len(built) <= 1

    def test_importing_the_cli_builds_no_parser(self):
        src = str(Path(qamlab.__file__).resolve().parents[1])
        code = (
            "import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counting_init(self, *args, **kwargs):\n"
            "    built.append(kwargs.get('prog'))\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counting_init\n"
            "import qamlab.cli\n"
            "print(len(built))\n"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": src}).stdout
        assert out.strip() == "0"

    def test_option_defaults_are_the_library_defaults(self):
        def default(func, name):
            return inspect.signature(func).parameters[name].default

        parser = build_parser()
        suite = parser.parse_args(["suite"])
        for func in (run_finite_measure_suite, run_probability_suite):
            assert suite.seed == default(func, "seed")
            assert suite.tol == default(func, "tol")
        for command in ("check", "phi"):
            assert parser.parse_args([command]).tol == default(run_diagnostics, "tol")
        witness = parser.parse_args(["witness"])
        for func in (block_witness_search, full_witness_search):
            assert witness.threshold == default(func, "threshold")
            assert witness.workers == default(func, "workers")


class TestMalformedDocuments:
    # a field of the wrong JSON type, in each kind of document
    @pytest.mark.parametrize("slot, doc", [
        ("f", {"family": "exp", "k": None}),
        ("f", {"family": "exp", "affine": {"a": [1], "b": 0}}),
        ("space_x", {"weights": {"a": 1}}),
        ("space_x", {"weights": [1, 1], "labels": 5}),
        ("h", {"values": {"a": 1}}),
        # values that float() or str() would convert, and an integer too large for a float
        ("f", {"family": "exp", "k": "2"}),
        ("f", {"family": "exp", "k": True}),
        ("f", {"family": "exp", "k": 10**400}),
        ("f", {"family": "log", "scale": "3"}),
        ("f", {"family": "log", "affine": {"a": "2", "b": False}}),
        ("space_x", {"weights": ["1", "2"]}),
        ("space_x", {"weights": [10**400, 1]}),
        ("space_x", {"weights": [1, 1], "labels": "ab"}),
        ("space_x", {"weights": [1, 1], "labels": [1, True]}),
        ("h", {"values": [["1", 2], [3, 4]]}),
    ])
    def test_wrong_field_type_exits_2(self, docs, capsys, slot, doc):
        paths = {"f": docs["exp1"], "space_x": docs["unit2"], "h": docs["h"],
                 slot: write(docs["tmp"] / "malformed.json", doc)}
        code = main(["check", "--f", paths["f"], "--g", docs["exp2"],
                     "--space-x", paths["space_x"], "--space-y", docs["unit2"],
                     "--h", paths["h"]])
        out = capsys.readouterr()
        assert code == 2
        assert out.out == ""
        assert out.err.startswith("input error: ") and out.err.count("\n") == 1
        assert "Traceback" not in out.err

    @pytest.mark.parametrize("doc", [{"family": "exp", "k": 10**400}, {"family": "exp", "k": "2"}])
    def test_wrong_field_type_exits_2_in_phi(self, docs, capsys, doc):
        code = main(["phi", "--f", write(docs["tmp"] / "malformed.json", doc), "--g", docs["exp2"]])
        out = capsys.readouterr()
        assert code == 2
        assert out.out == ""
        assert out.err.startswith("input error: ") and out.err.count("\n") == 1


# JSON values as ``json.loads`` returns them, NaN and the infinities included,
# nested under the keys the document readers look up
_JSON_LEAF = (st.none() | st.booleans() | st.integers() | st.sampled_from([10**400, -10**400])
              | st.floats() | st.text(max_size=4)
              | st.sampled_from(["exp", "power", "identity", "log"]))
_JSON_KEY = st.sampled_from(["family", "k", "p", "scale", "affine", "a", "b", "weights", "labels",
                             "values"]) | st.text(max_size=3)
_JSON = st.recursive(_JSON_LEAF, lambda inner: st.lists(inner, max_size=4)
                     | st.dictionaries(_JSON_KEY, inner, max_size=4), max_leaves=10)
_DOCUMENTS = _JSON | st.fixed_dictionaries(
    {"family": st.sampled_from(["exp", "power", "identity", "log"]) | _JSON},
    optional={"k": _JSON, "p": _JSON, "scale": _JSON,
              "affine": st.fixed_dictionaries({}, optional={"a": _JSON, "b": _JSON}) | _JSON},
) | st.fixed_dictionaries({"weights": _JSON}, optional={"labels": _JSON}) \
    | st.fixed_dictionaries({"values": _JSON})


class TestReadersRaiseOnlyValueError:
    # the CLI reports a ValueError from a reader as malformed input (exit 2);
    # any other exception would escape main as a traceback with exit 1.  Drawing
    # the documents costs about 5 ms each, so the examples are bounded
    @settings(max_examples=200, deadline=None)
    @given(doc=_DOCUMENTS)
    def test_arbitrary_json_documents(self, doc):
        doc = json.loads(json.dumps(doc))
        for reader in (generator_from_json, DiscreteMeasureSpace.from_json, SimpleFunctionMatrix.from_json):
            try:
                reader(doc)
            except ValueError:
                pass

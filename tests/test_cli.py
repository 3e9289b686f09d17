import json
import math

import pytest

from qamlab.cli import main


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

    @pytest.mark.parametrize("threshold", ["nan", "0"])
    def test_bad_threshold_is_malformed_input(self, docs, capsys, threshold):
        # nan would hide every witness, 0 would report rounding noise as one
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

    @pytest.mark.parametrize("tol", ["0", "nan"])
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

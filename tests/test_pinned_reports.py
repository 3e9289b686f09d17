"""`qamlab check` and `qamlab phi` output pinned byte for byte on a fixed set of inputs.

Each file under ``tests/data/reports/`` is the exact stdout of one case,
``<pair>-<command>.<format>``, written by the CLI with numpy 2.4.6 on
x86-64 Linux, before the equivalence checks and the phi fits shared the
relative-residual rule of ``qamlab.residuals``.  The pairs are the five
generator pairs of the benchmark's witness workload.  To add a case,
write its file from a build whose output is already trusted: the test
never rewrites them.
"""

import json
from pathlib import Path

import pytest

from qamlab.cli import main
from test_pinned_witness import PAIRS as WITNESS_PAIRS

DATA = Path(__file__).parent / "data" / "reports"

# the pinned witness pairs but the one with skipped points
PAIRS = {label: docs for label, docs in WITNESS_PAIRS.items() if label != "shifted-exp"}

# command -> (X weights, Y weights); phi needs two atoms on each side
SPACES = {
    "check": ([0.8, 1.5], [0.6, 1.2, 0.9]),
    "phi": ([0.7, 1.3], [1.1, 0.6]),
}
H = {"values": [[0.5, 2.0, 1.0], [3.0, 1.5, 0.8]]}

CASES = [(label, command, fmt) for label in PAIRS for command in SPACES
         for fmt in ("json", "csv")]


def report_argv(tmp_path: Path, label: str, command: str, fmt: str) -> list[str]:
    """The arguments of one pinned case, its documents in tmp_path."""
    f_doc, g_doc = PAIRS[label]
    wx, wy = SPACES[command]
    paths = {}
    for name, doc in (("f", f_doc), ("g", g_doc), ("x", {"weights": wx}),
                      ("y", {"weights": wy}), ("h", H)):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    h = ["--h", str(paths["h"])] if command == "check" else []
    return [command, "--f", str(paths["f"]), "--g", str(paths["g"]),
            "--space-x", str(paths["x"]), "--space-y", str(paths["y"]), *h, "--format", fmt]


@pytest.mark.parametrize("label, command, fmt", CASES,
                         ids=[f"{lb}-{c}-{fmt}" for lb, c, fmt in CASES])
def test_report_output_is_pinned(tmp_path, capsys, label, command, fmt):
    # bytes, so that the CSV's \r\n line ends are compared as written
    pinned = (DATA / f"{label}-{command}.{fmt}").read_bytes().decode()
    code = main(report_argv(tmp_path, label, command, fmt))
    out = capsys.readouterr()
    assert (out.out, out.err) == (pinned, "")
    # phi always exits 0; check exits 1 when the two sides disagree
    assert code == (1 if command == "check" and label != "proportional-control" else 0)

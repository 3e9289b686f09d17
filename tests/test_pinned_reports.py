"""`qamlab check`, `qamlab phi` and `qamlab suite` output pinned byte for byte.

Each file under ``tests/data/reports/`` is the exact stdout of one case,
``<pair>-<command>.<format>``, written by the CLI with numpy 2.4.6 on
x86-64 Linux, before the equivalence checks and the phi fits shared the
relative-residual rule of ``qamlab.residuals``.  The pairs are the five
generator pairs of the benchmark's witness workload.  To add a case,
write its file from a build whose output is already trusted: the test
never rewrites them.

`qamlab suite` prints megabytes, so its stdout is pinned by SHA-256
digest instead, written with numpy 2.4.6 before the suites computed
their residuals as one array.
"""

import hashlib
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


# (seed, format) -> SHA-256 of `qamlab suite --seed S --format F` stdout
SUITE_DIGESTS = {
    ("42", "json"): "de74125abe52022bdd448d8989f0a98761436aa91a7c9c63d3b0b71be7cd297a",
    ("42", "csv"): "d562dc76b46f5f43dfd8b1493352db58954d55e77e51bf5a0914ab4c8ac06583",
    ("7", "json"): "066f7e268fe5336c1d987f2a5b18838bade729a598cff2930880f0d637e95436",
    ("7", "csv"): "cb3f5d02ea5c8eb6a629893a63eb1a46d9f5ba849c7ee1310512bba769abec5e",
}


@pytest.mark.parametrize("seed, fmt", SUITE_DIGESTS, ids=[f"{s}-{f}" for s, f in SUITE_DIGESTS])
def test_suite_output_is_pinned(capsys, seed, fmt):
    assert main(["suite", "--seed", seed, "--format", fmt]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    assert hashlib.sha256(out.out.encode()).hexdigest() == SUITE_DIGESTS[seed, fmt]

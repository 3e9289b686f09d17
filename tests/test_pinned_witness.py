"""`qamlab witness` output pinned byte for byte on a fixed set of inputs.

Each file under ``tests/data/witness/`` is the exact stdout of one case,
written by the CLI with numpy 2.4.6 on x86-64 Linux, before the block
and full searches shared one table evaluator.  Each search runs at one
and at four workers, which must print the same bytes.  To add a case, write its file from a build
whose output is already trusted: the test never rewrites them.
"""

import json
from pathlib import Path

import pytest

from qamlab.cli import main

DATA = Path(__file__).parent / "data" / "witness"

PAIRS = {
    "exp-increasing": ({"family": "exp", "k": 1.0}, {"family": "exp", "k": 2.0}),
    "exp-decreasing": ({"family": "exp", "k": -1.0}, {"family": "exp", "k": -2.0}),
    "power": ({"family": "power", "p": 2.0}, {"family": "power", "p": -1.0}),
    "exp-power": ({"family": "exp", "k": 1.0}, {"family": "power", "p": 2.0}),
    "proportional-control": ({"family": "exp", "k": 1.0, "scale": 3.0},
                             {"family": "exp", "k": 1.0}),
    # its shifted f leaves exp's range on part of the grid: skipped points
    "shifted-exp": ({"family": "exp", "k": 1.0, "affine": {"a": 1.0, "b": 1.0}},
                    {"family": "exp", "k": 1.0}),
}

# kind -> (X weights, Y weights, grid options)
SEARCHES = {
    "block": ([0.7, 1.3], [1.1, 0.6], ["--grid", "21"]),
    "full": ([0.8, 1.5], [0.6, 1.2, 0.9], ["--grid", "5"]),
}
SKIP_SEARCHES = {
    "block": ([0.3, 0.3], [0.3, 0.3],
              ["--grid", "9", "--range", "0.05:2", "--threshold", "1e-6"]),
    "full": ([0.3, 0.3], [0.3, 0.3, 0.3],
             ["--grid", "5", "--range", "0.05:2", "--threshold", "1e-6"]),
}

CASES = [(label, kind) for label in PAIRS for kind in SEARCHES]


def witness_argv(tmp_path: Path, label: str, kind: str) -> list[str]:
    """The `qamlab witness` arguments of one pinned case, its documents in tmp_path."""
    f_doc, g_doc = PAIRS[label]
    wx, wy, options = (SKIP_SEARCHES if label == "shifted-exp" else SEARCHES)[kind]
    paths = {}
    for name, doc in (("f", f_doc), ("g", g_doc), ("x", {"weights": wx}), ("y", {"weights": wy})):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    return ["witness", "--f", str(paths["f"]), "--g", str(paths["g"]),
            "--space-x", str(paths["x"]), "--space-y", str(paths["y"]), *options]


@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("label, kind", CASES, ids=[f"{lb}-{k}" for lb, k in CASES])
def test_witness_output_is_pinned(tmp_path, capsys, label, kind, workers):
    pinned = (DATA / f"{label}-{kind}.json").read_text()
    code = main(witness_argv(tmp_path, label, kind) + ["--workers", str(workers)])
    out = capsys.readouterr()
    assert (out.out, out.err) == (pinned, "")
    # exit 0 prints "none"; a witness found exits 1
    assert code == (0 if json.loads(pinned) == "none" else 1)

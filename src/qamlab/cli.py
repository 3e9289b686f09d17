"""Command-line entry point.

Subcommands: ``check`` evaluates the commutation residual for a given
pair, spaces, and simple function; ``witness`` searches for a simple
function on which the pair fails to commute; ``suite`` runs both seeded
commutation suites; ``phi`` emits the scalar-reduction diagnostics for a
pair.  Input documents are the JSON schemas of the owning modules.

Exit codes: 0 pass / no witness, 1 check failed / witness found, 2 malformed
input or unwritable --out, 3 numeric range failure (message names the stage).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from pathlib import Path

from .errors import DomainError, RangeError
from .generators import POSITIVE_HALF_LINE, generator_from_json
from .means import SimpleFunctionMatrix, commutation_residual
from .measure_space import DiscreteMeasureSpace, ProductGrid
from .phi_reduction import run_diagnostics
from .residuals import DEFAULT_ZERO_TOL
from .suites import DEFAULT_SEED, run_finite_measure_suite, run_probability_suite
from .witness_search import DEFAULT_THRESHOLD, GridSpec, block_witness_search, full_witness_search

__all__ = ["main"]


def _load(path: str, build):
    """``build`` of the JSON document at ``path``; a malformed document is a ValueError."""
    try:
        return build(json.loads(Path(path).read_text()))
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read JSON document {path}: {exc}") from exc


_BUILDERS = {"f": generator_from_json, "g": generator_from_json,
             "space_x": DiscreteMeasureSpace.from_json, "space_y": DiscreteMeasureSpace.from_json,
             "h": SimpleFunctionMatrix.from_json}


def _inputs(args: argparse.Namespace, *names: str) -> list:
    """The documents of the named options, in order; all of them must be given."""
    missing = [n for n in names if getattr(args, n) is None]
    if missing:
        raise ValueError(f"{args.command} requires --{', --'.join(m.replace('_', '-') for m in missing)}")
    return [_load(getattr(args, n), _BUILDERS[n]) for n in names]


def _tolerance(args: argparse.Namespace) -> float:
    if not POSITIVE_HALF_LINE.contains_all(args.tol):
        raise ValueError(f"tolerance must be a finite positive real, got {args.tol}")
    return args.tol


# ---------------------------------------------------------------------------
# Command implementations
# ---------------------------------------------------------------------------

def _cmd_check(args: argparse.Namespace) -> tuple[int, object]:
    tol = _tolerance(args)
    f, g, space_x, space_y, h = _inputs(args, "f", "g", "space_x", "space_y", "h")
    # values outside either domain are a malformed input, not a numeric failure
    for gen in (f, g):
        if not gen.domain.contains_all(h.values):
            raise ValueError(f"h contains values outside the domain of {gen.describe()}")
    report = commutation_residual(f, g, ProductGrid(space_x, space_y), h)
    doc = {
        "command": "check",
        "f": f.to_json(),
        "g": g.to_json(),
        "space_x": space_x.to_json(),
        "space_y": space_y.to_json(),
        "h": h.to_json(),
        "tolerance": tol,
        **report.to_dict(),
        "pass": report.passes(tol),
    }
    return (0 if report.passes(tol) else 1), doc


def _cmd_witness(args: argparse.Namespace) -> tuple[int, object]:
    value_range = _parse_range(args.value_range)
    f, g, space_x, space_y = _inputs(args, "f", "g", "space_x", "space_y")
    grid = GridSpec(args.grid, value_range, args.spacing)
    if len(space_x) == 2 and len(space_y) == 2:
        wx, wy = space_x.weights, space_y.weights
        witness = block_witness_search(
            f, g, float(wx[0]), float(wx[1]), float(wy[0]), float(wy[1]),
            grid, args.threshold, workers=args.workers,
        )
    else:
        witness = full_witness_search(
            f, g, (len(space_x), len(space_y)), (space_x, space_y),
            grid, args.threshold, workers=args.workers,
        )
    if witness is None:
        return 0, "none"
    return 1, witness.to_json_dict()


def _cmd_suite(args: argparse.Namespace) -> tuple[int, object]:
    tol = _tolerance(args)
    fm = run_finite_measure_suite(seed=args.seed, tol=tol)
    pr = run_probability_suite(seed=args.seed, tol=tol)
    ok = fm.passed and pr.passed
    doc = {
        "command": "suite",
        "seed": args.seed,
        "summaries": [fm.summary(), pr.summary()],
        "rows": fm.rows + pr.rows,
        "pass": ok,
    }
    return (0 if ok else 1), doc


def _cmd_phi(args: argparse.Namespace) -> tuple[int, object]:
    tol = _tolerance(args)
    f, g = _inputs(args, "f", "g")
    masses: list[float] = []
    for axis, path in (("X", args.space_x), ("Y", args.space_y)):
        weights = [1.0, 1.0] if path is None else \
            _load(path, DiscreteMeasureSpace.from_json).weights
        if len(weights) != 2:
            raise ValueError(f"phi diagnostics need a two-atom {axis} space")
        masses += [float(w) for w in weights]
    rows = run_diagnostics(f, g, *masses, tol=tol)
    doc = {
        "command": "phi",
        "f": f.to_json(),
        "g": g.to_json(),
        "masses": masses,
        "tolerance": tol,
        "checks": rows,
    }
    return 0, doc


# ---------------------------------------------------------------------------
# Serialisation and argument parsing
# ---------------------------------------------------------------------------

def _to_csv(doc: dict) -> str:
    """A document's rows as CSV, each with the first row's keys in order; dicts and lists as JSON."""
    if "rows" in doc:
        rows = doc["rows"]
    elif "checks" in doc:
        rows = doc["checks"]
    else:
        rows = [doc]
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(rows[0])
    writer.writerows([json.dumps(v, sort_keys=True) if isinstance(v, (dict, list)) else v
                      for v in row.values()] for row in rows)
    return buf.getvalue()


# a suite row's keys at the indent=2 layout's depth, and its neighbours
_ROW_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",\n      ", ": "))


def _to_json(doc: object) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True)``, its suite rows written by the C encoder.

    ``indent`` forces json's pure-Python encoder, which takes most of a
    ``suite`` run.  A suite row is a flat dict of numbers, strings and
    bools, so the C encoder writes its ``indent=2`` text once its braces
    are put on their own lines; the rows are spliced into the dump of the
    rest of the document, where an empty list stands in for them.
    """
    rows = doc.get("rows") if isinstance(doc, dict) else None
    if not rows:
        return json.dumps(doc, indent=2, sort_keys=True)
    head, tail = json.dumps({**doc, "rows": []}, indent=2, sort_keys=True).split('\n  "rows": []')
    body = ",\n    ".join(["{\n      " + _ROW_ENCODER.encode(row)[1:-1] + "\n    }" for row in rows])
    return f'{head}\n  "rows": [\n    {body}\n  ]{tail}'


def _write(doc: object, args: argparse.Namespace) -> None:
    if getattr(args, "format", "json") == "csv":
        text = _to_csv(doc)
    else:
        text = _to_json(doc) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text)


def _parse_range(text: str) -> tuple[float, float]:
    try:
        lo, hi = text.split(":")
        return float(lo), float(hi)
    except ValueError as exc:
        raise ValueError(f"--range expects LO:HI, got {text!r}") from exc


# cached, so a process builds the parser once, at its first main() call; not
# at import, which would cost every importer that never parses
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qamlab",
        description="Quasi-arithmetic mean commutation: residual checks, "
        "witness search, randomized suites, and scalar diagnostics.",
    )
    # the option groups that several commands share
    pair = argparse.ArgumentParser(add_help=False)
    pair.add_argument("--f", help="generator JSON file for f")
    pair.add_argument("--g", help="generator JSON file for g")
    pair.add_argument("--space-x", dest="space_x", help="X space JSON file")
    pair.add_argument("--space-y", dest="space_y", help="Y space JSON file")
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--tol", type=float, default=DEFAULT_ZERO_TOL, help="pass tolerance")
    report.add_argument("--format", choices=["json", "csv"], default="json")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="output file (default stdout)")

    sub = parser.add_subparsers(dest="command", required=True)
    check = sub.add_parser("check", parents=[pair, report, out],
                           help="evaluate the commutation residual for f, g, spaces, and h")
    check.add_argument("--h", help="simple-function JSON file")
    check.set_defaults(run=_cmd_check)
    witness = sub.add_parser("witness", parents=[pair, out],
                             help="search for a simple function on which f and g fail to commute")
    witness.add_argument("--grid", type=int, default=21, help="points per search axis")
    witness.add_argument("--range", dest="value_range", default="0.1:10",
                         help="search value range LO:HI")
    witness.add_argument("--spacing", choices=["linear", "geometric"], default="geometric")
    witness.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                         help="witness residual threshold")
    witness.add_argument("--workers", type=int, default=1, help="search partitions")
    witness.set_defaults(run=_cmd_witness)
    suite = sub.add_parser("suite", parents=[report, out],
                           help="run both seeded commutation suites")
    suite.add_argument("--seed", type=int, default=DEFAULT_SEED, help="suite RNG seed")
    suite.set_defaults(run=_cmd_suite)
    phi = sub.add_parser("phi", parents=[pair, report, out],
                         help="emit scalar-reduction diagnostics for a pair")
    phi.set_defaults(run=_cmd_phi)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, doc = args.run(args)
        _write(doc, args)
    except RangeError as exc:
        stage = f" [stage: {exc.stage}]" if exc.stage else ""
        print(f"range error: {exc}{stage}", file=sys.stderr)
        return 3
    except (DomainError, ValueError, OSError) as exc:
        # an OSError here is an --out that cannot be written; _load turns
        # an unreadable input into a ValueError
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    raise SystemExit(main())

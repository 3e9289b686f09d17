"""In-memory per-layer times and counts around the calls into each qamlab module.

``Tracer.install()`` replaces the public functions and methods of every
qamlab module (plus the raw generator kernels, which the searches call
directly, and the scalar bisection) with timing wrappers; ``uninstall()``
puts the originals back.  Nothing inside the program changes.

Each wrapped call is a span with a layer (the qamlab module), a name, a
duration and a self time (duration minus the time of traced calls made
inside it).  Counts are taken where the call happens.  Generator calls
are counted once, at the outermost generator call of a thread, so the
``_eval_raw`` calls that ``eval``, the affine wrappers and the bisection
make internally are not counted again.  Only the per-layer sums are
kept, in memory, until ``snapshot()`` reads them.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import defaultdict

import numpy as np

# (layer, module attribute) pairs of public functions to wrap
_FUNCTIONS = [
    ("cli", "main"),
    ("suites", "run_finite_measure_suite"),
    ("suites", "run_probability_suite"),
    ("means", "qam"),
    ("means", "commutation_residual"),
    ("witness_search", "block_witness_search"),
    ("witness_search", "full_witness_search"),
    ("witness_search", "refine_witness"),
    ("phi_reduction", "run_diagnostics"),
    ("phi_reduction", "block_scenario_residual"),
    ("generators", "_bisect_inverse"),
]
_RESIDUAL_NAMES = {"commutation_residual", "block_scenario_residual"}


def _size(x) -> int:
    return int(np.size(x))


def _npts(grid) -> int:
    pts = getattr(grid, "points_per_axis", None)
    return int(pts) if pts is not None else len(grid)


def _out_bytes(argv) -> int:
    if argv and "--out" in argv:
        path = argv[argv.index("--out") + 1]
        try:
            with open(path, "rb") as fh:
                return len(fh.read())
        except OSError:
            return 0
    return 0


class Tracer:
    """Collects per-layer times and counts while installed."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.times: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)

    # -- per-thread state ------------------------------------------------------
    def _state(self):
        st = self._local
        if not hasattr(st, "stack"):
            st.stack = []
            st.gen_depth = 0
            st.refine_depth = 0
        return st

    def _add(self, times: dict, counts: dict) -> None:
        with self._lock:
            for k, v in times.items():
                self.times[k] += v
            for k, v in counts.items():
                self.counts[k] += v

    # -- wrapping ----------------------------------------------------------------
    def _span(self, layer: str, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            st = tracer._state()
            stack = st.stack
            parent = stack[-1] if stack else None
            frame = [0.0]  # time of traced calls made inside this one
            stack.append(frame)
            if name == "refine_witness":
                st.refine_depth += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                stack.pop()
                if name == "refine_witness":
                    st.refine_depth -= 1
                if parent is not None:
                    parent[0] += dur
            times = {f"{layer}.self_s": dur - frame[0]}
            counts: dict[str, int] = {}
            tracer._count(name, args, kwargs, result, dur, times, counts, st)
            tracer._add(times, counts)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _gen_span(self, kind: str, fn):
        """Wrap a generator eval/inverse: timed and counted only when outermost."""
        tracer = self

        def wrapper(gen, x, *args):
            st = tracer._state()
            if st.gen_depth:
                return fn(gen, x, *args)
            stack = st.stack
            parent = stack[-1] if stack else None
            frame = [0.0]
            stack.append(frame)
            st.gen_depth += 1
            t0 = time.perf_counter()
            try:
                return fn(gen, x, *args)
            finally:
                dur = time.perf_counter() - t0
                st.gen_depth -= 1
                stack.pop()
                if parent is not None:
                    parent[0] += dur
                tracer._add(
                    {f"generators.{kind}_s": dur, "generators.self_s": dur - frame[0]},
                    {f"generators.{kind}_calls": 1, f"generators.{kind}_elems": _size(x)},
                )

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, name, args, kwargs, result, dur, times, counts, st) -> None:
        if name == "main":
            times["cli.main_s"] = dur
            counts["cli.bytes_out"] = _out_bytes(args[0] if args else kwargs.get("argv"))
        elif name.startswith("run_") and name.endswith("_suite"):
            times["suites.run_s"] = dur
            counts["suites.cases"] = result.n_cases
        elif name == "qam":
            times["means.qam_s"] = dur
            counts["means.qam_calls"] = 1
        elif name == "commutation_residual":
            times["means.residual_s"] = dur
            counts["means.residual_calls"] = 1
        elif name == "integrate":
            times["measure_space.integrate_s"] = dur
            counts["measure_space.integrate_calls"] = 1
        elif name == "_bisect_inverse":
            times["generators.bisect_s"] = dur
            counts["generators.bisect_elems"] = 1
        elif name == "block_witness_search":
            times["witness_search.block_s"] = dur
            counts["witness_search.block_searches"] = 1
            grid = args[6] if len(args) > 6 else kwargs["grid"]
            counts["witness_search.block_candidates"] = _npts(grid) ** 4
            counts["witness_search.skipped_points"] = getattr(result, "skipped_points", 0)
        elif name == "full_witness_search":
            m, n = args[2] if len(args) > 2 else kwargs["grid_shape"]
            grid = args[4] if len(args) > 4 else kwargs["value_grid"]
            times["witness_search.full_s"] = dur
            counts["witness_search.full_searches"] = 1
            counts["witness_search.full_candidates"] = _npts(grid) ** (m * n)
            counts["witness_search.skipped_points"] = getattr(result, "skipped_points", 0)
        elif name == "refine_witness":
            times["witness_search.refine_s"] = dur
        elif name == "run_diagnostics":
            times["phi_reduction.diagnostics_s"] = dur
        elif name == "block_scenario_residual":
            times["phi_reduction.block_residual_s"] = dur
            counts["phi_reduction.block_residual_calls"] = 1
        if name in _RESIDUAL_NAMES and st.refine_depth:
            counts["witness_search.refine_evals"] = 1

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap the qamlab entry points; every module's reference is replaced."""
        from qamlab import generators, measure_space

        modules = [m for name, m in sys.modules.items()
                   if name == "qamlab" or name.startswith("qamlab.")]
        for layer, attr in _FUNCTIONS:
            original = getattr(sys.modules[f"qamlab.{layer}"], attr)
            wrapped = self._span(layer, attr, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapped)

        space = measure_space.DiscreteMeasureSpace
        self._patch(space, "integrate", self._span("measure_space", "integrate",
                                                   space.__dict__["integrate"]))
        base = generators.Generator
        wrapped_eval = self._gen_span("eval", base.__dict__["eval"])
        self._patch(base, "eval", wrapped_eval)
        self._patch(base, "__call__", wrapped_eval)
        self._patch(base, "inverse", self._gen_span("inverse", base.__dict__["inverse"]))
        todo = [base]
        while todo:
            cls = todo.pop()
            todo.extend(cls.__subclasses__())
            for attr, kind in (("_eval_raw", "eval"), ("_inverse_raw", "inverse")):
                fn = cls.__dict__.get(attr)
                if fn is not None and not getattr(fn, "__isabstractmethod__", False):
                    self._patch(cls, attr, self._gen_span(kind, fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def snapshot(self) -> dict[str, float]:
        """Per-layer metrics accumulated since the last reset."""
        c = self.counts
        out = {k: float(v) for k, v in [*self.times.items(), *c.items()]}
        candidates = c.get("witness_search.block_candidates", 0) + c.get(
            "witness_search.full_candidates", 0)
        skipped = c.get("witness_search.skipped_points", 0)
        out["witness_search.valid_ratio"] = (
            (candidates - skipped) / candidates if candidates else 1.0)
        return out

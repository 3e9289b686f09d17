"""Hunting for simple functions that separate a non-proportional pair.

For pairs that are not proportional the mixed means must disagree on some
simple function.  The block search scans 2x2 block functions over a value
grid and returns the worst offender; the full matrix search confirms it
independently; refinement then pushes the residual higher, one coordinate
at a time, by scanning a bracket around it in one batch and zooming in.
Everything is deterministic, including under parallel partitioning.
"""

import math
import time

from qamlab import (
    BlockScenario,
    DiscreteMeasureSpace,
    ExpGenerator,
    GridSpec,
    PowerGenerator,
    Spacing,
    block_scenario_residual,
    block_witness_search,
    full_witness_search,
    refine_witness,
    scale,
)

f, g = ExpGenerator(1.0), ExpGenerator(2.0)
grid = GridSpec(21, (0.1, 10.0), Spacing.GEOMETRIC)

print("=== block search over a 21-point geometric grid ===")
start = time.perf_counter()
witness = block_witness_search(f, g, 1, 1, 1, 1, grid, threshold=1e-4)
elapsed = time.perf_counter() - start
print(f"searched 21^4 = {21**4} block scenarios in {elapsed * 1000:.0f} ms")
print(f"worst offender: values {tuple(round(v, 4) for v in witness.values)}")
print(f"sides {witness.report.lhs:.6f} vs {witness.report.rhs:.6f}, "
      f"rel residual {witness.report.rel_residual:.4e}")

print()
print("=== the proportional pair never yields a witness ===")
print("f = 2*g:", block_witness_search(scale(g, 2.0), g, 1, 1, 1, 1, grid, threshold=1e-6))

print()
print("=== full matrix search agrees on 2x2 shapes ===")
spaces = (DiscreteMeasureSpace([1.0, 1.0]), DiscreteMeasureSpace([1.0, 1.0]))
full = full_witness_search(f, g, (2, 2), spaces, grid, threshold=1e-4)
print(f"matrix witness residual {full.report.rel_residual:.4e} "
      f"(block search said {witness.report.rel_residual:.4e})")

print()
print("=== mixed-family pairs fail too ===")
for pair in ((PowerGenerator(1.0), PowerGenerator(2.0)), (ExpGenerator(1.0), PowerGenerator(1.0))):
    w = block_witness_search(*pair, 1, 1, 1, 1, grid, threshold=1e-4)
    print(f"{pair[0].describe():>12} vs {pair[1].describe():<12} rel residual {w.report.rel_residual:.4e}")

print()
print("=== bracket-scan refinement climbs from a coarse starting point ===")
coarse = block_witness_search(f, g, 1, 1, 1, 1, [0.0, math.log(2.0), math.log(3.0), math.log(4.0)],
                              threshold=1e-4)
print(f"coarse grid witness:                  rel residual {coarse.report.rel_residual:.6f}")
for iters in (1, 5, 50):
    refined = refine_witness(f, g, coarse, iters)
    print(f"after {iters:>2} sweep(s) of scans and zooms: rel residual "
          f"{refined.report.rel_residual:.6f}")

print()
print("=== determinism under partitioning ===")
docs = [block_witness_search(f, g, 1, 1, 1, 1, grid, 1e-4, workers=w).to_json() for w in (1, 3, 6)]
print("worker counts 1, 3, 6 emit identical JSON:", len(set(docs)) == 1)

print()
print("=== a classic hand-sized witness ===")
sc = BlockScenario(1, 1, 1, 1, 0.0, math.log(2.0), math.log(3.0), math.log(4.0))
report = block_scenario_residual(f, g, sc)
print(f"values (0, ln2, ln3, ln4): lhs = ln(sqrt(5)+5) = {report.lhs:.9f}, "
      f"rhs = ln(52)/2 = {report.rhs:.9f}")
print(f"difference {report.abs_residual:.4e}")

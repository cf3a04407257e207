"""Dense versus power-iteration ``operator_norm`` at sides around 512.

The library switches from a dense SVD to block power iteration above
``DENSE_NORM_LIMIT`` (512).  This sweep times both methods on amplified
(m=2) band operators of cycles at sides straddling the limit, the shape
``cb-wide`` produces, so the limit can be settled from evidence.  Both
methods must agree; the sweep runs untraced.
"""

from __future__ import annotations

import statistics
import time

SIDES = (384, 512, 520, 640, 768)
SEEDS = (0, 1, 2)
AGREEMENT = 1e-8


def sweep() -> tuple[dict, list[str]]:
    """(metrics as name -> (value, unit), disagreements found)."""
    import normloc as nl

    metrics = {}
    problems = []
    for side in SIDES:
        space = nl.generate_family("cycle", {"n": side // 2})
        times = {"dense": [], "power": []}
        for seed in SEEDS:
            a = nl.random_banded(space, 1, seed, m=2)
            norms = {}
            for method in times:
                start = time.perf_counter()
                norms[method] = nl.operator_norm(a, method=method)
                times[method].append(time.perf_counter() - start)
            gap = abs(norms["dense"] - norms["power"]) / norms["dense"]
            if gap > AGREEMENT:
                problems.append(f"side {side} seed {seed}: methods differ by {gap:.3g}")
        for method, values in times.items():
            name = f"operators.operator_norm.crossover.{method}_ms.{side}"
            metrics[name] = (1000 * statistics.median(values), "ms")
    return metrics, problems

"""Per-layer attribution for the traced run, from outside the library.

The library is not instrumented.  :class:`Tracer` replaces the public
functions of each module with wrappers that record a span per call (name,
start, end, parent span, op id) and accumulate calls, busy time and self
time per function.  A function is replaced at every module binding it has
(``operator_norm`` is bound in ``operators``, ``localization``, ``duality``
and the package itself), and methods on their class.  ``numpy.linalg``
factorizations are only counted.  :meth:`Tracer.remove` restores every
binding and reports any that still holds a wrapper.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time
from collections import defaultdict

import numpy as np

import normloc
from normloc import operators
from normloc.errors import ConvergenceFailure

# (layer, module attribute or Class.attr, metric name of the function)
TRACED = (
    ("space", "from_graph", "from_graph"),
    ("space", "load_space", "load_space"),
    ("space", "ball", "ball"),
    ("space", "validate_metric", "validate_metric"),
    ("operators", "random_banded", "random_banded"),
    ("operators", "operator_norm", None),  # split into .dense / .power
    ("operators", "BandedOperator.__matmul__", "BandedOperator.matmul"),
    ("operators", "BandedOperator.__post_init__", "BandedOperator.new"),
    ("localization", "compress", "compress"),
    ("localization", "BlockCompression.norm", "BlockCompression.norm"),
    ("localization", "best_localized_vector", "best_localized_vector"),
    ("localization", "localization_report", "localization_report"),
    ("localization", "power_trick_witness", "power_trick_witness"),
    ("localization", "vector_amplification_reduction",
     "vector_amplification_reduction"),
    ("localization", "onl_profile", "onl_profile"),
    ("certificates", "ball_certificate", "ball_certificate"),
    ("certificates", "tree_ray_certificate", "tree_ray_certificate"),
    ("certificates", "subset_to_vector", "subset_to_vector"),
    ("certificates", "kernel_checks", "kernel_checks"),
    ("duality", "a_implies_onl_bound", "a_implies_onl_bound"),
    ("duality", "phi_apply", "phi_apply"),
    ("duality", "kernel_from_cp_map", "kernel_from_cp_map"),
    ("duality", "sampled_cb_norm_check", "sampled_cb_norm_check"),
    ("duality", "equivalence_experiment", "equivalence_experiment"),
    ("cli", "main", "main"),
)

FUNCTIONS = tuple(
    f"{layer}.{fn}"
    for layer, _, metric in TRACED
    for fn in ((metric,) if metric else ("operator_norm.dense", "operator_norm.power"))
)

COUNTERS = (
    "numpy.svd.calls",
    "numpy.svd.matrices",
    "numpy.svd.flops",
    "numpy.qr.calls",
    "numpy.eigvalsh.calls",
    "operators.operator_norm.failed",
)

SHARE = "localization.compress.nonmaximal_ball_share"


def svd_flops(shape, complex_: bool, compute_uv: bool, full_matrices: bool) -> float:
    """Golub-Van Loan operation count of one batched SVD (computed, not measured)."""
    *batch, rows, cols = shape
    q, p = max(rows, cols), min(rows, cols)
    if not compute_uv:
        per = 4 * q * p * p - 4 * p**3 / 3
    elif full_matrices:
        per = 4 * q * q * p + 8 * q * p * p + 9 * p**3
    else:
        per = 14 * q * p * p + 8 * p**3
    return per * math.prod(batch) * (4 if complex_ else 1)


def nonmaximal_balls(dist: np.ndarray, radius: float) -> int:
    """Number of closed balls strictly contained in another ball."""
    member = (dist <= radius).astype(np.int64)
    sizes = member.sum(axis=1)
    overlap = member @ member.T
    inside = (overlap == sizes[:, None]) & (sizes[None, :] > sizes[:, None])
    return int(inside.any(axis=1).sum())


def _normloc_modules():
    return [
        mod for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "normloc" or name.startswith("normloc."))
    ]


class Tracer:
    """Spans and counters for one traced run; patches on :meth:`install`."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.spans: list[tuple] = []
        self.stack: list[list] = []
        self.next_id = 0
        self.stats = {name: [0, 0.0, 0.0] for name in FUNCTIONS}
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.compress_inputs: dict[int, list] = {}
        self.op = "setup"
        self.patches: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def call(self, name, fn, args, kwargs):
        parent = self.stack[-1][0] if self.stack else None
        frame = [self.next_id, 0.0]
        self.next_id += 1
        self.stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            duration = end - start
            stat = self.stats.setdefault(name, [0, 0.0, 0.0])
            stat[0] += 1
            stat[1] += duration
            stat[2] += duration - frame[1]
            if self.stack:
                self.stack[-1][1] += duration
            self.spans.append((frame[0], parent, self.op, name, start, end))

    def span(self, name, fn, *args, **kwargs):
        """Record a span for a call made by the benchmark itself."""
        return self.call(name, fn, args, kwargs)

    def _wrap(self, name, orig, namer=None, before=None):
        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            label = namer(args, kwargs) if namer else name
            return self.call(label, orig, args, kwargs)

        wrapper.perfbench_original = orig
        return wrapper

    def _norm_path(self, args, kwargs):
        a = args[0] if args else kwargs["a"]
        method = kwargs.get("method", args[1] if len(args) > 1 else "auto")
        if method == "auto":
            dense = a.data.shape[0] <= operators.DENSE_NORM_LIMIT
            method = "dense" if dense else "power"
        return f"operators.operator_norm.{method}"

    def _record_compress(self, args, kwargs):
        a = args[0] if args else kwargs["a"]
        radius = args[1] if len(args) > 1 else kwargs["radius"]
        entry = self.compress_inputs.setdefault(id(a.space), [a.space, defaultdict(int)])
        entry[1][radius] += 1

    def _count(self, orig, counter):
        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            counter(args, kwargs)
            return orig(*args, **kwargs)

        wrapper.perfbench_original = orig
        return wrapper

    def _svd_counter(self, args, kwargs):
        arr = np.asarray(args[0])
        compute_uv = kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
        full = kwargs.get("full_matrices", args[1] if len(args) > 1 else True)
        self.counters["numpy.svd.calls"] += 1
        self.counters["numpy.svd.matrices"] += math.prod(arr.shape[:-2])
        self.counters["numpy.svd.flops"] += svd_flops(
            arr.shape, np.iscomplexobj(arr), bool(compute_uv), bool(full)
        )

    def _bump(self, key):
        def counter(args, kwargs):
            self.counters[key] += 1
        return counter

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self.patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        homes = {
            layer: importlib.import_module(f"normloc.{layer}") for layer, _, _ in TRACED
        }
        modules = _normloc_modules()
        for layer, target, metric in TRACED:
            home = homes[layer]
            if "." in target:
                cls_name, attr = target.split(".")
                cls = getattr(home, cls_name)
                orig = cls.__dict__[attr]
                self._patch(cls, attr, self._wrap(f"{layer}.{metric}", orig))
                continue
            orig = getattr(home, target)
            if target == "operator_norm":
                wrapper = self._norm_wrapper(orig)
            elif target == "compress":
                wrapper = self._wrap(
                    f"{layer}.{metric}", orig, before=self._record_compress
                )
            else:
                wrapper = self._wrap(f"{layer}.{metric}", orig)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, attr, wrapper)
        linalg = np.linalg
        for attr, counter in (
            ("svd", self._svd_counter),
            ("qr", self._bump("numpy.qr.calls")),
            ("eigvalsh", self._bump("numpy.eigvalsh.calls")),
        ):
            self._patch(linalg, attr, self._count(getattr(linalg, attr), counter))

    def _norm_wrapper(self, orig):
        inner = self._wrap("operators.operator_norm", orig, namer=self._norm_path)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            try:
                return inner(*args, **kwargs)
            except ConvergenceFailure:
                self.counters["operators.operator_norm.failed"] += 1
                raise

        wrapper.perfbench_original = orig
        return wrapper

    def remove(self) -> list[str]:
        """Restore every patched binding; return those still wrapped."""
        patched, self.patches = self.patches, []
        for owner, attr, orig in reversed(patched):
            setattr(owner, attr, orig)
        left = [
            f"{owner.__name__}.{attr}"
            for owner, attr, orig in patched
            if vars(owner).get(attr) is not orig
        ]
        for mod in _normloc_modules() + [np.linalg]:
            left += [
                f"{mod.__name__}.{attr}" for attr, value in vars(mod).items()
                if hasattr(value, "perfbench_original")
            ]
        for cls in (operators.BandedOperator, normloc.BlockCompression):
            left += [
                f"{cls.__name__}.{attr}" for attr, value in vars(cls).items()
                if hasattr(value, "perfbench_original")
            ]
        return left

    # -- results -----------------------------------------------------------

    def nonmaximal_share(self) -> float:
        """Share of balls, over all compress calls, inside a larger ball."""
        balls = nonmax = 0
        for space, radii in self.compress_inputs.values():
            for radius, calls in radii.items():
                balls += calls * space.n
                nonmax += calls * nonmaximal_balls(space.dist, radius)
        return nonmax / balls if balls else 0.0

    def metrics(self) -> dict:
        out = {}
        for name in FUNCTIONS:
            calls, busy, own = self.stats[name]
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.busy_s"] = (busy, "s")
            out[f"{name}.self_s"] = (own, "s")
        # Computed from operand shapes by svd_flops, not counted by hardware.
        out["numpy.svd.flops"] = (float(self.counters["numpy.svd.flops"]), "flop-computed")
        for key in COUNTERS:
            out.setdefault(key, (self.counters[key], "count"))
        out[SHARE] = (self.nonmaximal_share(), "ratio")
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, parent, op, name, start, end in sorted(self.spans):
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "op": op, "name": name,
                    "start": start - self.origin, "end": end - self.origin,
                }) + "\n")

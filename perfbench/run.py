"""normloc benchmark: closed-loop workloads with checked outputs.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload tree-search --seed 1 --seconds 45 --trace 0

One client runs one op at a time (a closed loop) in a single worker
process with one BLAS thread.  Op seeds come from ``--seed`` alone
(``workloads.op_seed``) and every op is checked against its workload's
verdict.  Workloads and why each exists: see ``workloads.py``.

``--trace 0`` measures the end-to-end metrics.  Two probe processes set up
the workload and replay the first ``PROBE_OPS`` ops; the worker then sets
up once more and runs ops for ``--seconds``.  ``setup_s`` is the median
set-up time of the three processes, from spawn to the first timed op.  The
digests of the replayed ops must match the worker's, or the run is not
correct.  The printed output digest covers the worker's first
``workloads.DIGEST_OPS`` ops, so runs of two versions of the program with
one seed can be compared byte for byte.

``--trace 1`` runs each of ``TRACE_OPS`` ops twice in one worker: once
with every public library function wrapped (``tracer.py``) and once with
the wrappers removed.  It reports the per-layer metrics of the traced
runs, set-up included, the tracing overhead on ``op_p50_ms`` and the dense
versus power ``operator_norm`` crossover sweep (``crossover.py``).  The
traced and untraced digests must match and every wrapper must be gone after
each traced op.  Counts repeat exactly for a given seed, because the number
of ops is fixed.

The second-to-last line of output is a JSON report with the environment,
the output digest and every metric, ``failed_op_ratio`` included; the last
line is the result ``{"correct", "attempted", "failed", "metrics"}``.  Both
are also written to ``.perfbench-out/``, with the trace spans.  The exit code
is 0 only for a correct run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"

PROBES = 2
# Probes replay only a short prefix: a run has little time left besides the
# timed loop.
PROBE_OPS = 3
TRACE_OPS = 12
# Every worker is killed by this many seconds after the run started, so a
# run ends inside three minutes whatever the program does.
RUN_LIMIT = 170


def source_digest() -> str:
    """sha256 over the library sources, which identifies the code measured."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "normloc").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def spawn(args, tag: str, extra: list) -> dict:
    """Run one worker to completion and return its JSON report."""
    argv = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--workdir", str(OUT / f"work-{os.getpid()}-{tag}"), *extra,
    ]
    argv += ["--spawn-time", repr(time.monotonic())]
    done = subprocess.run(
        argv, cwd=ROOT, capture_output=True, text=True,
        timeout=max(1.0, args.deadline - time.monotonic()),
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"worker {tag} exited {done.returncode}:\n{done.stderr.strip()[-2000:]}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def percentile(values, share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def end_to_end(worker: dict, setups: list) -> dict:
    """Every end-to-end metric as name -> (value, unit)."""
    lat = worker["latencies_s"]
    failed = len(worker["failures"])
    return {
        "ops_per_s": ((len(lat) - failed) / worker["loop_s"], "1/s"),
        "op_p50_ms": (1000 * statistics.median(lat), "ms"),
        "op_p90_ms": (1000 * percentile(lat, 0.9), "ms"),
        "failed_op_ratio": (failed / len(lat), "ratio"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (worker["peak_rss_mb"], "MB"),
    }


def untraced(args) -> tuple:
    probes = [spawn(args, f"probe{k}", ["--ops", str(PROBE_OPS)]) for k in range(PROBES)]
    worker = spawn(args, "worker", ["--seconds", str(args.seconds)])
    setups = [p["setup_s"] for p in probes] + [worker["setup_s"]]
    metrics = end_to_end(worker, setups)
    lat = worker["latencies_s"]
    checks = {
        "no_failed_ops": not worker["failures"],
        "probe_digests_match": all(
            p["op_digests"] == worker["op_digests"][:PROBE_OPS] for p in probes
        ),
        "probes_ok": all(not p["failures"] for p in probes),
    }
    report = {
        "ops": len(lat),
        "ops_beyond_p90": len(lat) - math.ceil(0.9 * len(lat)),
        "digest_ops": len(worker["op_digests"]),
        "digest": worker["digest"],
        "probe_ops": PROBE_OPS,
        "setup_samples_s": setups,
        "failures": worker["failures"][:20],
        "env": worker["env"],
    }
    return metrics, report, checks, len(lat), len(worker["failures"])


def traced(args) -> tuple:
    spans = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
    worker = spawn(
        args, "traced",
        ["--ops", str(TRACE_OPS), "--trace", str(spans)],
    )
    metrics = dict(worker["layers"])
    metrics.update(worker["crossover"])
    overhead = statistics.median(worker["latencies_s"]) - statistics.median(
        worker["untraced_latencies_s"]
    )
    metrics["trace.overhead_op_p50_ms"] = (1000 * overhead, "ms")
    checks = {
        "no_failed_ops": not worker["failures"],
        "traced_digest_matches_untraced": worker["digest"] == worker["untraced_digest"],
        "wrappers_removed": not worker["wrappers_left"],
        "crossover_methods_agree": not worker["crossover_problems"],
    }
    report = {
        "ops": TRACE_OPS,
        "digest": worker["digest"],
        "untraced_digest": worker["untraced_digest"],
        "spans": str(spans.relative_to(ROOT)),
        "wrappers_left": worker["wrappers_left"],
        "crossover_problems": worker["crossover_problems"],
        "failures": worker["failures"][:20],
        "env": worker["env"],
    }
    return metrics, report, checks, 2 * TRACE_OPS, len(worker["failures"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    args.deadline = time.monotonic() + RUN_LIMIT
    if not (ROOT / "src" / "normloc" / "__init__.py").is_file():
        print(f"error: no normloc sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    OUT.mkdir(exist_ok=True)
    try:
        metrics, report, checks, attempted, failed = (traced if args.trace else untraced)(args)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report["env"].update(
        nproc=os.cpu_count(),
        affinity=len(os.sched_getaffinity(0)),
        git_commit=git_commit(),
        source_sha256=source_digest(),
    )
    # None where the loaded BLAS cannot be asked; the variables are still set.
    checks["blas_one_thread"] = report["env"]["blas_threads"] in (1, None)
    report.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, checks=checks)
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    if not args.trace:
        # Reported, not gated: it is 0 in every correct run, so it has no
        # spread to bound.  The result's "failed" and "attempted" carry it.
        del metrics["failed_op_ratio"]
    result = {
        "correct": all(checks.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    stem = f"result-{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(
        json.dumps({"report": report, "result": result}, indent=2, sort_keys=True) + "\n"
    )
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark process: set up a workload, run its ops, report as JSON.

Started by ``run.py``; not meant to be run by hand.  BLAS is pinned to one
thread before numpy is imported.  The last line of standard output is a
JSON object with the set-up time, per-op latencies and failures, the
output digests of the first ``workloads.DIGEST_OPS`` ops and their fold,
peak RSS and, for a traced run, the per-layer metrics and the crossover
sweep.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def import_program() -> None:
    """Import normloc from this checkout's sources, never from elsewhere."""
    import normloc

    origin = Path(normloc.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise ImportError(f"normloc imported from {origin}, not from {ROOT / 'src'}")


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "blas_threads": blas_threads(),
    }


def timed_op(workload, seed: int, run) -> tuple[float, workloads.Verdict]:
    """Latency of ``run(seed)`` and the workload's verdict on its result."""
    start = time.perf_counter()
    try:
        result = run(seed)
        latency = time.perf_counter() - start
        return latency, workload.check(result)
    except (Exception, SystemExit) as exc:  # an op that raises has failed
        latency = time.perf_counter() - start
        return latency, workloads.Verdict(False, b"", f"raised {exc!r}")


def op_digest(index: int, verdict: workloads.Verdict) -> str:
    """sha256 of one op's verdict and output material."""
    digest = hashlib.sha256(f"op {index} ok={verdict.ok}\n".encode())
    digest.update(hashlib.sha256(verdict.material).digest())
    return digest.hexdigest()


def fold(op_digests: list) -> str:
    """The output digest of a run: sha256 over its per-op digests in order."""
    return hashlib.sha256("".join(op_digests).encode()).hexdigest()


def run_ops(workload, args) -> dict:
    """Closed loop for ``--seconds`` (or exactly ``--ops`` ops), untraced.

    A timed loop runs at least ``workloads.DIGEST_OPS`` ops, the prefix
    that the output digest covers.
    """
    latencies, failures, op_digests = [], [], []
    start = time.perf_counter()
    index = 0
    while True:
        elapsed = time.perf_counter() - start
        if args.ops is not None:
            if index >= args.ops:
                break
        elif elapsed >= args.seconds and index >= workloads.DIGEST_OPS:
            break
        seed = workloads.op_seed(args.workload, args.seed, index)
        latency, verdict = timed_op(workload, seed, workload.run)
        latencies.append(latency)
        if not verdict.ok:
            failures.append([index, verdict.reason])
        if index < workloads.DIGEST_OPS:
            op_digests.append(op_digest(index, verdict))
        index += 1
    return {
        "latencies_s": latencies,
        "failures": failures,
        "loop_s": time.perf_counter() - start,
        "op_digests": op_digests,
        "digest": fold(op_digests),
    }


def run_traced(workload, args, tracer) -> dict:
    """Each of ``--ops`` ops twice: traced, and with every wrapper removed.

    The two runs of an op are adjacent, and which goes first alternates,
    so the latency difference is the tracing overhead rather than drift in
    machine speed.  Wrappers are installed before a traced op's timer
    starts and removed after it stops, so the overhead is that of tracing
    calls alone.  Both runs of every op feed their own digest.
    """
    wrappers_left = tracer.remove()

    def traced(seed):
        return tracer.span("bench.op", workload.run, seed)

    runs = {"traced": traced, "untraced": workload.run}
    latencies = {mode: [] for mode in runs}
    op_digests = {mode: [] for mode in runs}
    failures = []
    for index in range(args.ops):
        seed = workloads.op_seed(args.workload, args.seed, index)
        tracer.op = index
        for mode in sorted(runs, reverse=index % 2 == 1):
            if mode == "traced":
                tracer.install()
            try:
                latency, verdict = timed_op(workload, seed, runs[mode])
            finally:
                if mode == "traced":
                    wrappers_left.extend(tracer.remove())
            latencies[mode].append(latency)
            if not verdict.ok:
                failures.append([index, f"{mode}: {verdict.reason}"])
            op_digests[mode].append(op_digest(index, verdict))
    return {
        "latencies_s": latencies["traced"],
        "untraced_latencies_s": latencies["untraced"],
        "failures": failures,
        "digest": fold(op_digests["traced"]),
        "untraced_digest": fold(op_digests["untraced"]),
        "wrappers_left": wrappers_left,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--ops", type=int, default=None, help="run exactly this many ops")
    parser.add_argument("--spawn-time", type=float, required=True,
                        help="time.monotonic() of the parent just before spawning")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", default=None,
                        help="trace --ops ops, write the spans here (JSON lines) "
                        "and run the crossover sweep")
    args = parser.parse_args(argv)

    import_program()
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    workload = workloads.WORKLOADS[args.workload]()
    os.makedirs(args.workdir, exist_ok=True)
    try:
        if tracer is None:
            workload.setup(args.workdir)
        else:
            tracer.span("bench.setup", workload.setup, args.workdir)
            tracer.op = "warmup"
        warm = workload.check(
            workload.run(workloads.op_seed(args.workload, workloads.WARMUP_SEED, 0))
        )
        if not warm.ok:
            raise RuntimeError(f"warm-up op failed: {warm.reason}")
        setup_s = time.monotonic() - args.spawn_time
        if tracer is None:
            out = run_ops(workload, args)
        else:
            out = run_traced(workload, args, tracer)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    out["setup_s"] = setup_s
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["env"] = environment()
    if tracer is not None:
        out["layers"] = tracer.metrics()
        tracer.write_spans(args.trace)
        import crossover

        out["crossover"], out["crossover_problems"] = crossover.sweep()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

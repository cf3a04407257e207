"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""

import json
import subprocess
import sys
import time
from argparse import Namespace
from pathlib import Path

import run
import worker
import workloads

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _worker_digest(tmp_path, seed: int, tag: str) -> str:
    argv = [
        sys.executable, str(HERE / "worker.py"), "--workload", "tree-search",
        "--seed", str(seed), "--ops", "2",
        "--workdir", str(tmp_path / tag), "--spawn-time", repr(time.monotonic()),
    ]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])["digest"]


def test_op_sequence_depends_only_on_workload_seed(tmp_path):
    seeds = [workloads.op_seed("cb-wide", 7, i) for i in range(50)]
    assert seeds == [workloads.op_seed("cb-wide", 7, i) for i in range(50)]
    assert len(set(seeds)) == 50 and all(0 <= s < 2**63 for s in seeds)
    assert seeds != [workloads.op_seed("cb-wide", 8, i) for i in range(50)]
    assert seeds != [workloads.op_seed("equiv-cycle", 7, i) for i in range(50)]
    # Separate processes with the same seed produce byte-identical outputs.
    first = _worker_digest(tmp_path, 7, "a")
    assert first == _worker_digest(tmp_path, 7, "b")
    assert first != _worker_digest(tmp_path, 8, "c")


def _run(trace: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "tree-search",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=180,
    )
    assert done.returncode == 0, done.stderr
    *_, report, result = done.stdout.strip().splitlines()
    return json.loads(report)["report"], json.loads(result)


def _units(metrics: dict) -> dict:
    return {name: entry["unit"] for name, entry in metrics.items()}


def test_every_named_metric_is_emitted_with_its_unit():
    report, result = _run(trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert _units(result["metrics"]) == want
    assert _units(report["metrics"]) == {**want, "failed_op_ratio": "ratio"}
    assert report["metrics"]["failed_op_ratio"]["value"] == 0
    for key in ("nproc", "blas_threads", "python", "numpy", "blas", "source_sha256"):
        assert report["env"][key]
    assert len(report["digest"]) == 64
    assert report["digest_ops"] == workloads.DIGEST_OPS

    report, result = _run(trace=1)
    assert result["correct"], report["checks"]
    want = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert _units(result["metrics"]) == want
    assert result["metrics"]["localization.compress.nonmaximal_ball_share"]["value"] > 0.9


def test_forced_failure_counts_in_failed_op_ratio(tmp_path):
    workload = workloads.CbWide(n=20, extra=("--fraction-floor", "1.01"))
    workload.setup(str(tmp_path))
    args = Namespace(workload="cb-wide", seed=0, ops=3, seconds=0.0)
    out = worker.run_ops(workload, args)
    assert [index for index, _ in out["failures"]] == [0, 1, 2]
    assert all(reason.startswith("exit 4") for _, reason in out["failures"])
    out.update(setup_s=1.0, peak_rss_mb=1.0)
    metrics = run.end_to_end(out, [1.0])
    assert metrics["failed_op_ratio"] == (1.0, "ratio")
    assert metrics["ops_per_s"][0] == 0.0

"""The benchmark harness runs every workload end to end on this checkout.

``perfbench/worker.py`` drives the scoring and training protocol through its
own wrappers, so a change to that protocol can break the benchmark while
every other test passes.  This runs ``perfbench/run.py`` briefly (about 8 s)
and reads its per-workload JSON lines; it writes nothing but the harness's
own ``.bench_build/`` directory, which the harness removes.  The per-layer
profile's hooks are checked too: ``perfbench/spans.py`` wraps functions of
the program by name, and one it cannot find reads 0 without failing.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# Seed-1 figures of one short run; the workloads are seeded and run on one
# BLAS thread, so only a change to the computation moves them.
BASELINES = {
    "train-guard": ("train_loss", 3.917557339335597),
    "train-ultra": ("train_loss", 3.7386254212435555),
    "eval-large": ("eval_mrr", 0.15665237666650503),
}


def test_every_benchmark_workload_runs_and_keeps_its_baseline():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", "1",
         "--seconds", "0.1"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    reports = {line["workload"]: line["report"] for line in lines}
    assert set(reports) == set(BASELINES)
    for workload, (metric, expected) in BASELINES.items():
        assert reports[workload]["error_rate"] == 0, workload
        assert reports[workload][metric] == pytest.approx(expected, rel=1e-9, abs=0), workload


INSTALL_TRACER = """
import json, sys
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1] + "/perfbench"]
from spans import Tracer
tracer = Tracer()
tracer.install()
tracer.uninstall()
print(json.dumps(tracer.absent))
"""

# Wrapped by the benchmark, but since merged into ``encode``.
STALE_HOOKS = {"hyrel.encoder.encode_with_edge_states"}


def test_every_traced_function_of_the_benchmark_exists():
    proc = subprocess.run([sys.executable, "-c", INSTALL_TRACER, str(ROOT)], cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert set(json.loads(proc.stdout)) <= STALE_HOOKS

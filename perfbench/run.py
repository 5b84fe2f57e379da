"""Seeded train/eval benchmark of hyrel.

    python3 perfbench/run.py --workload train-guard --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from the root of a checkout.  For one workload it generates the bundle
from the seed under ``.bench_build/`` (twice, and checks that both copies are
byte-identical), runs ``worker.py`` on it in a fresh process, and prints two
JSON lines: the run's details (provenance, workload spec, the named report
metrics, repetition times), then the result.  With ``--trace 0`` the result
holds the ``end_to_end`` metrics of ``BENCHMARK.json``; with ``--trace 1``
its ``per_layer`` metrics.  ``--workload all`` runs every workload untraced,
one fresh process each, and prints the report table.

Exit codes: 0 success, 1 a check failed, 2 the program or the benchmark
definition could not be found.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402

DEADLINE_S = 170.0

# Named end-to-end figures, printed per workload next to the gated metrics;
# ``qps`` is train_qps on the train workloads and eval_qps on eval-large.
REPORT_UNITS = {
    "train_qps": "queries/s", "eval_qps": "queries/s", "setup_s": "s",
    "peak_rss_mb": "MB", "train_loss": "nats", "valid_mrr": "1", "eval_mrr": "1",
    "error_rate": "fraction",
}


def commit() -> str:
    """The checkout's git commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def prepare(workload: gen.Workload, seed: int, base: Path) -> tuple[Path, Path | None, dict]:
    """Generate the bundle (and eval checkpoint) twice; check the copies agree."""
    copies = []
    for tag in ("a", "b"):
        out = base / tag
        spec = gen.generate(workload, seed, out / "bundle")
        if workload.task == "eval":
            _write_checkpoint(out, seed)
        copies.append(out)
    files_a = sorted(p.relative_to(copies[0]) for p in copies[0].rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(copies[1]) for p in copies[1].rglob("*") if p.is_file())
    if files_a != files_b or any((copies[0] / f).read_bytes() != (copies[1] / f).read_bytes()
                                 for f in files_a):
        raise RuntimeError(f"seed {seed} did not give byte-identical inputs")
    ckpt = copies[0] / "ckpt" / "ckpt_final.bin" if workload.task == "eval" else None
    return copies[0] / "bundle", ckpt, spec


def _write_checkpoint(out: Path, seed: int) -> None:
    """A seeded-init checkpoint, written by ``fit`` with zero epochs."""
    from worker import import_program
    hyrel = import_program()
    bundle = hyrel.io.load_bundle(out / "bundle")
    hyrel.training.fit(bundle, hyrel.training.TrainConfig(epochs=0, seed=seed), out / "ckpt")


def run_workload(name: str, seed: int, seconds: float, trace: int) -> tuple[int, dict | None]:
    """Run one workload in a fresh worker process; (exit code, its output)."""
    workload = gen.WORKLOADS[name]
    base = ROOT / ".bench_build" / "perfbench" / f"{name}-s{seed}-{os.getpid()}"
    started = time.monotonic()
    try:
        bundle, ckpt, spec = prepare(workload, seed, base)
        expect = dict(spec["queries"], train_facts=spec["facts"]["train"])
        cmd = [sys.executable, str(HERE / "worker.py"), "--task", workload.task,
               "--structure", workload.structure, "--bundle", str(bundle),
               "--expect", json.dumps(expect), "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
        if ckpt is not None:
            cmd += ["--checkpoint", str(ckpt)]
        timeout = DEADLINE_S - (time.monotonic() - started)
        # A fixed hash seed keeps set and dict layouts, and so their cost, equal
        # from run to run.  One BLAS thread keeps the run on one vCPU, where
        # the speed probes of speed.py see what the program sees.
        env = dict(os.environ, PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1",
                   OMP_NUM_THREADS="1")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout, env=env)
    except subprocess.TimeoutExpired:
        print(f"{name}: the worker ran past {DEADLINE_S:.0f} s and was stopped", file=sys.stderr)
        return 1, None
    finally:
        shutil.rmtree(base, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    output = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, output


def report(name: str, out: dict) -> dict:
    """The named end-to-end figures of one untraced run; None where not measured."""
    m, r = out.get("metrics", {}), out.get("results", {})
    train = gen.WORKLOADS[name].task == "train"
    qps = m.get("qps")
    return {
        "train_qps": qps if train else None,
        "eval_qps": None if train else qps,
        "setup_s": m.get("setup_s"),
        "peak_rss_mb": m.get("peak_rss_mb"),
        "train_loss": r.get("train_loss"),
        "valid_mrr": r.get("valid_mrr"),
        "eval_mrr": r.get("eval_mrr"),
        "error_rate": out["failed"] / out["attempted"] if out.get("attempted") else None,
    }


def result_line(out: dict, declared: list[dict]) -> dict:
    missing = [d["name"] for d in declared if d["name"] not in out.get("metrics", {})]
    correct = out["failed"] == 0 and not missing
    return {
        "correct": correct,
        "attempted": out["attempted"],
        "failed": out["failed"] if correct else out["attempted"],
        "metrics": {d["name"]: {"value": out["metrics"][d["name"]], "unit": d["unit"]}
                    for d in declared if d["name"] not in missing},
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*gen.WORKLOADS, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    try:
        definition = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as e:
        print(f"cannot read BENCHMARK.json: {e}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "hyrel" / "__init__.py").is_file():
        print(f"no hyrel package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(gen.WORKLOADS) if args.workload == "all" else [args.workload]
    trace = 0 if args.workload == "all" else args.trace
    rows = {}
    for name in names:
        code, out = run_workload(name, args.seed, args.seconds, trace)
        if out is None:
            print(f"{name}: the worker exited with {code} and printed no result",
                  file=sys.stderr)
            return code or 1
        detail = {"workload": name, "seed": args.seed, "commit": commit(),
                  **{k: v for k, v in out.items() if k not in ("metrics", "attempted", "failed")}}
        if not trace:
            detail["report"] = rows[name] = report(name, out)
        print(json.dumps(detail))
        if args.workload != "all":
            declared = definition["per_layer" if trace else "end_to_end"]
            result = result_line(out, declared)
            print(json.dumps(result))
            return 0 if code == 0 and result["correct"] else 1
        if code != 0:
            return code
    print(f"{'metric':<14}{'unit':<11}" + "".join(f"{n:>14}" for n in names))
    for metric, unit in REPORT_UNITS.items():
        cells = "".join(f"{'-' if rows[n][metric] is None else format(rows[n][metric], '.4g'):>14}"
                        for n in names)
        print(f"{metric:<14}{unit:<11}{cells}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

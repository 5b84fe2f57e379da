"""One measured workload run, in a process of its own.

``run.py`` generates the bundle and starts this script, so that warm-up and
peak RSS belong to the workload alone.  It loads the bundle through the
program's public entry points, repeats the workload's main phase (one
``fit`` epoch, or one filtered ``evaluate_bundle`` pass) for about
``--seconds`` seconds, checks every result, and prints one JSON object as
its last line.

The timed figures are times at a reference speed (see ``speed.py``).  Each
repetition is cut into pieces at marks that the program's public interfaces
already give: every ``TrainStats.candidate_counts`` entry (one per training
query) and every ``entity_scores`` call of the evaluated model (one per test
query).

With ``--trace 1`` it instead times one untraced and one traced repetition,
without marks, and reports the per-layer figures.

Exit codes: 0 success, 1 a check failed or the program raised, 2 the
program could not be imported.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from speed import Marks, reference_time

ROOT = Path(__file__).resolve().parent.parent
SETUP_SECONDS = 2.0
MIN_SETUP_REPS = 5
MIN_REPS = 3
SCORE_SAMPLE = 8


class CheckFailed(Exception):
    pass


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def import_program():
    """Import ``hyrel`` from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "hyrel" / "__init__.py").is_file():
        raise ImportError(f"no hyrel package under {src}")
    sys.path.insert(0, str(src))
    import hyrel
    if Path(hyrel.__file__).resolve().parent != (src / "hyrel").resolve():
        raise ImportError(f"hyrel was imported from {hyrel.__file__}, not {src}")
    return hyrel


def blas_threads() -> int | None:
    """OpenBLAS's own thread count, read from the loaded library."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance() -> dict:
    import numpy as np
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


class StampedList(list):
    """A list that stamps ``marks`` at every ``append``."""

    def __init__(self, marks: Marks):
        super().__init__()
        self.marks = marks

    def append(self, item) -> None:
        self.marks.stamp()
        super().append(item)


class StampedModel:
    """A scoring model that stamps ``marks`` at every ``entity_scores`` call."""

    def __init__(self, model, marks: Marks):
        self.model = model
        self.marks = marks

    def prepare(self, kg):
        return self.model.prepare(kg)

    def entity_scores(self, ctx, query):
        self.marks.stamp()
        return self.model.entity_scores(ctx, query)

    def __getattr__(self, name):
        return getattr(self.model, name)


class Workload:
    """Set-up and main phase of one workload, with the checks on each result."""

    def __init__(self, hyrel, args):
        self.hyrel = hyrel
        self.args = args
        self.expect = json.loads(args.expect)
        self.is_train = args.task == "train"
        self.bundle = None
        self.predictor = None
        self.first = None

    @property
    def phase_queries(self) -> int:
        """Queries one main-phase repetition scores (training plus validation)."""
        e = self.expect
        return e["train"] + e["valid"] if self.is_train else e["test"]

    def setup(self) -> Marks:
        """Load the inputs; the marks before and after time it."""
        marks = Marks()
        gc.collect()
        marks.stamp()
        self.bundle = self.hyrel.io.load_bundle(self.args.bundle)
        if not self.is_train:
            ckpt = self.hyrel.training.Checkpoint.load(self.args.checkpoint)
            self.predictor = ckpt.predictor()
        marks.stamp()
        return marks

    def check_bundle(self) -> None:
        diag = self.bundle.diagnostics()
        check(diag.entity_disjoint and diag.relation_disjoint,
              "train and inference vocabularies overlap")
        check(self.bundle.train.num_facts == self.expect["train_facts"],
              "load_bundle read a different number of train facts than generated")

    def run_once(self, marks: Marks | None = None) -> tuple[float, dict]:
        """One main-phase repetition: (wall seconds, its checked result).

        With ``marks``, the repetition is also cut into pieces there.
        """
        h = self.hyrel
        gc.collect()  # every repetition starts from the same heap, not the last one's garbage
        if marks is not None:
            marks.stamp()
        if self.is_train:
            cfg = h.training.TrainConfig(epochs=1, seed=self.args.seed,
                                         structure=self.args.structure)
            stats = h.training.TrainStats()
            if marks is not None:
                stats.candidate_counts = StampedList(marks)
            start = time.perf_counter()
            ckpt = h.training.fit(self.bundle, cfg, stats=stats)
            wall = time.perf_counter() - start
            result = self._check_fit(ckpt, stats)
        else:
            model = self.predictor if marks is None else StampedModel(self.predictor, marks)
            start = time.perf_counter()
            metrics = h.evaluation.evaluate_bundle(model, self.bundle, split="test")
            wall = time.perf_counter() - start
            result = self._check_eval(metrics)
        if marks is not None:
            marks.stamp()
        if self.first is None:
            self.first = result
        check(result == self.first, f"repetition gave {result}, first gave {self.first}")
        return wall, result

    def _check_fit(self, ckpt, stats) -> dict:
        n = self.expect["train"]
        check(len(stats.candidate_counts) == n,
              f"fit scored {len(stats.candidate_counts)} training queries, generated {n}")
        check(all(c == self.bundle.train.num_entities for c in stats.candidate_counts),
              "a training query was not scored against the full entity vocabulary")
        check(all(math.isfinite(x) for x in stats.step_losses), "non-finite step loss")
        check(len(ckpt.loss_history) == 1 and math.isfinite(ckpt.loss_history[0]),
              f"epoch loss history {ckpt.loss_history}")
        check(len(ckpt.valid_history) == 1 and 0.0 < ckpt.valid_history[0] <= 1.0,
              f"valid MRR history {ckpt.valid_history} not in (0, 1]")
        return {"train_loss": ckpt.loss_history[0], "valid_mrr": ckpt.valid_history[0]}

    def _check_eval(self, metrics) -> dict:
        n = self.expect["test"]
        check(metrics.count_all == n, f"evaluated {metrics.count_all} queries, generated {n}")
        check(0.0 < metrics.mrr_all <= 1.0, f"test MRR {metrics.mrr_all} not in (0, 1]")
        return {"eval_mrr": metrics.mrr_all}

    def check_scores(self) -> None:
        """A fixed sample of score vectors is finite and sums to one."""
        import numpy as np
        kg = self.bundle.inference
        queries = self.hyrel.model.queries_from_facts(self.bundle.test)
        picks = np.linspace(0, len(queries) - 1, SCORE_SAMPLE).round().astype(int)
        ctx = self.predictor.prepare(kg)
        for i in sorted(set(picks.tolist())):
            s = np.asarray(self.predictor.entity_scores(ctx, queries[i]), dtype=np.float64)
            check(s.shape == (kg.num_entities,), f"query {i}: score shape {s.shape}")
            check(bool(np.isfinite(s).all()), f"query {i}: non-finite scores")
            check(abs(s.sum() - 1.0) < 1e-3, f"query {i}: scores sum to {s.sum()}")

    def spec(self) -> dict:
        """Sizes of the loaded bundle, with the edge counts of both foundation graphs."""
        h, b = self.hyrel, self.bundle
        annotated = self.args.structure == "relation-driven"
        out = {"queries": self.expect}
        for name, kg in (("train", b.train), ("inference", b.inference)):
            out[name] = {
                "facts": kg.num_facts, "entities": kg.num_entities,
                "relations": kg.num_relations,
                "relation_edges": h.foundation.build_relation_graph(kg).num_edges,
                "entity_edges": h.foundation.build_entity_graph(
                    kg, with_fact_relations=annotated).num_edges,
            }
        out["valid_facts"], out["test_facts"] = len(b.valid), len(b.test)
        return out


def repeat_setup(work: Workload, seconds: float, runs: list[Marks]) -> None:
    """Repeat the set-up for about ``seconds``, at least MIN_SETUP_REPS times."""
    started = time.perf_counter()
    n = 0
    while n < MIN_SETUP_REPS or time.perf_counter() - started < seconds:
        runs.append(work.setup())
        n += 1


def measure(work: Workload, seconds: float, setups: list[Marks]) -> list[Marks]:
    """Repeat the main phase for about ``seconds``; at least MIN_REPS times
    unless that would take over three times as long.  After each repetition
    the set-up is repeated as well, so its median spans the whole run."""
    reps: list[Marks] = []
    started = time.perf_counter()
    while True:
        reps.append(Marks())
        work.run_once(reps[-1])
        repeat_setup(work, SETUP_SECONDS / MIN_REPS, setups)
        elapsed = time.perf_counter() - started
        last = reps[-1].total()
        if len(reps) < MIN_REPS:
            if elapsed + last > 3 * seconds:
                break
        elif elapsed + last > seconds:
            break
    return reps


def traced(work: Workload, untraced_s: float) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of one traced repetition, and the wrapper targets absent."""
    from spans import Tracer
    tracer = Tracer()
    tracer.install()
    try:
        for _ in range(3):
            work.setup()
        load_s = tracer.total["io.load_bundle"] / max(tracer.calls["io.load_bundle"], 1)
        ckpt_calls = tracer.calls["training.checkpoint_load"]
        ckpt_s = tracer.total["training.checkpoint_load"] / ckpt_calls if ckpt_calls else 0.0
        tracer.reset()
        wall, result = work.run_once()
    finally:
        tracer.uninstall()
    out = tracer.layer_metrics(wall, work.phase_queries)
    out.update({
        "io.load_bundle_s": load_s,
        "training.checkpoint_load_s": ckpt_s,
        "training.epoch_loss": result.get("train_loss", 0.0),
        "trace.wall_s": wall,
        "trace.overhead_frac": wall / untraced_s - 1.0,
    })
    return out, tracer.absent


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--task", choices=("train", "eval"), required=True)
    p.add_argument("--structure", required=True)
    p.add_argument("--bundle", required=True)
    p.add_argument("--checkpoint")
    p.add_argument("--expect", required=True, help="generated query counts, as JSON")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    try:
        hyrel = import_program()
        for sub in ("io", "training", "evaluation", "foundation", "model"):
            importlib.import_module(f"hyrel.{sub}")
    except ImportError as e:
        print(f"cannot import the program: {e}", file=sys.stderr)
        return 2

    work = Workload(hyrel, args)
    out = {"provenance": provenance(), "attempted": 0, "failed": 0}
    try:
        setups: list[Marks] = []
        repeat_setup(work, SETUP_SECONDS / MIN_REPS, setups)
        work.check_bundle()
        if args.trace:
            work.run_once()                   # warm-up, as the untraced runs' floor skips it
            untraced_s, _ = work.run_once()
            out["attempted"] = 2 * work.phase_queries
            metrics, out["absent"] = traced(work, untraced_s)
            out["attempted"] += work.phase_queries
        else:
            reps = measure(work, args.seconds, setups)
            out["attempted"] = len(reps) * work.phase_queries
            phase = work.expect["train"] if work.is_train else work.expect["test"]
            phase_s = reference_time(reps)
            metrics = {
                "qps": phase / phase_s,
                "setup_s": statistics.median(reference_time([m]) for m in setups),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            out["timing"] = {
                "rep_s": [m.total() for m in reps],
                "rep_pieces": [len(m.pieces()) for m in reps],
                "reference_phase_s": phase_s,
                "fastest_probe_s": min(q for m in reps + setups for q in m.probes()),
                "median_probe_s": statistics.median(q for m in reps for q in m.probes()),
                "setup_reps": len(setups),
                "median_setup_s": statistics.median(m.total() for m in setups),
            }
            out["results"] = work.first
        if not work.is_train:
            work.check_scores()
        out["spec"] = work.spec()
    except Exception as e:  # a failed check or a program error fails the run's queries
        traceback.print_exc(file=sys.stderr)
        out["attempted"] = max(out["attempted"], work.phase_queries)
        out["failed"] = out["attempted"]
        out["error"] = f"{type(e).__name__}: {e}"
        print(json.dumps(out))
        return 1
    out["metrics"] = metrics
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

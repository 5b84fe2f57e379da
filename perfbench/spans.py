"""Per-layer tracing from outside the program.

:class:`Tracer` replaces public functions of ``hyrel`` modules with timing
wrappers, installed where the callers resolve the names (a module attribute
read at call time, or a class attribute), and restores the originals on
:meth:`Tracer.uninstall`.  Each wrapper records a span on a stack, so a
span's self time is its duration minus the time of the spans it caused.
``Value.__init__`` is only counted, never timed: it runs thousands of times
per query.

A target that no longer exists is reported as absent and skipped; its
metrics then read 0.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

import numpy as np

LAYERS = ("foundation", "encoder", "decoder", "autodiff", "training", "evaluation")

# (module, attribute path, span name); the span's layer is its first component.
TARGETS = (
    ("hyrel.io", "load_bundle", "io.load_bundle"),
    ("hyrel.training", "Checkpoint.load", "training.checkpoint_load"),
    ("hyrel.training", "fit", "training.fit"),
    ("hyrel.training", "train_step", "training.train_step"),
    ("hyrel.training", "clip_global_norm", "autodiff.clip_global_norm"),
    ("hyrel.training", "evaluate", "evaluation.valid_eval"),
    ("hyrel.predictor", "build_relation_graph", "foundation.relation_build"),
    ("hyrel.predictor", "build_entity_graph", "foundation.entity_build"),
    ("hyrel.predictor", "LinkPredictor.entity_scores", "evaluation.score"),
    ("hyrel.encoder", "encode", "encoder.encode"),
    ("hyrel.encoder", "encode_with_edge_states", "encoder.encode_with_edge_states"),
    ("hyrel.autodiff", "backward", "autodiff.backward"),
    ("hyrel.autodiff", "scatter_add", "autodiff.scatter_add"),
    ("hyrel.autodiff", "gather", "autodiff.gather"),
    ("hyrel.autodiff", "Adam.step", "autodiff.adam_step"),
    ("hyrel.evaluation", "evaluate_bundle", "evaluation.evaluate_bundle"),
    ("hyrel.evaluation", "completion_index", "evaluation.completion_index"),
    ("hyrel.evaluation", "filter_set", "evaluation.filter_set"),
    ("hyrel.evaluation", "rank_of", "evaluation.rank_of"),
)
DECODER_MODULE = "hyrel.decoder"        # every public function is wrapped
VALUE_INIT = ("hyrel.autodiff", "Value.__init__")


class Tracer:
    """Span stack plus the counters the per-layer metrics are made from."""

    def __init__(self):
        self._restore: list[tuple[object, str, object]] = []
        self.absent: list[str] = []
        self._stack: list[list[float]] = []   # per open span: time of its child spans
        self._depth: dict[str, int] = defaultdict(int)
        self.reset()

    def reset(self) -> None:
        """Forget everything recorded so far; the wrappers stay installed."""
        self.total: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.layer_total: dict[str, float] = defaultdict(float)
        self.layer_self: dict[str, float] = defaultdict(float)
        self.values = 0
        self.encoder_edge_layers = 0
        self.encoder_relation_s = 0.0
        self.encoder_entity_s = 0.0
        self.decoder_slots = 0
        self.step_s: list[float] = []
        self.query_s: list[float] = []
        self._query_acc = 0.0

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        for module, path, name in TARGETS:
            self._wrap(module, path, name)
        try:
            decoder = importlib.import_module(DECODER_MODULE)
        except ImportError:
            self.absent.append(DECODER_MODULE)
        else:
            for attr, fn in sorted(vars(decoder).items()):
                if (callable(fn) and not attr.startswith("_") and not isinstance(fn, type)
                        and getattr(fn, "__module__", None) == DECODER_MODULE):
                    self._wrap(DECODER_MODULE, attr, f"decoder.{attr}")
        self._count_values()

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _resolve(self, module: str, path: str):
        """(owner, attribute, current value), or None when it does not exist."""
        try:
            owner = importlib.import_module(module)
        except ImportError:
            return None
        *parents, attr = path.split(".")
        for p in parents:
            owner = getattr(owner, p, None)
            if owner is None:
                return None
        if attr not in vars(owner):
            return None
        return owner, attr, vars(owner)[attr]

    def _wrap(self, module: str, path: str, name: str) -> None:
        found = self._resolve(module, path)
        if found is None:
            self.absent.append(f"{module}.{path}")
            return
        owner, attr, original = found
        if isinstance(original, classmethod):
            wrapped = classmethod(self._span(name, original.__func__))
        elif callable(original):
            wrapped = self._span(name, original)
        else:
            self.absent.append(f"{module}.{path}")
            return
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def _count_values(self) -> None:
        found = self._resolve(*VALUE_INIT)
        if found is None:
            self.absent.append(".".join(VALUE_INIT))
            return
        owner, attr, original = found
        tracer = self

        def counted(self, *args, **kwargs):
            tracer.values += 1
            original(self, *args, **kwargs)

        self._restore.append((owner, attr, original))
        setattr(owner, attr, counted)

    def _span(self, name: str, fn):
        layer = name.split(".", 1)[0]
        stack, depth = self._stack, self._depth
        clock = time.perf_counter
        on_exit = self._on_exit

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            depth[layer] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                depth[layer] -= 1
                self.calls[name] += 1
                self.total[name] += elapsed
                self.layer_self[layer] += elapsed - frame[0]
                if depth[layer] == 0:
                    self.layer_total[layer] += elapsed
                if stack:
                    stack[-1][0] += elapsed
                on_exit(name, args, elapsed)

        return wrapper

    def _on_exit(self, name: str, args: tuple, elapsed: float) -> None:
        """Counters read from a span's arguments; a changed signature leaves them
        unread and is reported as absent."""
        try:
            self._count(name, args, elapsed)
        except (IndexError, AttributeError, TypeError):
            if f"{name} arguments" not in self.absent:
                self.absent.append(f"{name} arguments")

    def _count(self, name: str, args: tuple, elapsed: float) -> None:
        if name in ("encoder.encode", "encoder.encode_with_edge_states"):
            graph, params = args[0], args[2]
            self.encoder_edge_layers += graph.num_edges * len(params.layers)
            relation_side = any(type(t).__name__ == "RelInteraction" for t in graph.alphabet)
            if name == "encoder.encode" and relation_side:
                self.encoder_relation_s += elapsed
            else:
                self.encoder_entity_s += elapsed
        elif name == "decoder.decode":
            self.decoder_slots += len(args[1])
        elif name == "training.train_step":
            self.step_s.append(elapsed)
        elif name in ("evaluation.score", "evaluation.filter_set"):
            self._query_acc += elapsed
        elif name == "evaluation.rank_of":
            self.query_s.append(self._query_acc + elapsed)
            self._query_acc = 0.0

    # -- metrics ---------------------------------------------------------

    def layer_metrics(self, wall_s: float, queries: int) -> dict[str, float]:
        """Per-layer figures of one traced phase that took ``wall_s`` seconds."""
        def pct(xs, q):
            return float(np.percentile(xs, q)) * 1e3 if xs else 0.0

        t, c = self.total, self.calls
        builds = c["foundation.relation_build"] + c["foundation.entity_build"]
        encoder_s = self.encoder_relation_s + self.encoder_entity_s
        out = {
            "foundation.relation_build_s": t["foundation.relation_build"],
            "foundation.entity_build_s": t["foundation.entity_build"],
            "foundation.builds": builds,
            "foundation.builds_per_query": builds / queries,
            "encoder.relation_s": self.encoder_relation_s,
            "encoder.entity_s": self.encoder_entity_s,
            "encoder.calls": c["encoder.encode"] + c["encoder.encode_with_edge_states"],
            "encoder.edge_layers_per_s": self.encoder_edge_layers / encoder_s if encoder_s else 0.0,
            "autodiff.scatter_add_s": t["autodiff.scatter_add"],
            "autodiff.gather_s": t["autodiff.gather"],
            "autodiff.backward_s": t["autodiff.backward"],
            "autodiff.optimizer_s": t["autodiff.clip_global_norm"] + t["autodiff.adam_step"],
            "autodiff.values_per_query": self.values / queries,
            "decoder.s": self.layer_total["decoder"],
            "decoder.slots_per_query": self.decoder_slots / queries,
            "training.steps": c["training.train_step"],
            "training.step_ms_p50": pct(self.step_s, 50),
            "training.step_ms_p90": pct(self.step_s, 90),
            "training.valid_eval_s": t["evaluation.valid_eval"],
            "evaluation.score_s": t["evaluation.score"],
            "evaluation.filter_s": t["evaluation.filter_set"] + t["evaluation.completion_index"],
            "evaluation.rank_s": t["evaluation.rank_of"],
            "evaluation.queries": c["evaluation.rank_of"],
            "evaluation.query_ms_p50": pct(self.query_s, 50),
            "evaluation.query_ms_p90": pct(self.query_s, 90),
        }
        for layer in LAYERS:
            out[f"{layer}.self_frac"] = self.layer_self[layer] / wall_s
        return out

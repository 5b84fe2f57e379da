"""Masked training over the training graph.

Every query is scored against the full entity vocabulary and optimized with
cross-entropy; nothing in this module corrupts facts or samples negatives,
and the per-step candidate-set sizes are recorded so that property can be
asserted from the outside.

By default the leakage guard is on: while encoding a query, the query's own
source fact is left out of both foundation graphs, so the encoders cannot
read the answer off edges the fact itself induced.  Each graph is built once
per run; leaving a fact out masks the edges only it induced, which equals a
rebuild without it.

A step builds one tape for its whole batch: the queries are encoded as one
block-stacked state matrix, each block without its own source fact, decoded
as one sequence and scored by one per-row cross-entropy.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Adam, ParamStore, clip_global_norm
from .config import TextConfig, parse_value
from .errors import ConfigError, ContractError, DataError, NumericalError
from .evaluation import bundle_known_facts, completion_index, evaluate
from .io import DatasetBundle
from .model import Hkg, HyperFact, QueryFact, queries_from_facts
from .predictor import GraphPair, LinkPredictor, ModelConfig, check_leave_outs


@dataclass(frozen=True)
class TrainConfig(ModelConfig, TextConfig):
    """The model to train (the inherited :class:`ModelConfig` fields) and
    how to train it.  Its text form lists the model keys first."""

    epochs: int = 50
    batch_size: int = 8
    step_size: float = 1e-3
    seed: int = 0
    checkpoint_every: int = 10
    leakage_guard: bool = True
    grad_clip: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        for name in ("batch_size", "checkpoint_every"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        for name in ("step_size", "grad_clip"):  # the text form takes no nan or inf
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be finite and positive, got {value!r}")
        for name in ("epochs", "seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")


@dataclass
class TrainStats:
    """Side channel for invariants: every loss and candidate-set size seen."""

    epoch_losses: list[float] = field(default_factory=list)
    valid_mrr: list[float] = field(default_factory=list)
    candidate_counts: list[int] = field(default_factory=list)
    step_losses: list[float] = field(default_factory=list)


def query_losses(predictor: LinkPredictor, graphs: GraphPair, queries: Sequence[QueryFact],
                 leave_outs: Sequence[int | None] | None = None,
                 stats: TrainStats | None = None) -> ad.Value:
    """The (B, 1) cross-entropies of each query's answer against all
    entities of ``graphs.kg``, query q encoded without fact ``leave_outs[q]``."""
    answers = []
    for query in queries:
        answer = graphs.kg.entity_index.get(query.answer)
        if answer is None:
            raise DataError(f"query answer {query.answer!r} missing from the vocabulary")
        answers.append(answer)
    logits = predictor.query_logits(graphs, queries, leave_outs)
    if stats is not None:
        for _ in queries:  # one append per query, as observers of the list count them
            stats.candidate_counts.append(logits.shape[1])
    return ad.cross_entropy(logits, answers)


def train_step(predictor: LinkPredictor, batch: Sequence[QueryFact], optimizer: Adam,
               cfg: TrainConfig, graphs: GraphPair, source_facts: Sequence[int],
               stats: TrainStats | None = None) -> float:
    """One optimizer step on the mean loss of a query batch, on one tape.

    ``graphs`` is the training graph with its foundation graphs, built once.
    ``source_facts`` names each query's source fact so the leakage guard can
    leave it out of the graphs while encoding that query; an empty batch, or
    a list that does not hold one fact index of ``graphs.kg`` per query, is
    a :class:`ContractError`.  A NaN or infinite loss or gradient norm raises
    :class:`NumericalError` before the optimizer touches the parameters.
    """
    if not batch:
        raise ContractError("a training step needs at least one query")
    if len(source_facts) != len(batch):
        raise ContractError(f"{len(source_facts)} source facts for {len(batch)} queries")
    if any(src is None for src in source_facts):
        raise ContractError("every query of a training step needs its source fact")
    check_leave_outs(graphs.kg, source_facts)
    leave_outs = source_facts if cfg.leakage_guard else None
    losses = query_losses(predictor, graphs, batch, leave_outs, stats)
    loss = ad.mul(ad.total_sum(losses),
                  np.full((1, 1), 1.0 / len(batch), dtype=losses.data.dtype))
    predictor.store.zero_grads()
    ad.backward(loss)
    value = float(loss.data[0, 0])
    norm = clip_global_norm(predictor.store, cfg.grad_clip)
    if not (np.isfinite(value) and np.isfinite(norm)):
        raise NumericalError(f"non-finite step: loss {value}, gradient norm {norm}")
    optimizer.step()
    if stats is not None:
        stats.step_losses.append(value)
    return value


@dataclass
class Checkpoint:
    """A parameter snapshot plus the run settings that rebuild its model.

    ``train_config`` is also the model's :class:`ModelConfig`: a fully
    inductive model names no vocabulary, so the run's settings are all it
    needs.
    """

    train_config: TrainConfig
    store: ParamStore
    epoch: int
    loss_history: list[float]
    valid_history: list[float]

    def predictor(self) -> LinkPredictor:
        return LinkPredictor.from_store(self.train_config, self.store)

    def save(self, path: str | Path) -> None:
        """Write the binary parameter file and its metadata sidecar.

        Each file is written under a temporary name and renamed into place;
        the sidecar records the run's ``[train]`` settings (the model keys
        first), its ``[state]`` (epoch and the parameter file's SHA-256) and
        its ``[history]``.  :meth:`load` reads the settings by key, in any
        order.
        """
        path = Path(path)
        blob = self.store.to_bytes()
        lines = ["[train]"]
        lines += [f"{k} = {v}" for k, v in self.train_config.to_dict().items()]
        lines.append("[state]")
        lines.append(f"epoch = {self.epoch}")
        lines.append(f"bin_sha256 = {hashlib.sha256(blob).hexdigest()}")
        lines.append("[history]")
        for i, loss in enumerate(self.loss_history):
            mrr = self.valid_history[i] if i < len(self.valid_history) else float("nan")
            lines.append(f"{i}\t{loss:.6f}\t{mrr:.6f}")
        _write_replacing(path, blob)
        _write_replacing(Path(str(path) + ".meta"), ("\n".join(lines) + "\n").encode("utf-8"))

    @classmethod
    def load(cls, path: str | Path) -> "Checkpoint":
        """Read a checkpoint; a malformed ``.meta`` sidecar, or one whose
        ``bin_sha256`` is not that of the parameter file, is a :class:`DataError`.

        Sections other than ``[train]``, ``[state]`` and ``[history]`` are
        skipped, among them the ``[model]`` block older sidecars wrote.
        """
        path = Path(path)
        blob = path.read_bytes()
        store = ParamStore.from_bytes(blob)
        meta = Path(str(path) + ".meta")
        sections: dict[str, dict[str, str]] = {"train": {}, "state": {}}
        history: list[tuple[float, float]] = []
        current = None
        try:
            for line in meta.read_text(encoding="utf-8").splitlines():
                line = line.strip()
                if not line:
                    continue
                if line.startswith("[") and line.endswith("]"):
                    current = line[1:-1]
                    continue
                if current == "history":
                    _, loss, mrr = line.split("\t")
                    history.append((float(loss), float(mrr)))
                elif current in sections and " = " in line:
                    k, v = line.split(" = ", 1)
                    sections[current][k] = v
            train_config = TrainConfig.from_dict(sections["train"])
            if "epoch" not in sections["state"]:
                raise ValueError("[state] records no epoch")
            epoch = parse_value("epoch", sections["state"]["epoch"], 0)
            if epoch < 0:
                raise ValueError(f"epoch must be >= 0, got {epoch}")
        except ValueError as e:  # ConfigError is one too
            raise DataError(f"{meta}: {e}") from e
        if sections["state"].get("bin_sha256") != hashlib.sha256(blob).hexdigest():
            raise DataError(f"{meta}: bin_sha256 is missing or is not the SHA-256 of "
                            f"{path.name}; the pair does not belong together")
        return cls(
            train_config=train_config,
            store=store,
            epoch=epoch,
            loss_history=[h[0] for h in history],
            valid_history=[h[1] for h in history],
        )


class _Prepared:
    """A scoring model that prepares ``kg`` once: each pass reuses its graphs
    and the model's constant view, which sees the parameters move.  It keeps
    the filter ``index`` of the run's known facts, which never change."""

    def __init__(self, predictor: LinkPredictor, kg: Hkg, known: list[HyperFact]):
        self.graphs = predictor.prepare(kg)
        self.batch_scores = predictor.batch_scores
        self.index = completion_index(known)

    def prepare(self, kg: Hkg) -> GraphPair:
        return self.graphs


def fit(bundle: DatasetBundle, cfg: TrainConfig, out_dir: str | Path | None = None,
        log: Callable[[str], None] | None = None,
        stats: TrainStats | None = None,
        stop_when: Callable[[int, float, float], bool] | None = None) -> Checkpoint:
    """Train on the bundle's training graph; keep the best-valid snapshot.

    Queries are regenerated and reshuffled every epoch under the configured
    seed, so two runs with identical inputs produce bit-identical parameter
    trajectories.  ``stop_when(epoch, loss, valid_mrr)`` may end training
    early; the returned checkpoint is the best-valid one when validation
    queries exist, otherwise the final state.  Like :func:`evaluate`, it
    first fixes glibc's heap thresholds for the whole process, so that each
    step's freed tape stays mapped for the next.
    """
    ad._keep_heap_mapped()
    stats = stats if stats is not None else TrainStats()
    predictor = LinkPredictor.build(cfg, seed=cfg.seed)
    optimizer = Adam(predictor.store, lr=cfg.step_size)
    rng = np.random.default_rng(cfg.seed)
    kg = bundle.train
    queries: list[QueryFact] = []
    source_of: list[int] = []
    for fi, fact in enumerate(kg.facts):
        for q in queries_from_facts([fact]):
            queries.append(q)
            source_of.append(fi)
    if not queries:
        raise DataError("training graph has no facts to derive queries from")
    valid_queries = queries_from_facts(bundle.valid)
    graphs = predictor.prepare(kg)
    validation = (_Prepared(predictor, bundle.inference, bundle_known_facts(bundle))
                  if valid_queries else None)
    out = None
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)

    def snapshot(epoch: int) -> Checkpoint:
        return Checkpoint(cfg, predictor.store.copy(), epoch,
                          list(stats.epoch_losses), list(stats.valid_mrr))

    best: Checkpoint | None = None
    best_mrr = -1.0
    epochs_run = 0
    started = time.monotonic()
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(queries))
        epoch_loss = 0.0
        steps = 0
        for start in range(0, len(order), cfg.batch_size):
            picked = order[start:start + cfg.batch_size]
            batch = [queries[i] for i in picked]
            sources = [source_of[i] for i in picked]
            try:
                epoch_loss += train_step(predictor, batch, optimizer, cfg, graphs, sources, stats)
            except NumericalError as e:
                raise NumericalError(f"epoch {epoch + 1}, step {steps + 1}: {e}") from e
            steps += 1
        epoch_loss /= max(steps, 1)
        stats.epoch_losses.append(epoch_loss)
        epochs_run = epoch + 1
        valid_mrr = float("nan")
        if valid_queries:
            valid_mrr = evaluate(validation, bundle.inference, valid_queries,
                                 index=validation.index).mrr_all
            stats.valid_mrr.append(valid_mrr)
            if valid_mrr > best_mrr:
                best_mrr = valid_mrr
                best = snapshot(epochs_run)
        if log is not None:
            log(f"epoch {epochs_run}/{cfg.epochs} loss={epoch_loss:.4f} "
                f"valid_mrr={valid_mrr:.4f} elapsed={time.monotonic() - started:.1f}s")
        if out is not None and epochs_run % cfg.checkpoint_every == 0:
            snapshot(epochs_run).save(out / f"ckpt_epoch{epochs_run:04d}.bin")
        if stop_when is not None and stop_when(epochs_run, epoch_loss, valid_mrr):
            break
    final = snapshot(epochs_run)
    if out is not None:
        final.save(out / "ckpt_final.bin")
        (best or final).save(out / "ckpt_best.bin")
    return best or final


def _write_replacing(path: Path, data: bytes) -> None:
    """Write ``data`` beside ``path`` under a temporary name, then rename it over."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def config_hash(pairs: dict[str, str]) -> str:
    text = "\n".join(f"{k} = {v}" for k, v in sorted(pairs.items()))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()

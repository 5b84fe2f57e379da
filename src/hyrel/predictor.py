"""The end-to-end link predictor: two graph encoders plus the decoder.

Given a KG and a batch of masked queries, the predictor builds (or is
handed) the relation and entity foundation graphs, encodes each
conditioned on every query's visible relations and entities (one block of
rows per query), decodes the queries' fact sequences as one batch and
scores every entity of the vocabulary for each query.  Parameters attach
only to interaction types, layer maps and bias types, never to vocabulary
items, so the same weights score any graph.

Training records a tape through the parameters.  Scoring
(:meth:`LinkPredictor.batch_scores`) runs the same forward pass through
constants that share the parameter arrays, so it records nothing.  It
reuses a relation encoding across queries with the same relation nodes, and
encodes and decodes a chunk of queries as one block-stacked batch, as a
training step does.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import autodiff as ad
from . import decoder as dec
from . import encoder as enc
from .autodiff import ParamStore, Value
from .errors import ConfigError, DataError, VocabularyError
from .foundation import (EntInteraction, FoundationGraph, RelInteraction,
                         build_entity_graph, build_relation_graph, preset)
from .model import Hkg, QueryFact

PARALLEL = "parallel"
RELATION_DRIVEN = "relation-driven"  # relation states gate the entity messages

STRUCTURES = (PARALLEL, RELATION_DRIVEN)


@dataclass(frozen=True)
class ModelConfig:
    """Architecture knobs shared by training, evaluation and prediction;
    ``interactions`` names a :func:`~hyrel.foundation.preset`."""

    width: int = 32
    encoder_depth: int = 4
    head_count: int = 4
    decoder_depth: int = 2
    interactions: str = "default"
    structure: str = PARALLEL

    def __post_init__(self):
        preset(self.interactions)  # fail early on unknown names
        if self.structure not in STRUCTURES:
            raise ConfigError(f"unknown structure {self.structure!r}; "
                              f"expected one of {STRUCTURES}")
        for name in ("width", "encoder_depth", "head_count", "decoder_depth"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")
        if self.width % self.head_count:
            raise ConfigError(f"width {self.width} not divisible by head count "
                              f"{self.head_count}")


def ablation_overrides(name: str) -> dict[str, str]:
    """The configuration keys an ablation name sets, in their text form.

    Interaction presets keep the parallel-encoder structure; the
    ``ultra-alike`` name selects the rewired structure where encoded
    relation states gate the entity-graph messages.
    """
    if name.lower().replace("_", "-") == "ultra-alike":
        return {"structure": RELATION_DRIVEN}
    preset(name)  # fail early on unknown names
    return {"interactions": name}


@dataclass
class GraphPair:
    relation_graph: FoundationGraph
    entity_graph: FoundationGraph


def _constants(params):
    """``params`` with every :class:`Value` in it replaced by a constant that
    shares its array."""
    if isinstance(params, Value):
        return Value.constant(params.data)
    if isinstance(params, list):
        return [_constants(p) for p in params]
    if dataclasses.is_dataclass(params):
        return dataclasses.replace(params, **{f.name: _constants(getattr(params, f.name))
                                              for f in dataclasses.fields(params)})
    return params


class _NoDraws:
    """The rng of a :meth:`LinkPredictor.build` layout whose values are all
    overwritten next: every draw is zeros of its size."""

    @staticmethod
    def normal(loc, scale, size):
        return np.zeros(size, dtype=np.float32)

    uniform = normal


@dataclass
class ScoringContext:
    """What :meth:`LinkPredictor.batch_scores` reads: the graph, its
    foundation graphs, the model's constant view and the relation encodings
    computed so far, one per set of relation nodes."""

    kg: Hkg
    graphs: GraphPair
    model: "LinkPredictor"
    relations: dict = field(default_factory=dict)


class LinkPredictor:
    """Scores masked-entity queries against any hyper-relational KG."""

    def __init__(self, cfg: ModelConfig, store: ParamStore, rel_params, ent_params,
                 dec_params):
        self.cfg = cfg
        self.store = store
        self.rel_params = rel_params
        self.ent_params = ent_params
        self.dec_params = dec_params

    @classmethod
    def build(cls, cfg: ModelConfig, seed: int = 0, dtype=np.float32) -> "LinkPredictor":
        """Fresh parameters, deterministically initialized from ``seed``."""
        return cls._build(cfg, np.random.default_rng(seed), dtype)

    @classmethod
    def _build(cls, cfg: ModelConfig, rng, dtype) -> "LinkPredictor":
        store = ParamStore()
        interactions = preset(cfg.interactions)
        rel_alphabet = tuple(t for t in RelInteraction if t in interactions.relation_set)
        ent_alphabet = tuple(t for t in EntInteraction if t in interactions.entity_set)
        rel_params = enc.init_encoder_params(
            store, "rel_encoder", rel_alphabet, cfg.encoder_depth, cfg.width, rng,
            dtype=dtype)
        ent_params = enc.init_encoder_params(
            store, "ent_encoder", ent_alphabet, cfg.encoder_depth, cfg.width, rng,
            dtype=dtype, typed_messages=(cfg.structure == PARALLEL))
        dec_params = dec.init_decoder_params(
            store, "decoder", cfg.width, cfg.head_count, cfg.decoder_depth, rng,
            dtype=dtype)
        if cfg.structure == RELATION_DRIVEN:  # drawn last: earlier draws stay put
            enc.init_relation_projections(store, "ent_encoder", ent_params, rng, dtype=dtype)
        store.lay_out()
        return cls(cfg, store, rel_params, ent_params, dec_params)

    @classmethod
    def from_store(cls, cfg: ModelConfig, store: ParamStore) -> "LinkPredictor":
        """A model holding a copy of ``store``'s values in its own buffer;
        names and shapes must match :meth:`build`'s layout, or the checkpoint
        is a :class:`DataError`.  The layout is built without drawing a value."""
        fresh = cls._build(cfg, _NoDraws, np.float32)
        missing = [name for name in fresh.store.names() if name not in store]
        extra = [name for name in store.names() if name not in fresh.store]
        if missing or extra:
            found = [f"{kind} tensor {names[0]!r}" for kind, names
                     in (("missing", missing), ("extra", extra)) if names]
            raise DataError(f"checkpoint does not match the model configuration: "
                            f"{', '.join(found)}")
        for name, value in fresh.store.items():
            if store[name].shape != value.shape:
                raise DataError(f"checkpoint parameter {name!r} has shape "
                                f"{store[name].shape}, expected {value.shape}")
        np.concatenate([store[name].data.ravel() for name in fresh.store.names()],
                       out=fresh.store.data)
        return fresh

    def build_graphs(self, kg: Hkg) -> GraphPair:
        annotated = self.cfg.structure == RELATION_DRIVEN
        interactions = preset(self.cfg.interactions)
        return GraphPair(
            relation_graph=build_relation_graph(kg, interactions),
            entity_graph=build_entity_graph(kg, interactions, with_fact_relations=annotated),
        )

    def _query_nodes(self, kg: Hkg, query: QueryFact) -> tuple[set[int], set[int]]:
        rel_nodes: set[int] = set()
        for r in query.base.relations():
            idx = kg.relation_index.get(r)
            if idx is None:
                raise VocabularyError(f"relation {r!r} not in the graph vocabulary")
            rel_nodes.add(idx)
        ent_nodes: set[int] = set()
        for e in query.unmasked_entities():
            idx = kg.entity_index.get(e)
            if idx is None:
                raise VocabularyError(f"entity {e!r} not in the graph vocabulary")
            ent_nodes.add(idx)
        return rel_nodes, ent_nodes

    def query_logits(self, kg: Hkg, queries: Sequence[QueryFact], graphs: GraphPair,
                     leave_outs: Sequence[int | None] | None = None) -> Value:
        """Unnormalized scores, one row per query over every entity of ``kg``.

        Query q is encoded without fact ``leave_outs[q]`` (None, or no
        ``leave_outs``: the whole graph).
        """
        nodes = [self._query_nodes(kg, query) for query in queries]
        rel_states = enc.encode(graphs.relation_graph, [rel for rel, _ in nodes],
                                self.rel_params, leave_outs=leave_outs)
        gates = None if self.cfg.structure == PARALLEL else rel_states
        ent_states = enc.encode(graphs.entity_graph, [ent for _, ent in nodes],
                                self.ent_params, gates, leave_outs)
        return self._decode_logits(kg, queries, rel_states, ent_states)

    def _decode_logits(self, kg: Hkg, queries: Sequence[QueryFact], rel_states: Value,
                       ent_states: Value) -> Value:
        """Decode the queries as one sequence over their block-stacked states
        and score each query's mask slot against its own entity block."""
        seq, layout = dec.assemble_sequence(queries, kg, rel_states, ent_states,
                                            self.dec_params)
        decoded = dec.decode(seq, layout, self.dec_params)
        x_m = dec.mask_vector(decoded, layout)
        return dec.entity_logits(x_m, ent_states, self.dec_params.out_bias)

    # Scoring-model protocol used by the evaluator.
    def prepare(self, kg: Hkg) -> ScoringContext:
        """The graphs of ``kg``, a view of this model whose parameters are
        constants sharing its arrays (so scoring records no tape, and sees
        in-place updates of the parameters), and an empty cache of relation
        encodings: with no fact left out, a query's relation encoding depends
        only on its relation nodes, so queries that share them share it."""
        view = LinkPredictor(self.cfg, self.store, _constants(self.rel_params),
                             _constants(self.ent_params), _constants(self.dec_params))
        return ScoringContext(kg, self.build_graphs(kg), view)

    def batch_scores(self, ctx: ScoringContext, queries: Sequence[QueryFact]) -> np.ndarray:
        """The (len(queries), |E|) entity distributions of a chunk of queries.

        Each query's relation encoding comes from ``ctx.relations`` (encoded
        on first use).  The chunk's entity graphs are encoded as one
        block-stacked batch and decoded as one sequence, the forward pass of
        a training step with no fact left out.
        """
        model, graphs, kg = ctx.model, ctx.graphs, ctx.kg
        if not queries:
            return np.zeros((0, kg.num_entities))
        nodes = [self._query_nodes(kg, query) for query in queries]
        for rel_nodes, _ in nodes:
            key = frozenset(rel_nodes)
            if key not in ctx.relations:
                ctx.relations[key] = enc.encode(graphs.relation_graph, [rel_nodes],
                                                model.rel_params)
        rel_states = Value.constant(np.concatenate(
            [ctx.relations[frozenset(rel_nodes)].data for rel_nodes, _ in nodes]))
        gates = None if self.cfg.structure == PARALLEL else rel_states
        ent_states = enc.encode(graphs.entity_graph, [ent_nodes for _, ent_nodes in nodes],
                                model.ent_params, gates)
        logits = model._decode_logits(kg, queries, rel_states, ent_states)
        return ad.rowwise_softmax(logits).data

    def entity_scores(self, ctx: ScoringContext, query: QueryFact) -> np.ndarray:
        """The entity distribution of one query: a chunk of one."""
        return self.batch_scores(ctx, [query])[0]

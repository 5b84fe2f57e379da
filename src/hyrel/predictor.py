"""The end-to-end link predictor: two graph encoders plus the decoder.

:meth:`LinkPredictor.prepare` pairs a KG with its relation and entity
foundation graphs (a :class:`GraphPair`), the one context of scoring and
training.  Given the pair and a batch of masked queries, the predictor
encodes each graph conditioned on every query's visible relations and
entities (one block of rows per query), decodes the queries' fact sequences
as one batch, each padded to the longest sequence of a fact of the graph,
and scores every entity of the vocabulary for each query.  Parameters
attach only to interaction types, layer maps and bias types, never to
vocabulary items, so the same weights score any graph.

Training records a tape through the parameters.  Scoring
(:meth:`LinkPredictor.batch_scores`) runs the same forward pass, a chunk of
queries encoded and decoded as one block-stacked batch with no fact left
out, through constants that share the parameter arrays, so it records
nothing.  A query longer than every fact of the graph is decoded in a batch
of its own, so it pads no batch-mate's block.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from . import autodiff as ad
from . import decoder as dec
from . import encoder as enc
from .autodiff import ParamStore, Value
from .errors import ConfigError, ContractError, DataError, VocabularyError
from .foundation import FoundationGraph, build_entity_graph, build_relation_graph, preset
from .model import Hkg, QueryFact, sequence_roles

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
    """A KG and its two foundation graphs (:meth:`LinkPredictor.prepare`):
    what every query is scored and trained against."""

    kg: Hkg
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


def _slot_ids(kg: Hkg, query: QueryFact) -> list[int]:
    """The dense id of each slot of ``query``'s sequence
    (:func:`~hyrel.model.sequence_roles`): an entity id at entity roles, a
    relation id at the others, and -1 at the masked slot, whose name is never
    read.  An unknown relation is named before an unknown entity."""
    roles, names, mask = sequence_roles(query.base.arity), query.base.sequence(), query.masked.slot
    ids = [-1] * len(names)
    for entity, kind, index in ((False, "relation", kg.relation_index),
                                (True, "entity", kg.entity_index)):
        for slot, (role, name) in enumerate(zip(roles, names)):
            if role.is_entity is entity and slot != mask:
                ids[slot] = index.get(name, -1)
                if ids[slot] < 0:
                    raise VocabularyError(f"{kind} {name!r} not in the graph vocabulary")
    return ids


def _slot_nodes(layout: dec.BatchLayout, ids: list[list[int]], entity: bool) -> list[set[int]]:
    """Per query, its ids at entity (or relation) slots, the mask's -1 left out."""
    return [{i for role, i in zip(roles, row) if role.is_entity is entity and i >= 0}
            for roles, row in zip(layout.roles, ids)]


def check_leave_outs(kg: Hkg, leave_outs: Sequence[int | None] | None) -> None:
    """Each of ``leave_outs`` is None or the index of a fact of ``kg``.

    Anything else is a :class:`ContractError`: the graphs would silently
    leave out another fact or none for a negative index, none for an index
    past the facts, and fact 1 for True.
    """
    facts = kg.num_facts
    for fact in leave_outs or ():
        if fact is not None and not (np.issubdtype(type(fact), np.integer) and 0 <= fact < facts):
            raise ContractError(f"left-out fact {fact!r} out of range (0..{facts - 1})")


class _NoDraws:
    """The rng of a :meth:`LinkPredictor.build` layout whose values are all
    overwritten next: every draw is zeros of its size."""

    @staticmethod
    def normal(loc, scale, size):
        return np.zeros(size, dtype=np.float32)

    uniform = normal


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
        rel_params = enc.init_encoder_params(
            store, "rel_encoder", interactions.relation_alphabet, cfg.encoder_depth,
            cfg.width, rng, dtype=dtype)
        ent_params = enc.init_encoder_params(
            store, "ent_encoder", interactions.entity_alphabet, cfg.encoder_depth,
            cfg.width, rng, dtype=dtype, typed_messages=(cfg.structure == PARALLEL))
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

    # prepare and batch_scores are the evaluator's scoring-model protocol.
    def prepare(self, kg: Hkg) -> GraphPair:
        """``kg`` with its foundation graphs, as this model's structure reads them."""
        interactions = preset(self.cfg.interactions)
        return GraphPair(kg, build_relation_graph(kg, interactions), build_entity_graph(
            kg, interactions, with_fact_relations=self.cfg.structure == RELATION_DRIVEN))

    def query_logits(self, graphs: GraphPair, queries: Sequence[QueryFact],
                     leave_outs: Sequence[int | None] | None = None) -> Value:
        """Unnormalized scores, one row per query over every entity of ``graphs.kg``.

        Query q is encoded without fact ``leave_outs[q]`` (None, or no
        ``leave_outs``: the whole graph), which must be a fact of
        ``graphs.kg`` (:func:`check_leave_outs`).  ``graphs`` come from
        :meth:`prepare`.
        """
        kg = graphs.kg
        check_leave_outs(kg, leave_outs)
        layout = dec.BatchLayout(queries, kg.max_arity)
        ids = [_slot_ids(kg, query) for query in queries]
        rel_states = enc.encode(graphs.relation_graph, _slot_nodes(layout, ids, False),
                                self.rel_params, leave_outs=leave_outs)
        gates = None if graphs.entity_graph.relation is None else rel_states
        ent_states = enc.encode(graphs.entity_graph, _slot_nodes(layout, ids, True),
                                self.ent_params, gates, leave_outs)
        seq = dec.assemble_sequence(layout, ids, rel_states, ent_states, self.dec_params)
        decoded = dec.decode(seq, layout, self.dec_params)
        x_m = dec.mask_vector(decoded, layout)
        return dec.entity_logits(x_m, ent_states, self.dec_params.out_bias)

    @cached_property
    def _constant_view(self) -> "LinkPredictor":
        """This model with every parameter a constant sharing its array, so
        scoring through it records no tape and sees in-place updates."""
        return LinkPredictor(self.cfg, self.store, _constants(self.rel_params),
                             _constants(self.ent_params), _constants(self.dec_params))

    def batch_scores(self, graphs: GraphPair, queries: Sequence[QueryFact]) -> np.ndarray:
        """The (len(queries), |E|) entity distributions of a chunk of queries:
        the softmax of :meth:`query_logits` over the constant view, the
        forward pass of a training step with no fact left out.  A query with
        more qualifiers than every fact of ``graphs.kg`` would pad its
        batch-mates' blocks, so it is decoded alone."""
        kg = graphs.kg
        if not queries:
            return np.zeros((0, kg.num_entities))
        fits = np.array([query.base.arity for query in queries]) <= kg.max_arity
        if len(queries) > 1 and not fits.all():
            rows = iter(self.batch_scores(graphs, [q for q, fit in zip(queries, fits) if fit]))
            return np.stack([next(rows) if fit else self.entity_scores(graphs, query)
                             for query, fit in zip(queries, fits)])
        return ad.rowwise_softmax(self._constant_view.query_logits(graphs, queries)).data

    def entity_scores(self, graphs: GraphPair, query: QueryFact) -> np.ndarray:
        """The entity distribution of one query: a chunk of one."""
        return self.batch_scores(graphs, [query])[0]

"""Edge-biased self-attention over a query fact's element sequence.

The sequence lays the fact out as [head, relation, tail, key0, value0, ...],
with one slot replaced by a learned mask vector.  Attention between two
slots receives a learned bias chosen by the pair's structural type: the
head/relation pair, the tail/relation pair, a relation/key pair, an aligned
key/value pair, or anything else.  A key-side bias enters the similarity
before the softmax and a value-side bias enters the weighted sum, so the
model can treat e.g. a key attending to its own value differently from a
key attending to an unrelated value.  Heads are column blocks of one
projection: head h owns columns h·dh:(h+1)·dh of the query, key and value
maps and of both bias tables.

A batch of queries is decoded as one padded sequence (:class:`BatchLayout`):
query q owns rows q·L to (q+1)·L - 1, its own slots and then padding rows.
L is the longest sequence a fact of the scoring graph has, so no batch
changes it.  Each layer's attention is one stacked op over the queries'
blocks (:func:`~hyrel.autodiff.attention`), where a pair with a padding key
gets the masking type and so a weight of exactly 0: a query's rows, and so
its scores, are the same bits in every batch.  A query longer than L (a
test fact with more qualifiers than any fact of the graph) would pad its
whole batch to its own length, so scoring
(:meth:`~hyrel.predictor.LinkPredictor.batch_scores`) decodes each such
query in a batch of its own.

Scoring projects each query's mask slot output onto its block of the
query-conditioned entity states: one logit per entity plus a single shared
scalar bias.  A per-entity bias would pin the decoder to one vocabulary, so
no such parameter exists anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import ParamStore, Value
from .errors import ConfigError, ShapeError
from .model import QueryFact, Role, RoleKind, HEAD, PRIMARY_RELATION, TAIL, key_role, value_role


class BiasType(Enum):
    HR = 0      # head with primary relation
    TR = 1      # tail with primary relation
    RK = 2      # primary relation with a key
    KV = 3      # a key with its own value
    OTHER = 4


NUM_BIAS_TYPES = len(BiasType)


@dataclass(frozen=True)
class SequenceLayout:
    """Slot roles of one decoded sequence and the position of the mask."""

    roles: tuple[Role, ...]
    mask_slot: int

    def __len__(self):
        return len(self.roles)


def layout_for(query: QueryFact) -> SequenceLayout:
    roles = [HEAD, PRIMARY_RELATION, TAIL]
    for i in range(query.base.arity):
        roles.append(key_role(i))
        roles.append(value_role(i))
    mask_slot = roles.index(query.masked)
    return SequenceLayout(tuple(roles), mask_slot)


def classify_bias(i: Role, j: Role) -> BiasType:
    """Structural bias type of an ordered slot pair; total over all pairs."""
    kinds = {i.kind, j.kind}
    if kinds == {RoleKind.HEAD, RoleKind.PRIMARY_RELATION}:
        return BiasType.HR
    if kinds == {RoleKind.TAIL, RoleKind.PRIMARY_RELATION}:
        return BiasType.TR
    if kinds == {RoleKind.PRIMARY_RELATION, RoleKind.KEY}:
        return BiasType.RK
    if kinds == {RoleKind.KEY, RoleKind.VALUE} and i.index == j.index:
        return BiasType.KV
    return BiasType.OTHER


@lru_cache(maxsize=512)
def _bias_types(roles: tuple[Role, ...], length: int = 0) -> np.ndarray:
    """The :class:`BiasType` value of every ordered slot pair of one layout,
    padded to ``length`` rows: a slot's pair with a padding key is masked
    (``NUM_BIAS_TYPES``), and a padding row, whose output is never read,
    attends to every row as ``OTHER``."""
    n = len(roles)
    types = np.full((max(length, n),) * 2, BiasType.OTHER.value, dtype=np.int64)
    types[:n, n:] = NUM_BIAS_TYPES
    types[:n, :n] = [[classify_bias(a, b).value for b in roles] for a in roles]
    return types


class BatchLayout:
    """The sequences of a batch of queries, each padded to one length L.

    L is the sequence length of a fact with ``arity`` qualifiers, or the
    longest query's when that is longer.  Query q owns rows q·L to
    (q+1)·L - 1 of the batch sequence: its slots, then padding.
    ``mask_slots[q]`` is its mask slot's row, ``types[q]`` the (L, L) bias
    types of its row pairs, and ``len()`` counts the real slots.
    """

    def __init__(self, layouts, arity: int = 0):
        self.layouts = tuple(layouts)
        self.length = max([3 + 2 * arity, *map(len, self.layouts)])
        self.mask_slots = [q * self.length + part.mask_slot
                           for q, part in enumerate(self.layouts)]
        self.types = np.array([_bias_types(part.roles, self.length) for part in self.layouts],
                              dtype=np.int64).reshape(-1, self.length, self.length)
        self._size = sum(map(len, self.layouts))

    def __len__(self):
        return self._size


@dataclass
class DecoderLayerParams:
    wq: Value          # (d, d); head h owns columns h·dh:(h+1)·dh
    wk: Value          # (d, d)
    wv: Value          # (d, d)
    key_bias: Value    # (num bias types, d), split by head like wq
    value_bias: Value  # (num bias types, d)
    ln1_gain: Value
    ln1_bias: Value
    ffn_w1: Value
    ffn_b1: Value
    ffn_w2: Value
    ffn_b2: Value
    ln2_gain: Value
    ln2_bias: Value


@dataclass
class DecoderParams:
    width: int
    head_count: int
    mask_token: Value   # (1, d)
    out_bias: Value     # (1, 1), shared over every candidate entity
    layers: list[DecoderLayerParams] = field(default_factory=list)


def init_decoder_params(store: ParamStore, prefix: str, width: int, head_count: int,
                        depth: int, rng: np.random.Generator,
                        dtype=np.float32) -> DecoderParams:
    if width % head_count != 0:
        raise ConfigError(f"width {width} not divisible by head count {head_count}")
    dh = width // head_count
    params = DecoderParams(
        width=width, head_count=head_count,
        mask_token=store.add(f"{prefix}/mask_token",
                             rng.normal(0.0, width ** -0.5, (1, width)).astype(dtype)),
        out_bias=store.add(f"{prefix}/out_bias", np.zeros((1, 1), dtype=dtype)),
    )
    limit_qkv = np.sqrt(6.0 / (width + dh))
    limit_f1 = np.sqrt(6.0 / (width + 4 * width))
    for layer in range(depth):
        # Draw per head in the order of a per-head layout, then join by column.
        drawn: dict[str, list[np.ndarray]] = {
            name: [] for name in ("wq", "wk", "wv", "key_bias", "value_bias")}
        for _ in range(head_count):
            for name in ("wq", "wk", "wv"):
                drawn[name].append(rng.uniform(-limit_qkv, limit_qkv, (width, dh)))
            for name in ("key_bias", "value_bias"):
                drawn[name].append(rng.normal(0.0, dh ** -0.5, (NUM_BIAS_TYPES, dh)))
        stem = f"{prefix}/layer{layer}"
        params.layers.append(DecoderLayerParams(
            **{name: store.add(f"{stem}/{name}",
                               np.concatenate(parts, axis=1).astype(dtype))
               for name, parts in drawn.items()},
            ln1_gain=store.add(f"{stem}/ln1_gain", np.ones((1, width), dtype=dtype)),
            ln1_bias=store.add(f"{stem}/ln1_bias", np.zeros((1, width), dtype=dtype)),
            ffn_w1=store.add(f"{stem}/ffn_w1",
                             rng.uniform(-limit_f1, limit_f1,
                                         (width, 4 * width)).astype(dtype)),
            ffn_b1=store.add(f"{stem}/ffn_b1", np.zeros((1, 4 * width), dtype=dtype)),
            ffn_w2=store.add(f"{stem}/ffn_w2",
                             rng.uniform(-limit_f1, limit_f1,
                                         (4 * width, width)).astype(dtype)),
            ffn_b2=store.add(f"{stem}/ffn_b2", np.zeros((1, width), dtype=dtype)),
            ln2_gain=store.add(f"{stem}/ln2_gain", np.ones((1, width), dtype=dtype)),
            ln2_bias=store.add(f"{stem}/ln2_bias", np.zeros((1, width), dtype=dtype)),
        ))
    return params


def assemble_sequence(layout: BatchLayout, slot_ids: Sequence[Sequence[int]],
                      rel_states: Value, ent_states: Value, params: DecoderParams) -> Value:
    """Stack the per-slot vectors of a batch of queries, mask slots included.

    ``slot_ids[q]`` holds query q's dense ids in its layout's slot order: an
    entity id at entity roles and a relation id at the others; the id at the
    mask slot is not read.  The states hold one block of rows per query, in
    batch order.  One gather reads every row from the table [entity states;
    relation states; mask token]; padding rows read the mask token.
    """
    blocks = len(layout.layouts)
    ne, nr = (states.shape[0] // max(blocks, 1) for states in (ent_states, rel_states))
    if ent_states.shape[0] != blocks * ne or rel_states.shape[0] != blocks * nr:
        raise ShapeError(f"states {ent_states.shape} and {rel_states.shape} do not split "
                         f"into {blocks} block(s)")
    mask = blocks * (ne + nr)
    rows: list[int] = []
    for q, (part, ids) in enumerate(zip(layout.layouts, slot_ids)):
        for slot, (role, i) in enumerate(zip(part.roles, ids)):
            size, first = (ne, q * ne) if role.is_entity else (nr, blocks * ne + q * nr)
            if slot != part.mask_slot and not 0 <= i < size:
                raise ShapeError(f"slot {slot} of query {q} reads id {i} of {size} states")
            rows.append(mask if slot == part.mask_slot else first + i)
        rows.extend([mask] * (layout.length - len(part)))
    table = ad.concat([ent_states, rel_states, params.mask_token])
    return ad.gather(table, rows)


def attention_layer(seq: Value, layout: BatchLayout,
                    layer: DecoderLayerParams, params: DecoderParams) -> Value:
    """One block: biased multi-head attention within each query's rows, then
    the position-wise net."""
    attn = ad.attention(ad.matmul(seq, layer.wq), ad.matmul(seq, layer.wk),
                        ad.matmul(seq, layer.wv), layer.key_bias, layer.value_bias,
                        layout.types, params.head_count)
    x = ad.layer_norm(ad.add(seq, attn), layer.ln1_gain, layer.ln1_bias)
    ffn = ad.add(ad.matmul(ad.dense_relu([x], layer.ffn_w1, layer.ffn_b1), layer.ffn_w2),
                 layer.ffn_b2)
    return ad.layer_norm(ad.add(x, ffn), layer.ln2_gain, layer.ln2_bias)


def decode(seq: Value, layout: BatchLayout, params: DecoderParams) -> Value:
    for layer in params.layers:
        seq = attention_layer(seq, layout, layer, params)
    return seq


def mask_vector(decoded: Value, layout: BatchLayout) -> Value:
    """The mask slot's output row of each query, in batch order."""
    return ad.gather(decoded, layout.mask_slots)


def entity_logits(x_m: Value, ent_states: Value, out_bias: Value) -> Value:
    """Row q: query q's mask vector dotted with each entity state of block q
    of ``ent_states``."""
    return ad.add(ad.block_dots(x_m, ent_states), out_bias)

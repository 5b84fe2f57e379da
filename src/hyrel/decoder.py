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

Scoring projects the mask slot's output onto the query-conditioned entity
state matrix: one logit per entity plus a single shared scalar bias.  A
per-entity bias would pin the decoder to one vocabulary, so no such
parameter exists anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np

from . import autodiff as ad
from .autodiff import ParamStore, Value
from .errors import ConfigError, ShapeError, VocabularyError
from .model import Hkg, QueryFact, Role, RoleKind, HEAD, PRIMARY_RELATION, TAIL, key_role, value_role


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
def _mask_cache(roles: tuple[Role, ...], dtype_name: str) -> tuple[np.ndarray, ...]:
    """One 0/1 matrix per bias type; the masks partition the slot-pair grid."""
    n = len(roles)
    masks = [np.zeros((n, n), dtype=np.dtype(dtype_name)) for _ in range(NUM_BIAS_TYPES)]
    for a in range(n):
        for b in range(n):
            masks[classify_bias(roles[a], roles[b]).value][a, b] = 1.0
    return tuple(masks)


@lru_cache(maxsize=512)
def _selectors(roles: tuple[Role, ...], head_count: int, width: int,
               dtype_name: str) -> tuple[np.ndarray, ...]:
    """Constant 0/1 matrices that let one op sequence serve every head and type.

    ``rep`` (H·n, n) stacks the sequence once per head; ``head_cols``
    (H·n, d) keeps head h's columns in row block h; ``expand`` (T, T·n)
    spreads a per-type column over that type's block of slot pairs and
    ``fold`` (T·n, n) sums the blocks back; ``masks`` (H·n, T·n) holds the
    bias-type masks side by side, tiled once per head.
    """
    dtype = np.dtype(dtype_name)
    n, dh = len(roles), width // head_count
    eye = np.eye(n, dtype=dtype)
    rep = np.tile(eye, (head_count, 1))
    head_cols = np.kron(np.eye(head_count, dtype=dtype), np.ones((n, dh), dtype=dtype))
    expand = np.kron(np.eye(NUM_BIAS_TYPES, dtype=dtype), np.ones((1, n), dtype=dtype))
    fold = np.tile(eye, (NUM_BIAS_TYPES, 1))
    masks = np.tile(np.concatenate(_mask_cache(roles, dtype_name), axis=1), (head_count, 1))
    return rep, head_cols, expand, fold, masks


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

    @property
    def head_width(self) -> int:
        return self.width // self.head_count


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


def assemble_sequence(query: QueryFact, kg: Hkg, rel_states: Value,
                      ent_states: Value, params: DecoderParams) -> tuple[Value, SequenceLayout]:
    """Stack the per-slot vectors for one query, mask slot included.

    One gather reads every slot from the table [entity states; relation
    states; mask token].
    """
    if ent_states.shape[0] != kg.num_entities or rel_states.shape[0] != kg.num_relations:
        raise ShapeError(f"states {ent_states.shape} and {rel_states.shape} do not cover "
                         f"the graph's {kg.num_entities} entities and "
                         f"{kg.num_relations} relations")
    layout = layout_for(query)
    rows: list[int] = []
    for slot, role in enumerate(layout.roles):
        if slot == layout.mask_slot:
            rows.append(kg.num_entities + kg.num_relations)
        elif role.is_entity:
            name = query.base.entity_at(role)
            if name not in kg.entity_index:
                raise VocabularyError(f"entity {name!r} not in the graph vocabulary")
            rows.append(kg.entity_index[name])
        else:
            name = (query.base.relation if role.kind is RoleKind.PRIMARY_RELATION
                    else query.base.qualifiers[role.index][0])
            if name not in kg.relation_index:
                raise VocabularyError(f"relation {name!r} not in the graph vocabulary")
            rows.append(kg.num_entities + kg.relation_index[name])
    table = ad.concat([ent_states, rel_states, params.mask_token], axis=0)
    return ad.gather(table, rows), layout


def attention_layer(seq: Value, layout: SequenceLayout, layer: DecoderLayerParams,
                    params: DecoderParams) -> Value:
    """One block: biased multi-head attention, then the position-wise net.

    Row block h of ``q``, ``weights`` and ``out`` belongs to head h; the
    constant selectors keep each head to its own columns and each slot pair
    to its bias type, so no step loops over heads or types.
    """
    rep, head_cols, expand, fold, masks = _selectors(
        layout.roles, params.head_count, params.width, seq.data.dtype.name)
    inv_scale = np.asarray(params.head_width ** -0.5, dtype=seq.data.dtype).reshape(1, 1)
    q = ad.mul(ad.matmul(rep, ad.matmul(seq, layer.wq)), head_cols)        # (H·n, d)
    k = ad.matmul(seq, layer.wk)
    v = ad.matmul(seq, layer.wv)
    per_type = ad.matmul(ad.matmul(q, ad.transpose(layer.key_bias)), expand)
    bias = ad.matmul(ad.mul(per_type, masks), fold)                          # (H·n, n)
    weights = ad.rowwise_softmax(
        ad.mul(ad.add(ad.matmul(q, ad.transpose(k)), bias), inv_scale))
    shares = ad.matmul(ad.mul(ad.matmul(weights, fold.T), masks), expand.T)  # (H·n, T)
    out = ad.add(ad.matmul(weights, v), ad.matmul(shares, layer.value_bias))
    attn = ad.matmul(rep.T, ad.mul(out, head_cols))                          # (n, d)
    x = ad.layer_norm(ad.add(seq, attn), layer.ln1_gain, layer.ln1_bias)
    ffn = ad.add(ad.matmul(ad.relu(ad.add(ad.matmul(x, layer.ffn_w1), layer.ffn_b1)),
                           layer.ffn_w2), layer.ffn_b2)
    return ad.layer_norm(ad.add(x, ffn), layer.ln2_gain, layer.ln2_bias)


def decode(seq: Value, layout: SequenceLayout, params: DecoderParams) -> Value:
    for layer in params.layers:
        seq = attention_layer(seq, layout, layer, params)
    return seq


def mask_vector(decoded: Value, layout: SequenceLayout) -> Value:
    return ad.gather(decoded, [layout.mask_slot])


def entity_logits(x_m: Value, ent_states: Value, out_bias: Value) -> Value:
    """One logit per entity: the mask vector dotted with each entity state."""
    return ad.add(ad.matmul(x_m, ad.transpose(ent_states)), out_bias)

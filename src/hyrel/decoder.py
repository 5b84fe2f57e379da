"""Edge-biased self-attention over a query fact's element sequence.

The sequence lays the fact out as [head, relation, tail, key0, value0, ...],
with one slot replaced by a learned mask vector.  Attention between two
slots receives a learned bias chosen by the pair's structural type: the
head/relation pair, the tail/relation pair, a relation/key pair, an aligned
key/value pair, or anything else.  A key-side bias enters the similarity
before the softmax and a value-side bias enters the weighted sum, so the
model can treat e.g. a key attending to its own value differently from a
key attending to an unrelated value.

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
from .errors import ConfigError, VocabularyError
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


def bias_masks(layout: SequenceLayout, dtype=np.float32) -> list[np.ndarray]:
    """One 0/1 matrix per bias type; masks partition the slot-pair grid."""
    return list(_mask_cache(layout.roles, np.dtype(dtype).name))


@lru_cache(maxsize=512)
def _mask_cache(roles: tuple[Role, ...], dtype_name: str) -> tuple[np.ndarray, ...]:
    n = len(roles)
    masks = [np.zeros((n, n), dtype=np.dtype(dtype_name)) for _ in range(NUM_BIAS_TYPES)]
    for a in range(n):
        for b in range(n):
            masks[classify_bias(roles[a], roles[b]).value][a, b] = 1.0
    return tuple(masks)


@lru_cache(maxsize=512)
def _present_bias_types(roles: tuple[Role, ...], dtype_name: str
                        ) -> tuple[tuple[int, np.ndarray], ...]:
    """Bias types that actually occur in this layout, with their masks."""
    masks = _mask_cache(roles, dtype_name)
    return tuple((i, m) for i, m in enumerate(masks) if m.any())


@lru_cache(maxsize=64)
def _ones_column(n: int, dtype_name: str) -> np.ndarray:
    return np.ones((n, 1), dtype=np.dtype(dtype_name))


@dataclass
class HeadParams:
    wq: Value          # (d, dh)
    wk: Value          # (d, dh)
    wv: Value          # (d, dh)
    key_bias: Value    # (num bias types, dh)
    value_bias: Value  # (num bias types, dh)


@dataclass
class DecoderLayerParams:
    heads: list[HeadParams]
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
        heads = []
        for h in range(head_count):
            stem = f"{prefix}/layer{layer}/head{h}"
            heads.append(HeadParams(
                wq=store.add(f"{stem}/wq",
                             rng.uniform(-limit_qkv, limit_qkv, (width, dh)).astype(dtype)),
                wk=store.add(f"{stem}/wk",
                             rng.uniform(-limit_qkv, limit_qkv, (width, dh)).astype(dtype)),
                wv=store.add(f"{stem}/wv",
                             rng.uniform(-limit_qkv, limit_qkv, (width, dh)).astype(dtype)),
                key_bias=store.add(f"{stem}/key_bias",
                                   rng.normal(0.0, dh ** -0.5,
                                              (NUM_BIAS_TYPES, dh)).astype(dtype)),
                value_bias=store.add(f"{stem}/value_bias",
                                     rng.normal(0.0, dh ** -0.5,
                                                (NUM_BIAS_TYPES, dh)).astype(dtype)),
            ))
        stem = f"{prefix}/layer{layer}"
        params.layers.append(DecoderLayerParams(
            heads=heads,
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
    """Stack the per-slot vectors for one query, mask slot included."""
    layout = layout_for(query)
    rows: list[Value] = []
    for slot, role in enumerate(layout.roles):
        if slot == layout.mask_slot:
            rows.append(params.mask_token)
        elif role.is_entity:
            name = query.base.entity_at(role)
            idx = kg.entity_index.get(name)
            if idx is None:
                raise VocabularyError(f"entity {name!r} not in the graph vocabulary")
            rows.append(ad.gather(ent_states, [idx]))
        else:
            name = (query.base.relation if role.kind is RoleKind.PRIMARY_RELATION
                    else query.base.qualifiers[role.index][0])
            idx = kg.relation_index.get(name)
            if idx is None:
                raise VocabularyError(f"relation {name!r} not in the graph vocabulary")
            rows.append(ad.gather(rel_states, [idx]))
    return ad.concat(rows, axis=0), layout


def attention_layer(seq: Value, layout: SequenceLayout, layer: DecoderLayerParams,
                    params: DecoderParams) -> Value:
    """One block: biased multi-head attention, then the position-wise net."""
    n = len(layout)
    dtype_name = seq.data.dtype.name
    present = _present_bias_types(layout.roles, dtype_name)
    inv_scale = np.asarray(params.head_width ** -0.5, dtype=seq.data.dtype).reshape(1, 1)
    ones_col = _ones_column(n, dtype_name)
    head_outputs: list[Value] = []
    for head in layer.heads:
        q = ad.matmul(seq, head.wq)
        k = ad.matmul(seq, head.wk)
        v = ad.matmul(seq, head.wv)
        scores = ad.matmul(q, ad.transpose(k))
        for row, mask in present:
            bias_vec = ad.gather(head.key_bias, [row])             # (1, dh)
            per_slot = ad.matmul(q, ad.transpose(bias_vec))        # (n, 1)
            scores = ad.add(scores, ad.mul(per_slot, mask))
        weights = ad.rowwise_softmax(ad.mul(scores, inv_scale))
        out = ad.matmul(weights, v)
        for row, mask in present:
            share = ad.matmul(ad.mul(weights, mask), ones_col)     # (n, 1)
            out = ad.add(out, ad.matmul(share, ad.gather(head.value_bias, [row])))
        head_outputs.append(out)
    attn = head_outputs[0] if len(head_outputs) == 1 else ad.concat(head_outputs, axis=1)
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


def score_entities(x_m: Value, ent_states: Value, out_bias: Value) -> Value:
    """Probabilities over every entity of the graph; rows sum to one."""
    return ad.rowwise_softmax(entity_logits(x_m, ent_states, out_bias))

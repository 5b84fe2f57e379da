"""Query-conditioned message passing over a foundation graph.

The encoder never owns an embedding per node.  It labels the nodes named by
the query with an all-ones state (a labeling trick) and runs typed message
passing whose only learned inputs are one vector per interaction type per
layer plus a per-layer update map.  Node states therefore mean "how this
node relates to the query", which survives arbitrary relabeling of the
vocabulary.

Per layer, the message sent along an edge (w, t, u) is the source state
gated elementwise by the type vector of t; messages are sum-aggregated at
their destination; the update concatenates the previous state with the
aggregate and applies a linear map plus relu.  Nodes without incoming edges
still pass through the update with a zero aggregate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import ParamStore, Value
from .errors import ConfigError
from .foundation import FoundationGraph


@dataclass
class EncoderLayerParams:
    type_vectors: Value | None  # (num_types, d); None in the rewired variant
    update_w: Value             # (2d, d)
    update_b: Value             # (1, d)
    ln_gain: Value | None = None
    ln_bias: Value | None = None


@dataclass
class EncoderParams:
    """Everything one foundation-graph encoder learns."""

    alphabet: tuple
    width: int
    layers: list[EncoderLayerParams] = field(default_factory=list)
    residual: bool = False
    layer_norm: bool = False

    @property
    def depth(self) -> int:
        return len(self.layers)


def init_encoder_params(store: ParamStore, prefix: str, alphabet: Sequence,
                        depth: int, width: int, rng: np.random.Generator,
                        dtype=np.float32, residual: bool = False,
                        layer_norm: bool = False,
                        typed_messages: bool = True) -> EncoderParams:
    """Create and register encoder parameters under ``prefix``."""
    params = EncoderParams(tuple(alphabet), width, residual=residual, layer_norm=layer_norm)
    for layer in range(depth):
        tv = None
        if typed_messages:
            tv = store.add(f"{prefix}/layer{layer}/type_vectors",
                           rng.normal(0.0, width ** -0.5,
                                      (len(params.alphabet), width)).astype(dtype))
        limit = np.sqrt(6.0 / (3 * width))
        w = store.add(f"{prefix}/layer{layer}/update_w",
                      rng.uniform(-limit, limit, (2 * width, width)).astype(dtype))
        b = store.add(f"{prefix}/layer{layer}/update_b", np.zeros((1, width), dtype=dtype))
        lp = EncoderLayerParams(tv, w, b)
        if layer_norm:
            lp.ln_gain = store.add(f"{prefix}/layer{layer}/ln_gain",
                                   np.ones((1, width), dtype=dtype))
            lp.ln_bias = store.add(f"{prefix}/layer{layer}/ln_bias",
                                   np.zeros((1, width), dtype=dtype))
        params.layers.append(lp)
    return params


def indicator_init(g: FoundationGraph, query_nodes: Iterable[int], width: int,
                   dtype=np.float32) -> Value:
    """All-ones rows for the query's nodes, zeros everywhere else."""
    init = np.zeros((g.num_nodes, width), dtype=dtype)
    for n in query_nodes:
        if not 0 <= n < g.num_nodes:
            raise IndexError(f"query node {n} out of range for {g.num_nodes} nodes")
        init[n] = 1.0
    return Value(init)


def _update(states: Value, agg: Value, layer: EncoderLayerParams,
            params: EncoderParams) -> Value:
    h = ad.relu(ad.add(ad.matmul(ad.concat([states, agg], axis=1), layer.update_w),
                       layer.update_b))
    if params.residual:
        h = ad.add(h, states)
    if params.layer_norm:
        h = ad.layer_norm(h, layer.ln_gain, layer.ln_bias)
    return h


def mp_layer(states: Value, g: FoundationGraph, layer: EncoderLayerParams,
             params: EncoderParams) -> Value:
    """One round of typed message passing plus the node update."""
    if states.shape[0] != g.num_nodes:
        raise ConfigError(f"state matrix has {states.shape[0]} rows for a graph of "
                          f"{g.num_nodes} nodes")
    if layer.type_vectors is not None and layer.type_vectors.shape[0] != len(g.alphabet):
        raise ConfigError(
            f"encoder knows {layer.type_vectors.shape[0]} interaction types but the "
            f"graph alphabet has {len(g.alphabet)}")
    src, trow, dst = g.segments()
    if g.num_edges == 0:
        agg = Value(np.zeros_like(states.data))
    else:
        messages = ad.mul(ad.gather(states, src), ad.gather(layer.type_vectors, trow))
        agg = ad.scatter_add(messages, dst, g.num_nodes)
    return _update(states, agg, layer, params)


def encode(g: FoundationGraph, query_nodes: Iterable[int],
           params: EncoderParams) -> Value:
    """Indicator initialization followed by every layer of message passing."""
    if params.alphabet != g.alphabet:
        raise ConfigError(f"encoder alphabet {[t.value for t in params.alphabet]} does not "
                          f"match graph alphabet {[t.value for t in g.alphabet]}")
    dtype = params.layers[0].update_w.data.dtype if params.layers else np.float32
    states = indicator_init(g, query_nodes, params.width, dtype)
    for layer in params.layers:
        states = mp_layer(states, g, layer, params)
    return states


def encode_with_edge_states(g: FoundationGraph, query_nodes: Iterable[int],
                            params: EncoderParams, edge_states: Value) -> Value:
    """Rewired variant: per-edge message gates come from another encoder.

    Each edge must carry a relation annotation; the gate for an edge is the
    annotated relation's row of ``edge_states`` (typically the relation
    encoder's output), replacing the learned per-type vectors.
    """
    erel = g.relation_segments()
    dtype = params.layers[0].update_w.data.dtype if params.layers else np.float32
    states = indicator_init(g, query_nodes, params.width, dtype)
    src, _, dst = g.segments()
    for layer in params.layers:
        if g.num_edges == 0:
            agg = Value(np.zeros_like(states.data))
        else:
            messages = ad.mul(ad.gather(states, src), ad.gather(edge_states, erel))
            agg = ad.scatter_add(messages, dst, g.num_nodes)
        states = _update(states, agg, layer, params)
    return states

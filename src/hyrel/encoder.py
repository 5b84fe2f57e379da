"""Query-conditioned message passing over a foundation graph.

The encoder never owns an embedding per node.  It labels the nodes named by
the query with an all-ones state (a labeling trick) and runs typed message
passing whose only learned inputs are one vector per interaction type per
layer plus a per-layer update map.  Node states therefore mean "how this
node relates to the query", which survives arbitrary relabeling of the
vocabulary.

Per layer, the message sent along an edge (w, t, u) is the source state
gated elementwise by a vector; messages are sum-aggregated at their
destination; the update concatenates the previous state with the aggregate
and applies a linear map plus relu.  Nodes without incoming edges still pass
through the update with a zero aggregate.  Leaving a fact out (the
training leakage guard) drops the edges only it induced from every layer.

Where the gate comes from depends on the model structure.  In the parallel
structure it is the layer's learned type vector of t.  In the
relation-driven structure the caller passes ``edge_states`` (the relation
encoder's output) and the gate of an edge is the row of the relation that
induced it, read from the graph's per-edge relation annotations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import ParamStore, Segments, Value
from .errors import ConfigError
from .foundation import FoundationGraph


@dataclass
class EncoderLayerParams:
    type_vectors: Value | None  # (num_types, d); None when edge states gate the messages
    update_w: Value             # (2d, d)
    update_b: Value             # (1, d)


@dataclass
class EncoderParams:
    """Everything one foundation-graph encoder learns."""

    alphabet: tuple
    width: int
    layers: list[EncoderLayerParams] = field(default_factory=list)


def init_encoder_params(store: ParamStore, prefix: str, alphabet: Sequence,
                        depth: int, width: int, rng: np.random.Generator,
                        dtype=np.float32, typed_messages: bool = True) -> EncoderParams:
    """Create and register encoder parameters under ``prefix``."""
    params = EncoderParams(tuple(alphabet), width)
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
        params.layers.append(EncoderLayerParams(tv, w, b))
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


def edge_plans(g: FoundationGraph, gated_by_relations: bool,
               leave_out: int | None = None) -> tuple[Segments, Segments, Segments]:
    """(src, gate_rows, dst) plans of the edges left without fact ``leave_out``;
    gate rows are edge types, or annotated relations when those gate."""
    src, trow, dst = g.segments(leave_out)
    return src, g.relation_segments(leave_out) if gated_by_relations else trow, dst


def mp_layer(states: Value, g: FoundationGraph, layer: EncoderLayerParams,
             edge_states: Value | None = None, plans: tuple | None = None) -> Value:
    """One round of gated message passing plus the node update.

    An edge's gate is its type's row of ``layer.type_vectors``, or, given
    ``edge_states``, the row of the relation annotated on the edge.
    Messages run along ``plans`` (:func:`edge_plans`; all edges by default).
    """
    if states.shape[0] != g.num_nodes:
        raise ConfigError(f"state matrix has {states.shape[0]} rows for a graph of "
                          f"{g.num_nodes} nodes")
    if layer.type_vectors is not None and layer.type_vectors.shape[0] != len(g.alphabet):
        raise ConfigError(
            f"encoder knows {layer.type_vectors.shape[0]} interaction types but the "
            f"graph alphabet has {len(g.alphabet)}")
    src, gate_rows, dst = plans or edge_plans(g, edge_states is not None)
    gates = layer.type_vectors if edge_states is None else edge_states
    messages = ad.mul(ad.gather(states, src), ad.gather(gates, gate_rows))
    agg = ad.scatter_add(messages, dst, g.num_nodes)
    return ad.relu(ad.add(ad.matmul(ad.concat([states, agg], axis=1), layer.update_w),
                          layer.update_b))


def encode(g: FoundationGraph, query_nodes: Iterable[int], params: EncoderParams,
           edge_states: Value | None = None, leave_out: int | None = None) -> Value:
    """Indicator initialization followed by every layer of message passing,
    over the edges that remain when fact ``leave_out`` is left out."""
    if params.alphabet != g.alphabet:
        raise ConfigError(f"encoder alphabet {[t.value for t in params.alphabet]} does not "
                          f"match graph alphabet {[t.value for t in g.alphabet]}")
    dtype = params.layers[0].update_w.data.dtype if params.layers else np.float32
    states = indicator_init(g, query_nodes, params.width, dtype)
    plans = edge_plans(g, edge_states is not None, leave_out)
    for layer in params.layers:
        states = mp_layer(states, g, layer, edge_states, plans)
    return states

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

A batch of queries is encoded at once, stacked along the rows: query q owns
the block of rows q·N to (q+1)·N - 1 of one state matrix, with its own
labels and its own left-out fact, and every layer runs once over the
graph's one message plan
(:meth:`~hyrel.foundation.FoundationGraph.message_plan`), shared by every
block.  No edge joins two blocks, and a left-out fact zeroes its edges'
cells in its own block only.  Every sum adds left to right, so each block
sums the same rows in the same order as a batch of one, and a zeroed edge
adds what an absent one would.

A message depends only on its source node and gate row, and many edges
share both (every edge out of one head with one type, say), so a layer
multiplies each distinct (source, gate row) pair once, reading shared gate
rows once for every block, and fans the products out to the edges'
destinations in one sum over the edges in destination order
(:func:`~hyrel.autodiff.scatter_add` over a
:class:`~hyrel.autodiff.MessagePlan`).  That sum takes the per-edge products
slab by slab, so they never exist in full, and the per-pair products are a
temporary of the op: the tape holds one node per layer's message pass.

Where the gate comes from depends on the graph.  Over a graph without
per-edge relation annotations it is the layer's learned type vector of t.
Over an annotated graph (the relation-driven structure) the caller passes
``edge_states`` (the relation encoder's output), each layer maps them
through its learned ``relation_proj``, and an edge's gate is the mapped row
of the relation that induced it: as small as a type vector, where raw
relation states would grow the logits with every layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import MessagePlan, ParamStore, Value
from .errors import ConfigError, ContractError, ShapeError
from .foundation import FoundationGraph


@dataclass
class EncoderLayerParams:
    type_vectors: Value | None  # (num_types, d); None when edge states gate the messages
    update_w: Value             # (2d, d)
    update_b: Value             # (1, d)
    relation_proj: Value | None = None  # (d, d) map of the gating edge states


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


def init_relation_projections(store: ParamStore, prefix: str, params: EncoderParams,
                              rng: np.random.Generator, dtype=np.float32) -> None:
    """Create each layer's ``relation_proj`` for an encoder gated by edge states.

    Drawn with std d^-1.5 so the mapped gates start as small as type vectors.
    """
    d = params.width
    for i, layer in enumerate(params.layers):
        layer.relation_proj = store.add(f"{prefix}/layer{i}/relation_proj",
                                        rng.normal(0.0, d ** -1.5, (d, d)).astype(dtype))


def indicator_init(g: FoundationGraph, query_nodes: Sequence[Iterable[int]], width: int,
                   dtype=np.float32) -> Value:
    """One block of rows per query: all-ones rows for its nodes, zeros
    everywhere else.  The labels are constants: no gradient reaches them."""
    n = g.num_nodes
    init = np.zeros((len(query_nodes) * n, width), dtype=dtype)
    for q, nodes in enumerate(query_nodes):
        for node in nodes:
            if not 0 <= node < n:
                raise IndexError(f"query node {node} out of range for {n} nodes")
            init[q * n + node] = 1.0
    return Value.constant(init)


def mp_layer(states: Value, g: FoundationGraph, layer: EncoderLayerParams,
             edge_states: Value | None = None, plan: MessagePlan | None = None) -> Value:
    """One round of gated message passing plus the node update.

    An edge's gate is its annotated relation's row of ``edge_states @
    layer.relation_proj`` over a graph with relation annotations, else its
    type's row of ``layer.type_vectors``; any other pairing of graph, edge
    states and layer is a :class:`ContractError`.  Messages are computed
    once per (source, gate row) pair and summed at the destinations along
    ``plan`` (:meth:`FoundationGraph.message_plan`; one block over all edges
    by default), whose blocks stack along the rows of ``states``, and along
    those of ``edge_states`` when given.
    """
    plan = plan or g.message_plan()
    if states.shape[0] != plan.blocks * g.num_nodes:
        raise ConfigError(f"state matrix has {states.shape[0]} rows for {plan.blocks} "
                          f"block(s) of a graph of {g.num_nodes} nodes")
    annotated = g.relation is not None
    if (edge_states is not None) != annotated or \
            (layer.relation_proj if annotated else layer.type_vectors) is None:
        raise ContractError("edge states through a layer's relation_proj gate the messages "
                            "of a graph with relation annotations, type vectors any other")
    if annotated:
        gates = ad.matmul(edge_states, layer.relation_proj)
        stride = gates.shape[0] // plan.blocks
    else:
        gates, stride = layer.type_vectors, 0
        if gates.shape[0] != len(g.alphabet):
            raise ConfigError(f"encoder knows {gates.shape[0]} interaction types but the "
                              f"graph alphabet has {len(g.alphabet)}")
    agg = ad.scatter_add(states, gates, plan, stride)
    return ad.dense_relu([states, agg], layer.update_w, layer.update_b)


def encode(g: FoundationGraph, query_nodes: Sequence[Iterable[int]], params: EncoderParams,
           edge_states: Value | None = None,
           leave_outs: Sequence[int | None] | None = None) -> Value:
    """Indicator initialization followed by every layer of message passing,
    one block of rows per query.

    Block q is labelled at ``query_nodes[q]`` and reads the edges left when
    fact ``leave_outs[q]`` is left out (None, or no ``leave_outs``: every
    edge).  ``edge_states``, when given, stacks one block of gate rows per
    query in the same order.

    Each layer checks that ``edge_states`` are given exactly when ``g``
    carries per-edge relation annotations (:func:`mp_layer`): typed messages
    over an annotated graph would count twice the edges that differ only in
    their relation.
    """
    if params.alphabet != g.alphabet:
        raise ConfigError(f"encoder alphabet {[t.value for t in params.alphabet]} does not "
                          f"match graph alphabet {[t.value for t in g.alphabet]}")
    blocks = len(query_nodes)
    leave_outs = [None] * blocks if leave_outs is None else list(leave_outs)
    if len(leave_outs) != blocks:
        raise ContractError(f"{len(leave_outs)} left-out facts for {blocks} queries")
    if edge_states is not None and (not blocks or edge_states.shape[0] % blocks):
        raise ShapeError(f"{edge_states.shape[0]} edge-state rows do not split into "
                         f"{blocks} blocks")
    dtype = params.layers[0].update_w.data.dtype if params.layers else np.float32
    states = indicator_init(g, query_nodes, params.width, dtype)
    plan = g.message_plan(leave_outs)
    for layer in params.layers:
        states = mp_layer(states, g, layer, edge_states, plan)
    return states

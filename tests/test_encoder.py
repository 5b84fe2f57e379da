import numpy as np
import pytest

import hyrel.autodiff as ad
from hyrel import ConfigError, ContractError, ShapeError
from hyrel.autodiff import ParamStore, Segments, Value
from hyrel.encoder import (encode, indicator_init, init_encoder_params,
                           init_relation_projections, mp_layer)
from hyrel.foundation import (EntInteraction, FoundationGraph, build_entity_graph,
                              build_relation_graph)
from hyrel.reference import kept, naive_message_passing, random_hkg

T = EntInteraction.H2T
TR = EntInteraction.T2H


def graph(n, edges, relations=None, alphabet=(T, TR)):
    """A hand-made graph of ``n`` nodes over (src, type, dst) ``edges``, each
    edge induced by more than one fact."""
    row = {t: i for i, t in enumerate(alphabet)}
    cols = np.array([(s, row[t], d) for s, t, d in edges], dtype=np.int64).reshape(-1, 3)
    return FoundationGraph(n, alphabet, *cols.T, np.full((len(edges), 2), -1),
                           None if relations is None else np.array(relations, dtype=np.int64))


def line_graph(n=3):
    """A simple path 0 -> 1 -> ... -> n-1 with reciprocal edges."""
    edges = []
    for i in range(n - 1):
        edges.append((i, T, i + 1))
        edges.append((i + 1, TR, i))
    order = {T: 0, TR: 1}
    edges.sort(key=lambda e: (e[0], order[e[1]], e[2]))
    return graph(n, edges)


def fresh_params(alphabet, depth=1, width=4, seed=0, dtype=np.float64, **kw):
    store = ParamStore()
    rng = np.random.default_rng(seed)
    return store, init_encoder_params(store, "enc", alphabet, depth, width, rng,
                                      dtype=dtype, **kw)


def relation_gated_params(alphabet, depth=1, width=4, seed=0, dtype=np.float64):
    """Parameters of an encoder whose messages edge states gate."""
    store = ParamStore()
    rng = np.random.default_rng(seed)
    params = init_encoder_params(store, "enc", alphabet, depth, width, rng, dtype=dtype,
                                 typed_messages=False)
    init_relation_projections(store, "enc", params, rng, dtype=dtype)
    return store, params


def test_indicator_rows():
    g = line_graph(3)
    states = indicator_init(g, [{0, 2}], 2)
    assert states.data.tolist() == [[1, 1], [0, 0], [1, 1]]


def test_indicator_empty_query():
    g = line_graph(4)
    assert (indicator_init(g, [set()], 3).data == 0).all()


def test_indicator_out_of_range():
    with pytest.raises(IndexError):
        indicator_init(line_graph(2), [{5}], 2)


def test_masked_entity_never_labeled(small_kg, monkeypatch):
    # Query (h, r, MASK) with one qualifier: only h and v1 get labeled.
    from hyrel import TAIL, QueryFact
    from hyrel import encoder
    from hyrel.predictor import LinkPredictor, ModelConfig
    fact = small_kg.facts[0]  # (a, r, b) with qualifier (k, c)
    query = QueryFact.from_fact(fact, TAIL)
    predictor = LinkPredictor.build(ModelConfig(width=4, encoder_depth=1), seed=0)
    labels, encode = [], encoder.encode
    monkeypatch.setattr(encoder, "encode",
                        lambda g, nodes, *args, **kw: labels.append(nodes)
                        or encode(g, nodes, *args, **kw))
    predictor.query_logits(predictor.prepare(small_kg), [query])
    rel = small_kg.relation_index
    assert labels == [[{rel["r"], rel["k"]}],
                      [{small_kg.entity_index["a"], small_kg.entity_index["c"]}]]


def test_mp_layer_no_edges_applies_update_everywhere():
    g = graph(3, ())
    store, params = fresh_params((T, TR), width=4)
    states = indicator_init(g, [{1}], 4, np.float64)
    out = mp_layer(states, g, params.layers[0])
    w = params.layers[0].update_w.data
    b = params.layers[0].update_b.data
    for row in range(3):
        joint = np.concatenate([states.data[row], np.zeros(4)])
        assert np.allclose(out.data[row], np.maximum(joint @ w + b[0], 0))


def test_mp_layer_identity_message():
    g = graph(2, ((0, T, 1),))
    store, params = fresh_params((T, TR), width=3)
    params.layers[0].type_vectors.data[:] = 1.0
    states = Value(np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]]))
    agg = ad.scatter_add(states, params.layers[0].type_vectors, g.message_plan())
    assert agg.data.tolist() == [[0, 0, 0], [1, 1, 1]]


def test_mp_layer_matches_naive_loop(rng):
    plain = line_graph(3)
    annotated = graph(3, plain.edges, relations=(1, 0, 0, 1))
    states = Value(rng.normal(size=(3, 5)))
    edge_states = Value(rng.normal(size=(2, 5)))
    # Gated by the type vectors over the plain graph, then by the projected
    # rows of two relation states over the annotated one.
    for g, gates in ((plain, None), (annotated, edge_states)):
        _, params = (fresh_params((T, TR), width=5, seed=3) if gates is None
                     else relation_gated_params((T, TR), width=5, seed=3))
        layer = params.layers[0]
        out = mp_layer(states, g, layer, gates)
        expected = naive_message_passing(
            states.data, g.edges, g.alphabet,
            layer.type_vectors.data if gates is None else None,
            layer.update_w.data, layer.update_b.data,
            None if gates is None else gates.data @ layer.relation_proj.data,
            g.relation)
        assert np.allclose(out.data, expected, atol=1e-6)


def per_edge_layer(states, g, layer, edge_states, keep):
    """One layer by the per-edge formula ``states[src] * gates[gate_row]``,
    summed at the kept edges' destinations by a fresh :class:`Segments`."""
    src, type_row, dst = g.src, g.type_row, g.dst
    if edge_states is None:
        gates, gate_row = layer.type_vectors.data, type_row
    else:
        gates, gate_row = edge_states.data @ layer.relation_proj.data, g.relation
    messages = states.data[src[keep]] * gates[gate_row[keep]]
    plan = Segments(dst[keep])
    agg = np.zeros_like(states.data)
    agg[plan.sum_rows] = plan.block_sums(messages)[:, 0]
    joint = np.concatenate([states.data, agg], axis=1)
    return np.maximum(joint @ layer.update_w.data + layer.update_b.data, 0)


@pytest.mark.parametrize("gated_by_relations", [False, True])
def test_mp_layer_aggregate_is_the_per_edge_sum_bit_for_bit(gated_by_relations):
    rng = np.random.default_rng(21)
    for _ in range(10):
        kg = random_hkg(rng, max_facts=8, min_facts=3, num_entities=8)
        g = build_entity_graph(kg, with_fact_relations=gated_by_relations)
        _, params = (relation_gated_params(g.alphabet, width=6, seed=2, dtype=np.float32)
                     if gated_by_relations
                     else fresh_params(g.alphabet, width=6, seed=2, dtype=np.float32))
        layer = params.layers[0]
        states = Value(rng.normal(size=(g.num_nodes, 6)).astype(np.float32))
        edge_states = (Value(rng.normal(size=(kg.num_relations, 6)).astype(np.float32))
                       if gated_by_relations else None)
        for leave_out in (None, *range(kg.num_facts)):
            keep = (np.ones(g.num_edges, dtype=bool) if leave_out is None
                    else kept(g, leave_out))
            plan = g.message_plan([leave_out])
            out = mp_layer(states, g, layer, edge_states, plan)
            expected = per_edge_layer(states, g, layer, edge_states, keep)
            assert out.data.tobytes() == expected.tobytes()


def test_typed_layer_refuses_edge_states():
    g = graph(2, ((0, T, 1), (1, TR, 0)), relations=(0, 0))
    _, params = fresh_params((T, TR), width=3)
    states = indicator_init(g, [{0}], 3, np.float64)
    with pytest.raises(ContractError, match="relation_proj"):
        mp_layer(states, g, params.layers[0], Value(np.ones((1, 3))))


@pytest.mark.parametrize("relation_gated,annotated,with_states", [
    (False, False, True), (False, True, False), (False, True, True),
    (True, False, False), (True, False, True), (True, True, False)])
def test_every_mismatched_pairing_of_params_graph_and_edge_states_is_contract_error(
        relation_gated, annotated, with_states):
    # Edge states gate exactly the annotated graphs' messages, through the
    # layers' relation_proj.  Typed messages over an annotated graph would
    # count twice the edges that differ only in their relation.
    kg = random_hkg(np.random.default_rng(3), max_facts=8)
    g = build_entity_graph(kg, with_fact_relations=annotated)
    _, params = (relation_gated_params if relation_gated else fresh_params)(g.alphabet)
    edge_states = Value(np.ones((kg.num_relations, 4))) if with_states else None
    with pytest.raises(ContractError):
        encode(g, [{0}], params, edge_states)


def test_mp_layer_rejects_alphabet_mismatch():
    g = line_graph(2)
    store, params = fresh_params((T,) , width=4)  # missing the reciprocal type
    states = indicator_init(g, [{0}], 4, np.float64)
    with pytest.raises(ConfigError):
        mp_layer(states, g, params.layers[0])


def test_encode_depth_zero_returns_indicator():
    g = line_graph(4)
    store, params = fresh_params((T, TR), depth=0)
    out = encode(g, [{2}], params)
    assert out.data.tolist() == indicator_init(g, [{2}], 4).data.tolist()


def test_unreached_nodes_share_the_zero_chain_value(rng):
    # Path 0-1-2-3-4-5 labeled at node 0 with depth 2: nodes 3, 4, 5 are
    # farther than two hops, so their states equal the no-input update chain.
    g = line_graph(6)
    store, params = fresh_params((T, TR), depth=2, width=4, seed=9)
    out = encode(g, [{0}], params)
    chain = np.zeros(4)
    for layer in params.layers:
        agg = np.zeros(4)
        chain = np.maximum(np.concatenate([chain, agg]) @ layer.update_w.data
                           + layer.update_b.data[0], 0)
    for far in (3, 4, 5):
        assert np.allclose(out.data[far], chain, atol=1e-9)
    assert not np.allclose(out.data[1], chain)


def test_encode_conditioning_sensitivity(rng):
    g = line_graph(4)
    store, params = fresh_params((T, TR), depth=2, width=8, seed=4)
    a = encode(g, [{0}], params).data
    b = encode(g, [{3}], params).data
    assert not np.allclose(a[0], b[0])
    assert not np.allclose(a[3], b[3])


def test_encode_permutation_equivariance(rng):
    kg = random_hkg(rng, max_facts=6, min_facts=3)
    g = build_entity_graph(kg)
    store, params = fresh_params(g.alphabet, depth=3, width=8, seed=5, dtype=np.float32)
    query = {0, min(2, g.num_nodes - 1)}
    out = encode(g, [query], params).data

    perm = rng.permutation(g.num_nodes)
    remap = {old: int(new) for old, new in enumerate(perm)}
    edges = tuple(sorted(((remap[s], t, remap[d]) for s, t, d in g.edges),
                         key=lambda e: (e[0], e[1].value, e[2])))
    pg = graph(g.num_nodes, edges, alphabet=g.alphabet)
    pout = encode(pg, [{remap[q] for q in query}], params).data
    for old in range(g.num_nodes):
        assert np.allclose(out[old], pout[remap[old]], atol=1e-5)


def test_encode_rejects_wrong_alphabet(small_kg):
    g = build_relation_graph(small_kg)
    store, params = fresh_params((T, TR))
    with pytest.raises(ConfigError):
        encode(g, [set()], params)


def test_edge_state_encoding_runs(small_kg, rng):
    g = build_entity_graph(small_kg, with_fact_relations=True)
    store, params = relation_gated_params(g.alphabet, depth=2, width=4, seed=1)
    rel_states = Value(rng.normal(size=(small_kg.num_relations, 4)))
    out = encode(g, [{0}], params, edge_states=rel_states)
    assert out.data.shape == (small_kg.num_entities, 4)
    assert np.isfinite(out.data).all()


@pytest.mark.parametrize("gated_by_relations", [False, True])
def test_batched_encode_blocks_equal_single_encodes_bit_for_bit(gated_by_relations):
    # Mixed left-out facts and None in one batch; block q must be the
    # batch-of-one encoding of query q exactly, for both gate sources.
    rng = np.random.default_rng(5)
    for _ in range(10):
        kg = random_hkg(rng, max_facts=8, min_facts=3, num_entities=8)
        g = build_entity_graph(kg, with_fact_relations=gated_by_relations)
        _, params = (relation_gated_params(g.alphabet, depth=2, width=6, seed=2,
                                           dtype=np.float32)
                     if gated_by_relations
                     else fresh_params(g.alphabet, depth=2, width=6, seed=2,
                                       dtype=np.float32))
        leave_outs = [None, *range(kg.num_facts), None]
        nodes = [set(rng.choice(g.num_nodes, 2, replace=False).tolist())
                 for _ in leave_outs]
        r = kg.num_relations
        edge_states = (Value(rng.normal(size=(len(leave_outs) * r, 6)).astype(np.float32))
                       if gated_by_relations else None)
        batched = encode(g, nodes, params, edge_states, leave_outs).data
        n = g.num_nodes
        for q, (query, f) in enumerate(zip(nodes, leave_outs)):
            own = None if edge_states is None else Value(edge_states.data[q * r:(q + 1) * r])
            single = encode(g, [query], params, own, [f]).data
            assert single.tobytes() == batched[q * n:(q + 1) * n].tobytes(), (q, f)


def test_encode_needs_one_leave_out_and_gate_block_per_query(small_kg):
    g = build_entity_graph(small_kg, with_fact_relations=True)
    _, params = relation_gated_params(g.alphabet, width=4)
    rel = Value(np.ones((small_kg.num_relations, 4)))
    with pytest.raises(ContractError):
        encode(g, [{0}, {1}], params, ad.concat([rel, rel]), [None])
    with pytest.raises(ShapeError):
        encode(g, [{0}, {1}], params, rel)

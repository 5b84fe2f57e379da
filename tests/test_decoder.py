import numpy as np
import pytest

import hyrel.autodiff as ad
from hyrel import HEAD, TAIL, Hkg, HyperFact, QueryFact, ShapeError, value_role
from hyrel.autodiff import ParamStore, Value
from hyrel.decoder import (BiasType, BatchLayout, _bias_types, assemble_sequence,
                           attention_layer, classify_bias, decode, entity_logits,
                           init_decoder_params, mask_vector)
from hyrel.model import PRIMARY_RELATION, key_role, sequence_roles
from hyrel.reference import naive_attention_layer


def fresh_decoder(width=8, heads=1, depth=1, seed=0, dtype=np.float64, **kw):
    store = ParamStore()
    rng = np.random.default_rng(seed)
    return store, init_decoder_params(store, "dec", width, heads, depth, rng,
                                      dtype=dtype, **kw)


def test_classify_bias_table():
    assert classify_bias(HEAD, PRIMARY_RELATION) is BiasType.HR
    assert classify_bias(PRIMARY_RELATION, HEAD) is BiasType.HR
    assert classify_bias(TAIL, PRIMARY_RELATION) is BiasType.TR
    assert classify_bias(PRIMARY_RELATION, key_role(1)) is BiasType.RK
    assert classify_bias(key_role(0), value_role(0)) is BiasType.KV
    assert classify_bias(key_role(0), value_role(1)) is BiasType.OTHER
    assert classify_bias(value_role(0), value_role(1)) is BiasType.OTHER
    assert classify_bias(HEAD, HEAD) is BiasType.OTHER
    assert classify_bias(HEAD, TAIL) is BiasType.OTHER
    assert classify_bias(key_role(0), key_role(1)) is BiasType.OTHER


def test_bias_types_classify_every_slot_pair():
    roles = sequence_roles(2)
    types = _bias_types(2)
    assert types.shape == (len(roles), len(roles))
    assert types.tolist() == [[classify_bias(a, b).value for b in roles] for a in roles]


def test_batch_layout_keeps_pairs_within_their_query(rng):
    # Each query owns length rows; a pair with a padding key is masked, and no
    # row reads another query's rows, so changing every other row leaves a
    # query's outputs bit for bit, and their gradient reaches no other row.
    triple = QueryFact.from_fact(HyperFact("h", "r", "t"), TAIL)
    pair = QueryFact.from_fact(HyperFact("h", "r", "t", (("k", "v"),)), value_role(0))
    batch = BatchLayout((triple, pair), arity=2)
    assert len(batch) == 8 and batch.length == 7 and batch.mask_slots == [2, 11]
    assert batch.roles == [sequence_roles(0), sequence_roles(1)]
    assert batch.types.shape == (2, 7, 7)
    for types, arity in zip(batch.types, (0, 1)):
        n = len(sequence_roles(arity))
        assert (types[:n, :n] == _bias_types(arity)).all()
        assert (types[:n, n:] == len(BiasType)).all()
    _, params = fresh_decoder(width=8, heads=2, depth=2)
    x = rng.normal(size=(14, 8))
    out = decode(Value(x), batch, params).data
    for q, roles in enumerate(batch.roles):
        own = np.zeros(14, dtype=bool)
        own[7 * q:7 * q + len(roles)] = True
        changed = x.copy()
        changed[~own] = rng.normal(0.0, 100.0, size=(int((~own).sum()), 8))
        assert decode(Value(changed), batch, params).data[own].tobytes() == out[own].tobytes()
        seq = Value(x)
        weights = rng.normal(size=(int(own.sum()), 8))
        ad.backward(ad.total_sum(ad.mul(ad.gather(decode(seq, batch, params),
                                                  np.flatnonzero(own)), weights)))
        assert (seq.grad[~own] == 0).all() and (seq.grad[own] != 0).any()


def test_assemble_sequence_triple(small_kg, rng):
    q = QueryFact.from_fact(small_kg.facts[1], TAIL)  # (b, s, MASK)
    store, params = fresh_decoder(width=4)
    rel_states = Value(rng.normal(size=(small_kg.num_relations, 4)))
    ent_states = Value(rng.normal(size=(small_kg.num_entities, 4)))
    layout = BatchLayout((q,))
    ids = [[small_kg.entity_index["b"], small_kg.relation_index["s"], -1]]
    seq = assemble_sequence(layout, ids, rel_states, ent_states, params)
    assert seq.data.shape == (3, 4)
    assert np.allclose(seq.data[0], ent_states.data[small_kg.entity_index["b"]])
    assert np.allclose(seq.data[1], rel_states.data[small_kg.relation_index["s"]])
    assert np.allclose(seq.data[2], params.mask_token.data[0])
    # One table holds every slot's rows, so the states must split into one
    # block per query.
    with pytest.raises(ShapeError):
        assemble_sequence(BatchLayout((q,) * 2), ids * 2, rel_states,
                          ent_states, params)


def test_assemble_sequence_unknown_id(small_kg, rng):
    # An id outside its block of states would read another query's row or a
    # row of the other kind.
    q = QueryFact.from_fact(small_kg.facts[0], TAIL)  # (a, r, MASK, k, c)
    store, params = fresh_decoder(width=4)
    rel_states = Value(rng.normal(size=(small_kg.num_relations, 4)))
    ent_states = Value(rng.normal(size=(small_kg.num_entities, 4)))
    layout = BatchLayout((q,))
    ne, nr = small_kg.num_entities, small_kg.num_relations
    for ids in ([ne, 0, -1, 0, 0], [0, nr, -1, 0, 0], [0, 0, -1, 0, -1], [0, -1, -1, 0, 0]):
        with pytest.raises(ShapeError):
            assemble_sequence(layout, [ids], rel_states, ent_states, params)
    seq = assemble_sequence(layout, [[0, 0, 99, 0, 0]], rel_states, ent_states, params)
    assert np.allclose(seq.data[2], params.mask_token.data[0])


def test_attention_reduces_to_scaled_dot_product(rng):
    # Zero biases and identity maps leave exactly softmax(Q K^T / sqrt(d)) V.
    width = 4
    store, params = fresh_decoder(width=width, heads=1, depth=1)
    layer = params.layers[0]
    head = layer  # one head owns every column
    head.wq.data[:] = np.eye(width)
    head.wk.data[:] = np.eye(width)
    head.key_bias.data[:] = 0
    head.value_bias.data[:] = 0
    fact = HyperFact("h", "r", "t")
    layout = BatchLayout((QueryFact.from_fact(fact, HEAD),))
    x = rng.normal(size=(3, width))
    seq = Value(x)
    out = attention_layer(seq, layout, layer, params)

    beta = (x @ x.T) / np.sqrt(width)
    weights = np.exp(beta - beta.max(axis=1, keepdims=True))
    weights /= weights.sum(axis=1, keepdims=True)
    attn = weights @ (x @ head.wv.data)
    resid = x + attn
    mu = resid.mean(axis=1, keepdims=True)
    sd = np.sqrt(resid.var(axis=1, keepdims=True) + 1e-5)
    normed = (resid - mu) / sd * layer.ln1_gain.data + layer.ln1_bias.data
    ffn = np.maximum(normed @ layer.ffn_w1.data + layer.ffn_b1.data, 0) \
        @ layer.ffn_w2.data + layer.ffn_b2.data
    post = normed + ffn
    mu2 = post.mean(axis=1, keepdims=True)
    sd2 = np.sqrt(post.var(axis=1, keepdims=True) + 1e-5)
    expected = (post - mu2) / sd2 * layer.ln2_gain.data + layer.ln2_bias.data
    assert np.allclose(out.data, expected, atol=1e-10)


@pytest.mark.parametrize("heads", [1, 2, 4])
def test_attention_layer_matches_naive_loops(heads, rng):
    store, params = fresh_decoder(width=8, heads=heads, depth=1, seed=heads)
    layer_weights = {}
    for name, value in store.items():
        if name.startswith("dec/layer0/"):
            value.data[:] = rng.normal(0.0, 0.5, value.shape)  # nonzero biases too
            layer_weights[name.rsplit("/", 1)[1]] = value.data
    for arity in range(4):
        fact = HyperFact("h", "r", "t", tuple((f"k{i}", f"v{i}") for i in range(arity)))
        roles = sequence_roles(arity)
        for masked in [role for role in roles if role.is_entity]:
            layout = BatchLayout((QueryFact.from_fact(fact, masked),))
            x = rng.normal(size=(len(layout), 8))
            out = attention_layer(Value(x), layout, params.layers[0], params)
            expected = naive_attention_layer(x, roles, heads, layer_weights)
            assert np.abs(out.data - expected).max() <= 1e-10


def tape_size(root):
    seen, stack = set(), [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    return len(seen)


def test_attention_tape_size_ignores_heads_and_layout(rng):
    sizes = set()
    for heads in (1, 2, 4):
        _, params = fresh_decoder(width=8, heads=heads, depth=1)
        for arity in (0, 3):
            fact = HyperFact("h", "r", "t", tuple((f"k{i}", f"v{i}") for i in range(arity)))
            layout = BatchLayout((QueryFact.from_fact(fact, TAIL),))
            seq = Value(rng.normal(size=(len(layout), 8)))
            sizes.add(tape_size(attention_layer(seq, layout, params.layers[0], params)))
    assert len(sizes) == 1, sizes


def test_attention_weights_rows_sum_to_one(rng):
    # Realized indirectly: a singleton sequence must attend fully to itself.
    store, params = fresh_decoder(width=4, heads=2)
    fact = HyperFact("h", "r", "h")
    layout = BatchLayout((QueryFact.from_fact(fact, HEAD),))
    seq = Value(rng.normal(size=(3, 4)))
    out = attention_layer(seq, layout, params.layers[0], params)
    assert np.isfinite(out.data).all()

    q = Value(rng.normal(size=(5, 7)))
    w = ad.rowwise_softmax(q)
    assert np.allclose(w.data.sum(axis=1), 1.0, atol=1e-6)


def test_multi_head_shapes(rng):
    store, params = fresh_decoder(width=8, heads=4, depth=2)
    fact = HyperFact("h", "r", "t", (("k", "v"),))
    layout = BatchLayout((QueryFact.from_fact(fact, value_role(0)),))
    seq = Value(rng.normal(size=(5, 8)))
    out = decode(seq, layout, params)
    assert out.data.shape == (5, 8)
    xm = mask_vector(out, layout)
    assert xm.data.shape == (1, 8)


def test_head_count_must_divide_width():
    from hyrel import ConfigError
    with pytest.raises(ConfigError):
        fresh_decoder(width=6, heads=4)


def scores(x_m, ent_states, out_bias):
    return ad.rowwise_softmax(entity_logits(x_m, ent_states, out_bias))


def test_scores_uniform_when_states_zero(rng):
    store, params = fresh_decoder(width=4)
    x_m = Value(rng.normal(size=(1, 4)))
    probs = scores(x_m, Value(np.zeros((5, 4))), params.out_bias)
    assert np.allclose(probs.data, 0.2, atol=1e-7)


def test_score_single_entity_is_one(rng):
    store, params = fresh_decoder(width=4)
    probs = scores(Value(rng.normal(size=(1, 4))),
                   Value(rng.normal(size=(1, 4))), params.out_bias)
    assert np.allclose(probs.data, [[1.0]])


def test_score_shift_invariance(rng):
    store, params = fresh_decoder(width=4)
    x_m = Value(rng.normal(size=(1, 4)))
    ents = Value(rng.normal(size=(6, 4)))
    base = scores(x_m, ents, params.out_bias).data.copy()
    params.out_bias.data[:] = 13.7  # shared shift leaves the softmax unchanged
    shifted = scores(x_m, ents, params.out_bias).data
    assert np.allclose(base, shifted, atol=1e-6)
    assert abs(base.sum() - 1.0) < 1e-6


def test_logits_and_probs_agree(rng):
    store, params = fresh_decoder(width=4)
    x_m = Value(rng.normal(size=(1, 4)))
    ents = Value(rng.normal(size=(6, 4)))
    params.out_bias.data[:] = 0.5
    logits = entity_logits(x_m, ents, params.out_bias)
    expected = x_m.data @ ents.data.T + 0.5
    assert np.allclose(logits.data, expected)
    probs = scores(x_m, ents, params.out_bias)
    assert np.allclose(probs.data, np.exp(expected) / np.exp(expected).sum())


def test_qualifier_swap_leaves_scores_unchanged(rng):
    # Swapping whole qualifier pairs permutes slots; the bias typing moves
    # with the pairs, so entity scores must not change.
    from hyrel.predictor import LinkPredictor, ModelConfig
    base_facts = [
        HyperFact("a", "r", "b", (("k1", "c"), ("k2", "d"))),
        HyperFact("b", "s", "c"),
        HyperFact("d", "s", "a"),
    ]
    swapped_facts = [
        HyperFact("a", "r", "b", (("k2", "d"), ("k1", "c"))),
        HyperFact("b", "s", "c"),
        HyperFact("d", "s", "a"),
    ]
    kg = Hkg(base_facts, entities=("a", "b", "c", "d"),
             relations=("r", "k1", "k2", "s"))
    kg_swapped = Hkg(swapped_facts, entities=("a", "b", "c", "d"),
                     relations=("r", "k1", "k2", "s"))
    predictor = LinkPredictor.build(ModelConfig(width=8, encoder_depth=2,
                                                head_count=2, decoder_depth=1), seed=3)
    q = QueryFact.from_fact(base_facts[0], HEAD)
    q_swapped = QueryFact.from_fact(swapped_facts[0], HEAD)
    scores = predictor.entity_scores(predictor.prepare(kg), q)
    scores_swapped = predictor.entity_scores(predictor.prepare(kg_swapped), q_swapped)
    assert np.allclose(scores, scores_swapped, atol=1e-6)


def test_decoder_gradients(rng):
    for heads in (2, 4):
        width = 2 * heads
        store, params = fresh_decoder(width=width, heads=heads, depth=1, seed=11)
        fact = HyperFact("h", "r", "t", (("k", "v"),))
        layout = BatchLayout((QueryFact.from_fact(fact, value_role(0)),))
        seq = Value(rng.normal(size=(5, width)))
        ents = Value(rng.normal(size=(6, width)))

        def loss():
            out = decode(seq, layout, params)
            return ad.cross_entropy(entity_logits(mask_vector(out, layout), ents,
                                                  params.out_bias), 2)

        report = ad.check_gradients(loss, dict(store.items()) | {"seq": seq, "ents": ents})
        assert max(report.values()) <= 1e-3, (heads, report)

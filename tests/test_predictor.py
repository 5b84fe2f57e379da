import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyrel import (HEAD, ConfigError, ContractError, DataError, Hkg, HyperFact, QueryFact,
                   TAIL, VocabularyError, queries_from_facts, value_role)
from hyrel.autodiff import ParamStore
from hyrel.predictor import (PARALLEL, RELATION_DRIVEN, STRUCTURES, LinkPredictor, ModelConfig,
                             ablation_overrides)
from hyrel.reference import permute_hkg, random_hkg


def test_scores_are_a_distribution(small_kg):
    predictor = LinkPredictor.build(ModelConfig(width=8, encoder_depth=1,
                                                head_count=2, decoder_depth=1), seed=0)
    ctx = predictor.prepare(small_kg)
    for query in queries_from_facts(small_kg.facts):
        scores = predictor.entity_scores(ctx, query)
        assert scores.shape == (small_kg.num_entities,)
        assert abs(scores.sum() - 1.0) < 1e-6
        assert (scores >= 0).all()


def test_conditioning_changes_scores(small_kg):
    predictor = LinkPredictor.build(ModelConfig(width=8, encoder_depth=2,
                                                head_count=1, decoder_depth=1), seed=1)
    ctx = predictor.prepare(small_kg)
    queries = queries_from_facts(small_kg.facts)
    a = predictor.entity_scores(ctx, queries[0])
    b = predictor.entity_scores(ctx, queries[3])
    assert not np.allclose(a, b)


def test_unknown_query_ids_raise(small_kg):
    predictor = LinkPredictor.build(ModelConfig(width=8, encoder_depth=1,
                                                head_count=1, decoder_depth=1), seed=0)
    ctx = predictor.prepare(small_kg)
    for fact, message in ((HyperFact("a", "zzz", "b"), "relation 'zzz'"),
                          (HyperFact("a", "r", "b", (("k", "zz"),)), "entity 'zz'"),
                          (HyperFact("zz", "r", "b", (("zzz", "c"),)), "relation 'zzz'")):
        with pytest.raises(VocabularyError, match=f"^{message} not in the graph vocabulary$"):
            predictor.entity_scores(ctx, QueryFact(fact, TAIL, None))
    # The masked slot's name is a placeholder and is never looked up.
    predictor.entity_scores(ctx, QueryFact(HyperFact("a", "r", "zz"), TAIL, None))


def test_a_nan_encoder_parameter_reaches_every_score(small_kg):
    # A relu that maps NaN to 0 turned a diverged encoder into finite,
    # uniform scores, and so into a plausible-looking metric.
    predictor = LinkPredictor.build(ModelConfig(width=8, encoder_depth=2,
                                                head_count=2, decoder_depth=1), seed=1)
    predictor.store["ent_encoder/layer1/update_b"].data[:] = np.nan
    scores = predictor.entity_scores(predictor.prepare(small_kg),
                                     queries_from_facts(small_kg.facts)[0])
    assert np.isnan(scores).all()


def test_relation_driven_structure_runs_and_is_equivariant(rng):
    cfg = ModelConfig(width=8, encoder_depth=2, head_count=1, decoder_depth=1,
                      structure=RELATION_DRIVEN)
    predictor = LinkPredictor.build(cfg, seed=4)
    kg = random_hkg(rng, max_facts=6, min_facts=3)
    queries = queries_from_facts(kg.facts)
    scores = predictor.entity_scores(predictor.prepare(kg), queries[0])
    assert abs(scores.sum() - 1.0) < 1e-5

    pkg, phi, tau = permute_hkg(kg, rng)
    q = queries[0]
    pbase = HyperFact(phi[q.base.head], tau[q.base.relation], phi[q.base.tail],
                      tuple((tau[k], phi[v]) for k, v in q.base.qualifiers))
    pscores = predictor.entity_scores(predictor.prepare(pkg),
                                      QueryFact(pbase, q.masked, phi[q.answer]))
    for name, idx in kg.entity_index.items():
        assert abs(scores[idx] - pscores[pkg.entity_index[phi[name]]]) < 1e-4


def test_relation_driven_gradients(rng):
    # The rewired path routes gradients into the relation states twice
    # (decoder slots and entity-message gates); both must be exact.
    import hyrel.autodiff as ad
    from hyrel.reference import random_hkg as make
    from hyrel.training import query_losses
    kg = make(np.random.default_rng(21), max_facts=3, min_facts=3, max_qualifiers=2)
    cfg = ModelConfig(width=6, encoder_depth=2, head_count=1, decoder_depth=1,
                      structure=RELATION_DRIVEN)
    predictor = LinkPredictor.build(cfg, seed=9, dtype=np.float64)
    # Nudge the update biases off zero: rows with a zero state otherwise sit
    # exactly on the relu kink, where central differences are undefined.
    for name, value in predictor.store.items():
        if name.endswith("update_b"):
            value.data[:] = 0.01
    graphs = predictor.prepare(kg)
    queries = queries_from_facts(kg.facts)

    def loss():
        return query_losses(predictor, graphs, [queries[1]])

    result = ad.check_gradients(loss, dict(predictor.store.items()), h=1e-4)
    assert max(result.values()) <= 1e-3, result


def test_relation_driven_logits_stay_on_the_parallel_scale():
    # Raw relation states as gates grew the logits with every layer (max
    # |logit| 1.6e5 against 4.1 here); the projected gates keep them level.
    kg = random_hkg(np.random.default_rng(0), max_facts=40, min_facts=40,
                    num_entities=20, num_relations=6)
    queries = queries_from_facts(kg.facts)
    largest = {}
    for structure in STRUCTURES:
        predictor = LinkPredictor.build(ModelConfig(structure=structure), seed=1)
        graphs = predictor.prepare(kg)
        largest[structure] = max(
            float(np.abs(predictor.query_logits(graphs, [q]).data).max()) for q in queries)
    assert largest[RELATION_DRIVEN] <= 10 * largest[PARALLEL], largest


def test_a_model_refuses_the_graphs_of_the_other_structure():
    # The annotated entity graph holds a->b once under r and once under s, so
    # a parallel model's typed messages over it would count that edge twice.
    kg = Hkg([HyperFact("a", "r", "b"), HyperFact("a", "s", "b"), HyperFact("b", "r", "c")])
    queries = queries_from_facts(kg.facts)[:2]
    models = {s: LinkPredictor.build(ModelConfig(width=8, encoder_depth=1, head_count=1,
                                                 decoder_depth=1, structure=s), seed=0)
              for s in STRUCTURES}
    graphs = {s: model.prepare(kg) for s, model in models.items()}
    assert graphs[RELATION_DRIVEN].entity_graph.num_edges > graphs[PARALLEL].entity_graph.num_edges
    for own, other in ((PARALLEL, RELATION_DRIVEN), (RELATION_DRIVEN, PARALLEL)):
        models[own].query_logits(graphs[own], queries)
        with pytest.raises(ContractError):
            models[own].query_logits(graphs[other], queries)


def test_relation_projections_are_drawn_last_and_required():
    cfg = ModelConfig(width=8, encoder_depth=2, head_count=1, decoder_depth=1,
                      structure=RELATION_DRIVEN)
    predictor = LinkPredictor.build(cfg, seed=0)
    names = predictor.store.names()
    assert names[-2:] == ["ent_encoder/layer0/relation_proj",
                          "ent_encoder/layer1/relation_proj"]
    assert not any("relation_proj" in n for n in LinkPredictor.build(
        ModelConfig(width=8, encoder_depth=2, head_count=1, decoder_depth=1)).store.names())
    old = ParamStore()  # a checkpoint written before the projections existed
    for name, value in predictor.store.items():
        if "relation_proj" not in name:
            old.add(name, value.data)
    with pytest.raises(DataError, match="missing tensor 'ent_encoder/layer0/relation_proj'"):
        LinkPredictor.from_store(cfg, old)


def test_relation_driven_training_smoke(small_kg):
    from hyrel.io import DatasetBundle
    from hyrel.training import TrainConfig, fit
    cfg = TrainConfig(epochs=2, batch_size=8, step_size=1e-3, seed=0, width=8,
                      encoder_depth=1, head_count=1, decoder_depth=1,
                      checkpoint_every=10 ** 6, structure=RELATION_DRIVEN)
    ckpt = fit(DatasetBundle(train=small_kg, inference=small_kg), cfg)
    assert ckpt.predictor().cfg.structure == RELATION_DRIVEN
    scores = ckpt.predictor().entity_scores(
        ckpt.predictor().prepare(small_kg), queries_from_facts(small_kg.facts)[0])
    assert np.isfinite(scores).all()


def test_ablation_names_select_model_configs():
    # The path `hyrel train --ablation NAME` takes.
    from hyrel.training import TrainConfig

    def model_for(name):
        return TrainConfig.from_dict(TrainConfig().to_dict()
                                     | ablation_overrides(name))

    assert model_for("ultra-alike").structure == RELATION_DRIVEN
    assert model_for("ultra-alike").interactions == "default"
    assert model_for("noV").interactions == "noV"
    assert model_for("addAllFI").interactions == "addAllFI"
    assert model_for("addAllFI").structure != RELATION_DRIVEN
    with pytest.raises(ConfigError):
        ablation_overrides("bogus")


def test_from_store_rejects_mismatched_checkpoint(small_kg):
    a = LinkPredictor.build(ModelConfig(width=8, encoder_depth=1, head_count=1,
                                        decoder_depth=1), seed=0)
    with pytest.raises(DataError):
        LinkPredictor.from_store(ModelConfig(width=16, encoder_depth=1,
                                             head_count=1, decoder_depth=1), a.store)
    extra = ParamStore()  # a laid-out store is closed: copy it with one tensor more
    for name, value in a.store.items():
        extra.add(name, value.data)
    extra.add("extra/tensor", np.zeros((1, 8), dtype=np.float32))
    with pytest.raises(DataError, match="extra/tensor"):
        LinkPredictor.from_store(a.cfg, extra)


def test_checkpoint_predictor_owns_its_parameters():
    # The model copies the checkpoint's values into its own buffer: an
    # in-place update of either leaves the other as it was.
    from hyrel.training import Checkpoint, TrainConfig
    cfg = TrainConfig(width=8, encoder_depth=1, head_count=1, decoder_depth=1)
    ckpt = Checkpoint(cfg, LinkPredictor.build(cfg, seed=3).store.copy(), 0, [], [])
    saved = ckpt.store.to_bytes()
    model = ckpt.predictor()
    assert model.store.to_bytes() == saved
    for name, value in model.store.items():
        assert value.data.base is model.store.data
        assert not np.shares_memory(value.data, ckpt.store[name].data)
        value.data += 1.0
    assert ckpt.store.to_bytes() == saved
    for value in ckpt.store.values():
        value.data[...] = 0.0
    assert all(value.data.all() for value in model.store.values())


def test_a_context_prepared_before_a_step_scores_with_the_stepped_parameters(small_kg):
    from hyrel.autodiff import Adam
    from hyrel.training import TrainConfig, train_step
    cfg = TrainConfig(width=8, encoder_depth=1, head_count=1, decoder_depth=1)
    predictor = LinkPredictor.build(cfg, seed=0)
    graphs = predictor.prepare(small_kg)
    queries = queries_from_facts(small_kg.facts)
    before = predictor.batch_scores(graphs, queries)  # makes the constant view
    train_step(predictor, queries[:2], Adam(predictor.store, lr=0.05), cfg, graphs, [0, 0])
    after = predictor.batch_scores(predictor.prepare(small_kg), queries)
    assert not np.array_equal(after, before)
    assert predictor.batch_scores(graphs, queries).tobytes() == after.tobytes()


def test_invalid_model_config_rejected():
    from hyrel.training import TrainConfig
    with pytest.raises(ConfigError):
        ModelConfig(structure="nonsense")
    with pytest.raises(ConfigError):
        ModelConfig(width=0)
    # TrainConfig builds its model at construction, not first inside fit.
    with pytest.raises(ConfigError):
        TrainConfig(structure="nonsense")
    with pytest.raises(ConfigError):
        TrainConfig(head_count=0)
    with pytest.raises(ConfigError, match="divisible"):
        ModelConfig(width=8, head_count=3)
    with pytest.raises(ConfigError, match="divisible"):
        TrainConfig(width=8, head_count=3)


@pytest.mark.parametrize("structure", STRUCTURES)
def test_batch_scores_are_the_softmax_of_query_logits_bit_for_bit(structure):
    # Scoring is the forward pass of a training step with no fact left out:
    # over chunks of 1 to CHUNK queries, the scores through the constant view
    # equal the softmax of the logits through the tracked parameters.
    import hyrel.autodiff as ad
    from hyrel.evaluation import CHUNK
    kg = random_hkg(np.random.default_rng(4), max_facts=8, min_facts=8)
    predictor = LinkPredictor.build(ModelConfig(width=8, encoder_depth=2, head_count=2,
                                                decoder_depth=1, structure=structure), seed=1)
    graphs = predictor.prepare(kg)
    queries = queries_from_facts(kg.facts)
    for size in range(1, CHUNK + 1):
        for start in range(0, len(queries), size):
            chunk = queries[start:start + size]
            tracked = predictor.query_logits(graphs, chunk)
            assert tracked.requires_grad
            assert predictor.batch_scores(graphs, chunk).tobytes() == \
                ad.rowwise_softmax(tracked).data.tobytes()


def _one_block_at_a_time(self, graphs, queries):
    """The oracle of :meth:`LinkPredictor.batch_scores`: an earlier form,
    which encoded each query's entity graph alone and each set of relation
    nodes once."""
    import hyrel.autodiff as ad
    from hyrel import decoder as dec
    from hyrel import encoder as enc
    from hyrel.autodiff import Value
    from hyrel.predictor import _slot_ids
    model, kg = self._constant_view, graphs.kg
    n = kg.num_entities
    if not queries:
        return np.zeros((0, n))
    ent = np.empty((len(queries) * n, self.cfg.width),
                   dtype=model.dec_params.mask_token.data.dtype)
    relations, rel_blocks = {}, []
    for q, query in enumerate(queries):
        rel_nodes = {kg.relation_index[r] for r in query.base.relations()}
        roles = [HEAD, TAIL, *map(value_role, range(query.base.arity))]
        ent_nodes = {kg.entity_index[query.base.entity_at(role)] for role in roles
                     if role != query.masked}
        key = frozenset(rel_nodes)
        if key not in relations:
            relations[key] = enc.encode(graphs.relation_graph, [rel_nodes], model.rel_params)
        rel_blocks.append(relations[key])
        gates = None if self.cfg.structure == PARALLEL else rel_blocks[-1]
        ent[q * n:(q + 1) * n] = enc.encode(graphs.entity_graph, [ent_nodes],
                                            model.ent_params, gates).data
    rel_states = Value.constant(np.concatenate([r.data for r in rel_blocks]))
    ent_states = Value.constant(ent)
    layout = dec.BatchLayout((dec.layout_for(query) for query in queries), kg.max_arity)
    ids = [_slot_ids(kg, query, part.mask_slot) for query, part in zip(queries, layout.layouts)]
    seq = dec.assemble_sequence(layout, ids, rel_states, ent_states, model.dec_params)
    x_m = dec.mask_vector(dec.decode(seq, layout, model.dec_params), layout)
    logits = dec.entity_logits(x_m, ent_states, model.dec_params.out_bias)
    return ad.rowwise_softmax(logits).data


@pytest.mark.parametrize("structure", STRUCTURES)
def test_a_stacked_chunk_scores_as_one_block_at_a_time_bit_for_bit(structure):
    from hyrel.evaluation import CHUNK
    kg = random_hkg(np.random.default_rng(8), max_facts=10, min_facts=10)
    predictor = LinkPredictor.build(ModelConfig(width=8, encoder_depth=2, head_count=2,
                                                decoder_depth=1, structure=structure), seed=4)
    queries = queries_from_facts(kg.facts)
    graphs, oracle_graphs = predictor.prepare(kg), predictor.prepare(kg)
    for size in (CHUNK, 1, 3):
        for start in range(0, len(queries), size):
            chunk = queries[start:start + size]
            assert predictor.batch_scores(graphs, chunk).tobytes() == \
                _one_block_at_a_time(predictor, oracle_graphs, chunk).tobytes()


@pytest.mark.parametrize("structure", STRUCTURES)
def test_evaluate_scores_chunks_within_the_batch_tolerance(structure, monkeypatch):
    # 11 queries are scored in chunks of CHUNK, the last one shorter.  Each
    # query of a chunk is decoded in its own padded block, so the tolerance
    # is zero: a row is the bits of its query's own entity_scores.
    from hyrel.evaluation import CHUNK, evaluate
    kg = random_hkg(np.random.default_rng(6), max_facts=8, min_facts=8)
    predictor = LinkPredictor.build(ModelConfig(width=8, encoder_depth=2, head_count=2,
                                                decoder_depth=1, structure=structure), seed=3)
    queries = queries_from_facts(kg.facts)[:11]
    assert len(queries) == 11
    chunks = []
    batch_scores = LinkPredictor.batch_scores

    def recorded(self, ctx, qs):
        scores = batch_scores(self, ctx, qs)
        chunks.append((ctx, list(qs), scores))
        return scores

    monkeypatch.setattr(LinkPredictor, "batch_scores", recorded)
    evaluate(predictor, kg, queries, kg.facts)
    monkeypatch.undo()
    assert [len(qs) for _, qs, _ in chunks] == [min(CHUNK, 11 - start)
                                                for start in range(0, 11, CHUNK)]
    fresh = predictor.prepare(kg)
    assert predictor.batch_scores(fresh, []).shape == (0, kg.num_entities)
    for _, qs, scores in chunks:
        assert scores.shape == (len(qs), kg.num_entities)
        for query, row in zip(qs, scores):
            assert row.tobytes() == predictor.entity_scores(fresh, query).tobytes()


@functools.lru_cache(maxsize=None)
def default_model(structure):
    """A seeded-init default-width model, built once for every example."""
    return LinkPredictor.build(ModelConfig(structure=structure), seed=7)


@pytest.mark.parametrize("structure", STRUCTURES)
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
@example(seed=1610)  # one relation: the relation graph's blocks are one row each
def test_batch_scores_rows_do_not_depend_on_the_batch(structure, seed):
    # Every query is padded to the graph's longest sequence and decoded in its
    # own block, so a row of any chunk of 1 to 8 queries is the bits it has
    # alone.
    kg = random_hkg(np.random.default_rng(seed), max_facts=6, min_facts=2)
    predictor = default_model(structure)
    ctx = predictor.prepare(kg)
    queries = queries_from_facts(kg.facts)
    alone = [predictor.batch_scores(ctx, [query]).tobytes() for query in queries]
    for size in range(2, 9):
        for start in range(0, len(queries), size):
            rows = predictor.batch_scores(ctx, queries[start:start + size])
            assert [row[None].tobytes() for row in rows] == alone[start:start + size]


@pytest.mark.parametrize("structure", STRUCTURES)
def test_a_query_longer_than_every_fact_of_the_graph_scores_on_its_own_bits(structure):
    # A test fact may hold more qualifiers than any fact of the graph: it is
    # decoded in a batch of its own, so it and every batch-mate score as
    # they do alone.
    kg = Hkg([HyperFact("a", "r", "b", (("k", "c"),)), HyperFact("b", "s", "c"),
              HyperFact("c", "r", "d", (("s", "a"),))])
    long = QueryFact(HyperFact("a", "r", "x", (("k", "c"), ("s", "d"), ("k", "b"))), TAIL)
    assert 3 + 2 * long.base.arity > 3 + 2 * kg.max_arity
    # At the default width, padding a block changes its products' bits.
    predictor = LinkPredictor.build(ModelConfig(structure=structure), seed=2)
    ctx = predictor.prepare(kg)
    alone = predictor.entity_scores(ctx, long)
    assert np.isfinite(alone).all() and abs(alone.sum() - 1.0) < 1e-6
    others = queries_from_facts(kg.facts)[:3]
    for batch in ([long, *others], [*others, long], [others[0], long, others[1]],
                  [long, others[2], long]):
        rows = predictor.batch_scores(ctx, batch)
        for query, row in zip(batch, rows):
            assert row.tobytes() == predictor.entity_scores(ctx, query).tobytes(), query


@pytest.mark.parametrize("structure", STRUCTURES)
def test_scoring_records_no_tape(structure, monkeypatch):
    # The scoring view holds constants that share the parameter arrays, so
    # its logits keep no parents and scoring makes no tracked Value at all.
    from hyrel.autodiff import Value
    kg = random_hkg(np.random.default_rng(5), max_facts=6, min_facts=6)
    predictor = LinkPredictor.build(ModelConfig(width=8, encoder_depth=2, head_count=2,
                                                decoder_depth=1, structure=structure), seed=2)
    graphs = predictor.prepare(kg)
    view, model = predictor._constant_view, predictor
    pairs = [(view.dec_params.out_bias, model.dec_params.out_bias),
             (view.dec_params.layers[0].wq, model.dec_params.layers[0].wq)]
    for mine, theirs in zip(view.rel_params.layers + view.ent_params.layers,
                            model.rel_params.layers + model.ent_params.layers):
        pairs.append((mine.update_w, theirs.update_w))
    for constant, param in pairs:
        assert constant.data is param.data and param.requires_grad
        assert not constant.requires_grad
    query = queries_from_facts(kg.facts)[0]
    logits = view.query_logits(graphs, [query])
    assert not logits.requires_grad and logits._parents == () and logits._backward is None
    made = []
    init = Value.__init__
    monkeypatch.setattr(Value, "__init__", lambda self, *a, **k: made.append(1) or
                        init(self, *a, **k))
    for q in queries_from_facts(kg.facts):
        predictor.entity_scores(graphs, q)
    assert not made and predictor._constant_view is view  # made once per model
    assert all(v._grad is None for v in predictor.store.values())

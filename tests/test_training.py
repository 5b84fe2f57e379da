import ctypes
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hyrel.autodiff as ad
from hyrel import (ConfigError, ContractError, DataError, Hkg, HyperFact, NumericalError,
                   QueryFact, TAIL, queries_from_facts)
from hyrel.autodiff import Adam
from hyrel.evaluation import CHUNK, evaluate
from hyrel.foundation import preset
from hyrel.io import DatasetBundle
from hyrel.predictor import RELATION_DRIVEN, STRUCTURES, LinkPredictor, ModelConfig
from hyrel.reference import kept, random_hkg
from hyrel.training import (Checkpoint, TrainConfig, TrainStats, fit, query_losses,
                            train_step)

def fixed_kg(seed=0, facts=10, entities=8):
    rng = np.random.default_rng(seed)
    ents = [f"e{i}" for i in range(entities)]
    rels = ["r1", "r2", "k1"]
    out = []
    for i in range(facts):
        quals = ((rels[2], ents[rng.integers(entities)]),) if i % 2 else ()
        out.append(HyperFact(ents[rng.integers(entities)], rels[rng.integers(2)],
                             ents[rng.integers(entities)], quals))
    return Hkg(out)


def as_bundle(kg, valid=(), test=()):
    return DatasetBundle(train=kg, inference=kg, valid=list(valid), test=list(test))


def test_degenerate_one_fact_guard_case():
    kg = Hkg([HyperFact("a", "r", "b", (("k", "c"),))])
    query = QueryFact.from_fact(kg.facts[0], TAIL)
    predictor = LinkPredictor.build(ModelConfig(width=8, encoder_depth=2,
                                                head_count=1, decoder_depth=1), seed=0)
    graphs = predictor.prepare(kg)
    for g in (graphs.relation_graph, graphs.entity_graph):
        assert g.num_edges > 0 and not kept(g, 0).any()
        edges, blocks = g.message_plan([0]).zeroed
        assert edges.tolist() == list(range(g.num_edges)) and not blocks.any()
    loss = query_losses(predictor, graphs, [query], [0])
    assert abs(float(loss.data[0, 0]) - math.log(kg.num_entities)) < 1.0


def test_uniform_scores_give_log_e_loss():
    # Zero entity states force a uniform candidate distribution exactly.
    kg = fixed_kg()
    predictor = LinkPredictor.build(ModelConfig(width=8, encoder_depth=1,
                                                head_count=1, decoder_depth=1), seed=0)
    from hyrel.decoder import entity_logits
    x_m = ad.Value(np.random.default_rng(0).normal(size=(1, 8)).astype(np.float32))
    zero_states = ad.Value(np.zeros((kg.num_entities, 8), dtype=np.float32))
    logits = entity_logits(x_m, zero_states, predictor.dec_params.out_bias)
    loss = ad.cross_entropy(logits, 3)
    assert abs(float(loss.data[0, 0]) - math.log(kg.num_entities)) < 1e-6


def test_loss_decreases_over_fifty_steps():
    # Full-batch steps at the default step size: the curve is monotone.
    kg = fixed_kg()
    stats = TrainStats()
    cfg = TrainConfig(epochs=50, batch_size=64, step_size=1e-3, seed=0, width=16,
                      encoder_depth=2, head_count=2, decoder_depth=1,
                      checkpoint_every=10 ** 6)
    fit(as_bundle(kg), cfg, stats=stats)
    losses = stats.epoch_losses
    assert len(losses) == 50
    assert all(b < a for a, b in zip(losses, losses[1:]))
    # Regression anchors for the fixed seed.
    assert abs(losses[0] - 2.2419) < 2e-2
    assert losses[-1] < 1.45


def test_candidate_set_is_always_full_vocabulary():
    kg = fixed_kg()
    stats = TrainStats()
    cfg = TrainConfig(epochs=3, batch_size=4, step_size=1e-3, seed=0, width=8,
                      encoder_depth=1, head_count=1, decoder_depth=1,
                      checkpoint_every=10 ** 6)
    fit(as_bundle(kg), cfg, stats=stats)
    # One entry per training query, though a step scores its batch at once.
    assert len(stats.candidate_counts) == 3 * len(queries_from_facts(kg.facts))
    assert all(c == kg.num_entities for c in stats.candidate_counts)


def test_no_corruption_sampling_in_source_tree():
    src = Path(__file__).resolve().parents[1] / "src" / "hyrel"
    for path in src.rglob("*.py"):
        text = path.read_text(encoding="utf-8").lower()
        assert "negative_sampl" not in text, path
        assert "corrupt_" not in text, path


def test_fit_is_bit_deterministic(tmp_path):
    kg = fixed_kg()
    cfg = TrainConfig(epochs=4, batch_size=8, step_size=1e-3, seed=11, width=8,
                      encoder_depth=1, head_count=1, decoder_depth=1,
                      checkpoint_every=10 ** 6)
    first = fit(as_bundle(kg), cfg)
    second = fit(as_bundle(kg), cfg)
    assert first.store.to_bytes() == second.store.to_bytes()


def test_checkpoint_round_trip_preserves_scores(tmp_path):
    kg = fixed_kg()
    cfg = TrainConfig(epochs=2, batch_size=8, step_size=1e-3, seed=2, width=8,
                      encoder_depth=1, head_count=2, decoder_depth=1,
                      checkpoint_every=10 ** 6)
    ckpt = fit(as_bundle(kg), cfg)
    path = tmp_path / "model.bin"
    ckpt.save(path)
    reloaded = Checkpoint.load(path)
    assert reloaded.train_config == cfg
    query = queries_from_facts(kg.facts)[0]
    a = ckpt.predictor().entity_scores(ckpt.predictor().prepare(kg), query)
    b = reloaded.predictor().entity_scores(reloaded.predictor().prepare(kg), query)
    assert (a == b).all()


def test_malformed_meta_is_data_error(tmp_path):
    cfg = TrainConfig(epochs=0, seed=0, width=8, encoder_depth=1, head_count=1,
                      decoder_depth=1)
    path = tmp_path / "model.bin"
    fit(as_bundle(fixed_kg()), cfg).save(path)
    meta = tmp_path / "model.bin.meta"
    text = meta.read_text(encoding="utf-8")
    assert text.count("width = 8\n") == 1 and "[model]" not in text  # [train] only
    for bad, key in ((text.replace("width = 8\n", ""), "width"),
                     (text.replace("width = 8\n", "width = x\n"), "width"),
                     (text.replace("epoch = 0\n", ""), "epoch"),
                     (text.replace("epoch = 0\n", "epoch = -3\n"), "epoch"),
                     (text.replace("epoch = 0\n", "epoch = x\n"), "epoch")):
        meta.write_text(bad, encoding="utf-8")
        with pytest.raises(DataError, match=key):
            Checkpoint.load(path)
    # Older sidecars open with a [model] block that repeats [train], some with
    # since-retired options; it is skipped like any unknown section.
    sets = preset("default")
    model_block = ["[model]", "width = 8", "encoder_depth = 1", "head_count = 1",
                   "decoder_depth = 1",
                   "relation_set = " + ",".join(sorted(t.value for t in sets.relation_set)),
                   "entity_set = " + ",".join(sorted(t.value for t in sets.entity_set)),
                   "structure = parallel", "encoder_residual = False",
                   "encoder_layer_norm = False", "zero_other_bias = False"]
    meta.write_text("\n".join(model_block) + "\n" + text, encoding="utf-8")
    assert Checkpoint.load(path).train_config == cfg


def test_negative_seed_is_a_config_error():
    with pytest.raises(ConfigError, match="seed"):
        TrainConfig(seed=-1)


@pytest.mark.parametrize("name", ["step_size", "grad_clip"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_float_is_a_config_error(name, value):
    # The text form rejects these, so a checkpoint of such a config could
    # not be loaded back.
    with pytest.raises(ConfigError, match=name):
        TrainConfig(**{name: value})


def test_train_config_round_trip(tmp_path):
    for cfg in (TrainConfig(),
                TrainConfig(epochs=3, width=16, encoder_depth=3, head_count=2,
                            decoder_depth=1, interactions="addShareV",
                            structure=RELATION_DRIVEN)):
        assert TrainConfig.from_dict(cfg.to_dict()) == cfg
    text = TrainConfig().to_dict()
    with pytest.raises(ConfigError, match="structure"):
        TrainConfig.from_dict({k: v for k, v in text.items() if k != "structure"})
    # The flat keywords the benchmark passes build the model they name.
    cfg = TrainConfig(epochs=1, seed=1, structure=RELATION_DRIVEN)
    assert (LinkPredictor.build(cfg, seed=0).store.to_bytes()
            == LinkPredictor.build(ModelConfig(structure=RELATION_DRIVEN), seed=0)
            .store.to_bytes())
    # A sidecar's [train] block keeps the keys older sidecars wrote.
    path = tmp_path / "model.bin"
    Checkpoint(cfg, LinkPredictor.build(cfg).store, 0, [], []).save(path)
    lines = (tmp_path / "model.bin.meta").read_text(encoding="utf-8").splitlines()
    train = lines[lines.index("[train]") + 1:lines.index("[state]")]
    assert {line.split(" = ")[0] for line in train} == {
        "epochs", "batch_size", "step_size", "seed", "interactions", "encoder_depth",
        "width", "head_count", "decoder_depth", "checkpoint_every", "leakage_guard",
        "structure", "grad_clip"}
    assert len(train) == 13


def test_epochs_zero_returns_initialized_checkpoint():
    kg = fixed_kg()
    cfg = TrainConfig(epochs=0, batch_size=8, step_size=1e-3, seed=0, width=8,
                      encoder_depth=1, head_count=1, decoder_depth=1,
                      checkpoint_every=10 ** 6)
    ckpt = fit(as_bundle(kg), cfg)
    assert ckpt.epoch == 0 and ckpt.loss_history == []
    metrics = evaluate(ckpt.predictor(), kg, queries_from_facts(kg.facts), kg.facts)
    assert 0.0 < metrics.mrr_all < 0.9  # untrained: far from oracle level


def test_leakage_guard_off_inflates_training_mrr():
    rng = np.random.default_rng(1)
    ents = [f"e{i}" for i in range(10)]
    facts = []
    for i in range(12):
        h, t, v = rng.choice(10, 3, replace=False)
        quals = (("k", ents[v]),) if i % 2 else ()
        facts.append(HyperFact(ents[h], "r" if i % 3 else "s", ents[t], quals))
    kg = Hkg(facts)
    queries = queries_from_facts(kg.facts)
    results = {}
    for guard in (True, False):
        cfg = TrainConfig(epochs=25, batch_size=32, step_size=3e-3, seed=0, width=16,
                          encoder_depth=2, head_count=2, decoder_depth=1,
                          checkpoint_every=10 ** 6, leakage_guard=guard)
        ckpt = fit(as_bundle(kg), cfg)
        results[guard] = evaluate(ckpt.predictor(), kg, queries, kg.facts).mrr_all
    assert results[False] > results[True] + 0.1


def test_missing_answer_is_data_error():
    kg = fixed_kg()
    predictor = LinkPredictor.build(ModelConfig(width=8, encoder_depth=1,
                                                head_count=1, decoder_depth=1), seed=0)
    graphs = predictor.prepare(kg)
    alien = QueryFact(HyperFact("e0", "r1", "ghost"), TAIL, "ghost")
    with pytest.raises(DataError):
        query_losses(predictor, graphs, [alien])


def test_train_step_runs_one_update():
    kg = fixed_kg()
    cfg = TrainConfig(epochs=1, batch_size=4, step_size=1e-3, seed=0, width=8,
                      encoder_depth=1, head_count=1, decoder_depth=1,
                      checkpoint_every=10 ** 6)
    predictor = LinkPredictor.build(cfg, seed=0)
    before = predictor.store.to_bytes()
    optimizer = Adam(predictor.store, lr=cfg.step_size)
    queries = queries_from_facts(kg.facts)[:4]
    loss = train_step(predictor, queries, optimizer, cfg, predictor.prepare(kg),
                      source_facts=[0, 0, 1, 1])
    assert math.isfinite(loss)
    assert predictor.store.to_bytes() != before


@pytest.mark.parametrize("structure", STRUCTURES)
def test_a_warm_guarded_step_lays_out_no_segment_plan(structure, monkeypatch):
    # The graphs' plans are built by the first step; a later step reuses
    # them, and neither a leave-out mask nor a gather's gradient plans anew.
    kg = fixed_kg()
    cfg = TrainConfig(epochs=1, batch_size=4, seed=0, width=8, encoder_depth=1,
                      head_count=1, decoder_depth=1, structure=structure)
    assert cfg.leakage_guard
    predictor = LinkPredictor.build(cfg, seed=0)
    optimizer, graphs = Adam(predictor.store, lr=cfg.step_size), predictor.prepare(kg)
    queries = queries_from_facts(kg.facts)[:4]
    train_step(predictor, queries, optimizer, cfg, graphs, source_facts=[0, 0, 1, 1])
    plans = []
    init = ad.Segments.__init__
    monkeypatch.setattr(ad.Segments, "__init__",
                        lambda self, index: (plans.append(index), init(self, index))[1])
    train_step(predictor, queries[::-1], optimizer, cfg, graphs, source_facts=[1, 1, 0, 0])
    assert plans == []


def test_source_fact_out_of_range_rejected():
    # Out of range, a fact index would mask no edge and silently leak.
    kg = fixed_kg()
    cfg = TrainConfig(epochs=1, width=8, encoder_depth=1, head_count=1, decoder_depth=1)
    predictor = LinkPredictor.build(cfg, seed=0)
    before = predictor.store.to_bytes()
    for bad in (kg.num_facts, -1):
        with pytest.raises(ContractError):
            train_step(predictor, queries_from_facts(kg.facts)[:2], Adam(predictor.store),
                       cfg, predictor.prepare(kg), source_facts=[0, bad])
    assert predictor.store.to_bytes() == before


def test_a_leave_out_that_is_not_a_fact_is_contract_error():
    # -1 matches the -1 padding of the graphs' per-edge fact records, so it
    # would leave out every edge; an index past the facts would leave out
    # nothing.  Either way the logits would come back finite and wrong.
    kg = fixed_kg()
    predictor = LinkPredictor.build(ModelConfig(width=8, encoder_depth=1, head_count=1,
                                                decoder_depth=1), seed=0)
    graphs = predictor.prepare(kg)
    queries = queries_from_facts(kg.facts)[:2]
    # A Boolean is an int to Python: True would leave out fact 1.
    for bad in (-1, kg.num_facts, 10 ** 6, 0.0, "0", True, False, np.True_):
        with pytest.raises(ContractError, match="left-out fact"):
            predictor.query_logits(graphs, queries, [0, bad])
        with pytest.raises(ContractError, match="left-out fact"):
            query_losses(predictor, graphs, queries, [bad, None])
    for fine in ([None, kg.num_facts - 1], [np.int64(0), None], None):
        assert np.isfinite(predictor.query_logits(graphs, queries, fine).data).all()


def test_train_step_needs_one_source_fact_per_query():
    # A short list would drop queries from the step; no list would leave the
    # leakage guard off.
    kg = fixed_kg()
    cfg = TrainConfig(epochs=1, width=8, encoder_depth=1, head_count=1, decoder_depth=1)
    predictor = LinkPredictor.build(cfg, seed=0)
    before = predictor.store.to_bytes()
    queries = queries_from_facts(kg.facts)[:4]
    optimizer = Adam(predictor.store)
    graphs = predictor.prepare(kg)
    for sources in ([0, 0, 1], [0, 0, 1, 1, 1], [0, 0, 1, None]):
        with pytest.raises(ContractError):
            train_step(predictor, queries, optimizer, cfg, graphs, sources)
    with pytest.raises(TypeError):
        train_step(predictor, queries, optimizer, cfg, graphs)
    assert predictor.store.to_bytes() == before


def test_train_step_on_an_empty_batch_is_contract_error():
    # The step's mean loss would divide by the batch size.
    kg = fixed_kg()
    cfg = TrainConfig(epochs=1, width=8, encoder_depth=1, head_count=1, decoder_depth=1)
    predictor = LinkPredictor.build(cfg, seed=0)
    before = predictor.store.to_bytes()
    with pytest.raises(ContractError, match="at least one query"):
        train_step(predictor, [], Adam(predictor.store), cfg, predictor.prepare(kg), [])
    assert predictor.store.to_bytes() == before


@pytest.mark.parametrize("structure", STRUCTURES)
@pytest.mark.parametrize("interactions", ["default", "addAllFI"])
def test_leave_out_scores_equal_a_rebuild_without_the_fact(structure, interactions):
    # The guard masks edges of the one graph build; that must score every
    # query of the left-out fact bit for bit as graphs built without it.
    rng = np.random.default_rng(17)
    cfg = ModelConfig(width=8, encoder_depth=2, head_count=2, decoder_depth=1,
                      interactions=interactions, structure=structure)
    predictor = LinkPredictor.build(cfg, seed=4)
    checked = 0
    for _ in range(40):
        kg = random_hkg(rng)
        graphs = predictor.prepare(kg)
        batch, sources, oracles = [], [], []
        for f, fact in enumerate(kg.facts):
            rest = Hkg(kg.facts[:f] + kg.facts[f + 1:], kg.entities, kg.relations)
            rebuilt = predictor.prepare(rest)
            for query in queries_from_facts([fact]):
                masked = predictor.query_logits(graphs, [query], [f]).data
                oracle = predictor.query_logits(rebuilt, [query]).data
                assert np.array_equal(masked, oracle), (kg.facts, f, query)
                batch.append(query)
                sources.append(f)
                oracles.append(oracle[0])
                checked += 1
        # Every query of the graph in one batch, each without its own fact.
        batched = predictor.query_logits(graphs, batch, sources).data
        assert batched.tobytes() == np.array(oracles).tobytes(), kg.facts
    assert checked > 400


@pytest.mark.parametrize("structure", STRUCTURES)
@pytest.mark.parametrize("batch", [1, 3])
def test_batched_step_gradients(structure, batch):
    # The step's loss, as train_step builds it: one tape over the batch, each
    # query without its own source fact.
    kg = random_hkg(np.random.default_rng(21), max_facts=3, min_facts=3, max_qualifiers=2)
    cfg = ModelConfig(width=4, encoder_depth=2, head_count=2, decoder_depth=1,
                      structure=structure)
    predictor = LinkPredictor.build(cfg, seed=9, dtype=np.float64)
    for name, value in predictor.store.items():
        if name.endswith("update_b"):  # off the relu kink of zero-state rows
            value.data[:] = 0.01
    graphs = predictor.prepare(kg)
    picked = [(f, q) for f, fact in enumerate(kg.facts)
              for q in queries_from_facts([fact])][::2][:batch]
    queries, sources = [q for _, q in picked], [f for f, _ in picked]

    def loss():
        losses = query_losses(predictor, graphs, queries, sources)
        return ad.mul(ad.total_sum(losses), np.full((1, 1), 1.0 / batch))

    report = ad.check_gradients(loss, dict(predictor.store.items()), h=1e-4)
    assert max(report.values()) <= 1e-3, report


def test_batched_losses_equal_single_query_losses():
    kg = fixed_kg()
    predictor = LinkPredictor.build(ModelConfig(width=8, encoder_depth=2, head_count=2,
                                                decoder_depth=1), seed=3)
    graphs = predictor.prepare(kg)
    picked = [(f, q) for f, fact in enumerate(kg.facts) for q in queries_from_facts([fact])]
    queries, sources = [q for _, q in picked], [f for f, _ in picked]
    batched = query_losses(predictor, graphs, queries, sources).data[:, 0]
    single = [query_losses(predictor, graphs, [q], [f]).data[0, 0] for f, q in picked]
    assert batched.tobytes() == np.array(single).tobytes()


def test_valid_tracking_keeps_best(tmp_path):
    kg = fixed_kg()
    bundle = as_bundle(kg, valid=list(kg.facts[:3]))
    cfg = TrainConfig(epochs=3, batch_size=8, step_size=1e-3, seed=0, width=8,
                      encoder_depth=1, head_count=1, decoder_depth=1,
                      checkpoint_every=2)
    out = tmp_path / "run"
    ckpt = fit(bundle, cfg, out_dir=out)
    assert (out / "ckpt_best.bin").exists()
    assert (out / "ckpt_final.bin").exists()
    assert (out / "ckpt_epoch0002.bin").exists()
    assert len(ckpt.valid_history) >= 1
    meta = (out / "ckpt_best.bin.meta").read_text(encoding="utf-8")
    assert "epochs = 3" in meta


def test_fit_builds_the_validation_graphs_once(tmp_path, monkeypatch):
    # ...and its filter index once.
    import hyrel.evaluation
    import hyrel.predictor
    import hyrel.training
    kg, inference = fixed_kg(), fixed_kg(seed=1)
    bundle = DatasetBundle(train=kg, inference=inference, valid=list(inference.facts[:3]),
                           test=[])
    built, scored, indexed = [], [], []
    build, scores = hyrel.predictor.build_entity_graph, LinkPredictor.batch_scores
    monkeypatch.setattr(hyrel.predictor, "build_entity_graph",
                        lambda g, *a, **k: built.append(g) or build(g, *a, **k))
    index = hyrel.evaluation.completion_index
    for module in (hyrel.evaluation, hyrel.training):
        monkeypatch.setattr(module, "completion_index",
                            lambda facts: indexed.append(1) or index(facts))
    monkeypatch.setattr(LinkPredictor, "batch_scores",
                        lambda self, ctx, qs: scored.append(len(qs)) or scores(self, ctx, qs))
    cfg = TrainConfig(epochs=3, seed=0, width=8, encoder_depth=1, head_count=1,
                      decoder_depth=1)
    stats = TrainStats()
    fit(bundle, cfg, out_dir=tmp_path, stats=stats)
    assert [g is inference for g in built] == [False, True] and len(indexed) == 1
    queries = queries_from_facts(bundle.valid)
    chunks = -(-len(queries) // CHUNK)  # batch_scores calls per validation pass
    assert sum(scored) == 3 * len(queries) and len(scored) == 3 * chunks
    final = Checkpoint.load(tmp_path / "ckpt_final.bin").predictor()
    assert evaluate(final, inference, queries, inference.facts + tuple(bundle.valid)).mrr_all \
        == stats.valid_mrr[-1]


def test_early_stop_callback():
    kg = fixed_kg()
    cfg = TrainConfig(epochs=50, batch_size=64, step_size=1e-3, seed=0, width=8,
                      encoder_depth=1, head_count=1, decoder_depth=1,
                      checkpoint_every=10 ** 6)
    stats = TrainStats()
    fit(as_bundle(kg), cfg, stats=stats, stop_when=lambda e, loss, mrr: e >= 5)
    assert len(stats.epoch_losses) == 5


def test_fit_stops_on_non_finite_step(monkeypatch):
    build = LinkPredictor.build.__func__

    def poisoned(cls, cfg, seed=0, dtype=np.float32):
        predictor = build(cls, cfg, seed, dtype)
        predictor.store["decoder/out_bias"].data[:] = np.nan
        return predictor

    monkeypatch.setattr(LinkPredictor, "build", classmethod(poisoned))
    kg = fixed_kg()
    cfg = TrainConfig(epochs=2, batch_size=4, seed=0, width=8, encoder_depth=1,
                      head_count=1, decoder_depth=1, checkpoint_every=10 ** 6)
    # No valid facts, so no evaluation would ever rank a NaN score.
    with pytest.raises(NumericalError, match="epoch 1, step 1"):
        fit(as_bundle(kg), cfg)

    predictor = LinkPredictor.build(cfg, seed=0)
    before = predictor.store.to_bytes()
    with pytest.raises(NumericalError):
        train_step(predictor, queries_from_facts(kg.facts)[:4], Adam(predictor.store), cfg,
                   predictor.prepare(kg), [0, 0, 1, 1])
    assert predictor.store.to_bytes() == before


@pytest.mark.parametrize("structure", STRUCTURES)
def test_the_tape_holds_no_per_pair_messages(structure):
    # A message pass forms its (block, pair) messages as a temporary: before
    # the sweep, no node of a guarded batch's tape has a row per message of
    # either graph's plan.
    kg = fixed_kg()
    cfg = ModelConfig(width=8, encoder_depth=2, head_count=2, decoder_depth=1,
                      structure=structure)
    predictor = LinkPredictor.build(cfg, seed=1)
    queries = queries_from_facts(kg.facts)[:3]
    graphs = predictor.prepare(kg)
    root = query_losses(predictor, graphs, queries, [0, 1, 1])
    messages = set()
    assert (graphs.entity_graph.relation is not None) == (structure == RELATION_DRIVEN)
    for g in (graphs.relation_graph, graphs.entity_graph):
        pairs = g.message_plan().src.index.size
        assert pairs != g.num_nodes
        messages.add(len(queries) * pairs)
    rows, stack, seen = [], [root], set()
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            rows.append(node.shape[0])
            stack.extend(node._parents)
    assert len(rows) > len(predictor.store)
    assert messages.isdisjoint(rows)


@pytest.mark.parametrize("structure", STRUCTURES)
def test_gradient_buffers_are_not_shared(structure):
    # Each tape node owns its gradient buffer, and every parameter's is its
    # view of the store's flat gradient buffer.  The sweep releases an
    # interior node's buffer once its step has run, so each step records
    # the buffer it is handed, which also keeps it from being reused.
    kg = fixed_kg()
    cfg = ModelConfig(width=8, encoder_depth=2, head_count=2, decoder_depth=1,
                      structure=structure)
    predictor = LinkPredictor.build(cfg, seed=1)
    queries = queries_from_facts(kg.facts)[:3]
    losses = query_losses(predictor, predictor.prepare(kg), queries, [0, 1, 1])
    root = ad.total_sum(losses)
    predictor.store.zero_grads()
    nodes, stack, seen = [], [root], set()
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    received = []
    leaves = [node for node in nodes if node._backward is None]
    for node in nodes:
        if node._backward is not None:
            def record(g, step=node._backward):
                received.append(g)
                step(g)
            node._backward = record
    ad.backward(root)
    grads = received + [node._grad for node in leaves]
    assert len(grads) == len(nodes) and len(grads) > len(predictor.store)
    assert all(g is not None for g in grads)
    for i, a in enumerate(grads):
        for b in grads[i + 1:]:
            assert not np.shares_memory(a, b)
    params = predictor.store.values()
    assert sum(any(p is node for node in nodes) for p in params) == len(params)
    assert all(p.grad.base is predictor.store.grad for p in params)
    assert predictor.store.grad.any()


SKIPPED_SHARE_BOUND = 0.10  # of the entries checked, per structure and seed


@pytest.mark.parametrize("structure", STRUCTURES)
def test_gradient_check_holds_for_any_model_seed(structure):
    # The selfcheck's problem under model seeds 0-7, each seed checking an
    # eighth of the tensors, so that every tensor is checked once.  Entries
    # whose probes cross a relu kink are skipped, and only those.
    from hyrel.selfcheck import gradient_report
    checked = set()
    for seed in range(8):
        report = gradient_report(structure, seed, part=seed, parts=8)
        assert max(report.values()) <= 1e-3, (seed, report)
        assert report.skipped <= SKIPPED_SHARE_BOUND * report.entries, (seed, report.skipped)
        checked |= set(report)
    assert len(checked) == len(LinkPredictor.build(
        ModelConfig(width=8, encoder_depth=2, head_count=2, decoder_depth=1,
                    structure=structure)).store)


def test_gradient_check_fails_when_relu_drops_its_mask(monkeypatch):
    from hyrel.selfcheck import gradient_report
    dense_relu = ad.dense_relu

    def dense_relu_without_mask(parts, w, b):
        out = dense_relu(parts, w, b)
        cat = np.concatenate([p.data for p in parts], axis=1)

        def bwd(g):
            w.grad[...] += cat.T @ g
            b.grad[...] += g.sum(axis=0, keepdims=True)
            offset = 0
            for p in parts:
                if p.requires_grad:
                    p.grad[...] += (g @ w.data.T)[:, offset:offset + p.shape[1]]
                offset += p.shape[1]

        out._backward = bwd
        return out

    monkeypatch.setattr(ad, "dense_relu", dense_relu_without_mask)
    report = gradient_report(STRUCTURES[0], part=0, parts=8)
    assert max(report.values()) > 1e-3


# One warm-up epoch, then the minor page faults of a second epoch and of one
# scoring pass, on the benchmark's train-guard bundle.  It runs in a fresh
# process, so that its heap holds nothing an earlier test left behind.
STEADY_STATE_FAULTS = """
import resource, sys, tempfile
from pathlib import Path
root = Path(sys.argv[1])
sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
import gen
from hyrel.evaluation import evaluate_bundle
from hyrel.io import load_bundle
from hyrel.training import TrainConfig, fit

def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

workload = gen.WORKLOADS["train-guard"]
with tempfile.TemporaryDirectory() as d:
    gen.generate(workload, 1, Path(d))
    bundle = load_bundle(d)
cfg = TrainConfig(epochs=1, seed=1, structure=workload.structure)
fit(bundle, cfg)
before = faults()
model = fit(bundle, cfg).predictor()
epoch = faults() - before
before = faults()
evaluate_bundle(model, bundle)
print(epoch, faults() - before)
"""


def test_steady_state_epoch_and_scoring_pass_do_not_page_fault():
    # Freed tape memory stays mapped for the next step; with glibc's dynamic
    # thresholds a train-guard epoch faulted about 29K pages back in.
    try:
        ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        pytest.skip("the C library has no mallopt")
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", STEADY_STATE_FAULTS, str(root)],
        env=dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1"),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    epoch, scoring = map(int, proc.stdout.split())
    assert epoch < 1000, epoch
    assert scoring < 1000, scoring

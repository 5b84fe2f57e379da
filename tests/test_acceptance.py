"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -s`` to see them).
"""

import time
from pathlib import Path

import numpy as np
import pytest

import hyrel.autodiff as ad
from hyrel import Hkg, HyperFact, QueryFact, load_bundle
from hyrel.evaluation import completion_index, evaluate, filter_set, rank_of
from hyrel.foundation import PRESETS, build_entity_graph, build_relation_graph
from hyrel.io import DatasetBundle
from hyrel.model import queries_from_facts
from hyrel.predictor import LinkPredictor, ModelConfig
from hyrel.reference import (best_modularity, brute_force_entity_edges,
                             brute_force_relation_edges, permute_hkg, random_hkg,
                             uniform_model_mrr)
from hyrel.splitting import (KHOP, LOUVAIN, SplitConfig, cluster_split, khop_split,
                             louvain_communities, modularity, relation_disjoint_filter)
from hyrel.training import TrainConfig, TrainStats, fit, train_step
from hyrel.autodiff import Adam


def report(number: int, ok: bool, description: str, detail: str = "") -> None:
    line = f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'} {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


class UniformModel:
    def prepare(self, kg):
        return kg

    def batch_scores(self, kg, queries):
        return np.full((len(queries), kg.num_entities), 1.0 / kg.num_entities)


class AnswerOracle:
    def prepare(self, kg):
        return kg

    def batch_scores(self, kg, queries):
        scores = np.zeros((len(queries), kg.num_entities))
        for row, query in zip(scores, queries):
            row[kg.entity_index[query.answer]] = 1.0
        return scores


def overfit_kg():
    rng = np.random.default_rng(42)
    ents = [f"e{i}" for i in range(15)]
    rels = ["r0", "r1", "r2", "k0", "k1"]
    facts = []
    for i in range(30):
        h, t = rng.choice(15, 2, replace=False)
        n_q = int(rng.integers(0, 3))
        quals = tuple((rels[3 + rng.integers(2)], ents[rng.integers(15)])
                      for _ in range(n_q))
        facts.append(HyperFact(ents[h], rels[rng.integers(3)], ents[t], quals))
    return Hkg(facts)


@pytest.fixture(scope="module")
def overfit_run():
    """Shared by criteria 4 and 5: memorization run with full instrumentation."""
    kg = overfit_kg()
    bundle = DatasetBundle(train=kg, inference=kg, valid=list(kg.facts), test=[])
    stats = TrainStats()
    cfg = TrainConfig(epochs=500, batch_size=16, step_size=6e-3, seed=0, width=16,
                      encoder_depth=2, head_count=2, decoder_depth=1,
                      checkpoint_every=10 ** 6, leakage_guard=False)
    started = time.monotonic()
    ckpt = fit(bundle, cfg, stats=stats,
               stop_when=lambda epoch, loss, mrr: mrr >= 0.95)
    elapsed = time.monotonic() - started
    return kg, ckpt, stats, elapsed


def test_criterion_01_foundation_oracle_equivalence():
    rng = np.random.default_rng(1001)
    started = time.monotonic()
    mismatches = 0
    for _ in range(1000):
        kg = random_hkg(rng)
        for cfg in PRESETS.values():
            if build_relation_graph(kg, cfg).edge_set() != \
                    brute_force_relation_edges(kg, cfg):
                mismatches += 1
            if build_entity_graph(kg, cfg).edge_set() != \
                    brute_force_entity_edges(kg, cfg):
                mismatches += 1
    elapsed = time.monotonic() - started
    report(1, mismatches == 0 and elapsed < 30.0,
           "foundation graphs equal the brute-force enumerator on 1000 random "
           "graphs under every preset",
           f"{mismatches} mismatches, {elapsed:.1f}s")


def test_criterion_02_double_equivariance():
    rng = np.random.default_rng(2002)
    predictor = LinkPredictor.build(
        ModelConfig(width=16, encoder_depth=2, head_count=2, decoder_depth=1), seed=6)
    started = time.monotonic()
    worst_drift = 0.0
    order_flips = 0
    for _ in range(100):
        kg = random_hkg(rng, max_facts=6, min_facts=2)
        queries = queries_from_facts(kg.facts)
        query = queries[int(rng.integers(len(queries)))]
        scores = predictor.entity_scores(predictor.prepare(kg), query)

        pkg, phi, tau = permute_hkg(kg, rng)
        pbase = HyperFact(phi[query.base.head], tau[query.base.relation],
                          phi[query.base.tail],
                          tuple((tau[k], phi[v]) for k, v in query.base.qualifiers))
        pquery = QueryFact(pbase, query.masked, phi[query.answer])
        pscores = predictor.entity_scores(predictor.prepare(pkg), pquery)

        mapped = np.empty_like(scores)
        for name, idx in kg.entity_index.items():
            mapped[idx] = pscores[pkg.entity_index[phi[name]]]
        worst_drift = max(worst_drift, float(np.abs(scores - mapped).max()))
        # Ranking must be preserved for every decisively separated pair.
        for i in range(len(scores)):
            for j in range(i + 1, len(scores)):
                if abs(scores[i] - scores[j]) > 2e-4:
                    if (scores[i] > scores[j]) != (mapped[i] > mapped[j]):
                        order_flips += 1
    elapsed = time.monotonic() - started
    report(2, worst_drift <= 1e-4 and order_flips == 0 and elapsed < 120.0,
           "entity/relation relabeling permutes the score vector and preserves "
           "the ranking on 100 random cases",
           f"max drift {worst_drift:.2e}, {order_flips} flips, {elapsed:.1f}s")


def test_criterion_03_gradient_correctness():
    rng = np.random.default_rng(7)
    kg = random_hkg(rng, max_facts=3, min_facts=3, max_qualifiers=2)
    queries = queries_from_facts(kg.facts)
    # Entries whose probes cross a relu kink, where central differences are
    # undefined, are skipped; the bias nudge moves zero-state rows (exactly
    # on the kink by construction) off it.
    predictor = LinkPredictor.build(
        ModelConfig(width=8, encoder_depth=2, head_count=1, decoder_depth=2),
        seed=5, dtype=np.float64)
    for name, value in predictor.store.items():
        if name.endswith("update_b"):
            value.data[:] = 0.01
    graphs = predictor.prepare(kg)

    def loss():
        return ad.add(predictor_query_loss(predictor, graphs, queries[0]),
                      predictor_query_loss(predictor, graphs, queries[2]))

    params = dict(predictor.store.items())
    started = time.monotonic()
    result = ad.check_gradients(loss, params, h=1e-4)
    elapsed = time.monotonic() - started
    worst = max(result.values())
    scalars = sum(p.data.size for p in params.values())
    report(3, worst <= 1e-3,
           "every parameter of the d=8, two-layer, one-head model passes the "
           "central finite-difference check",
           f"{scalars} scalars, max rel err {worst:.2e}, {elapsed:.1f}s")


def predictor_query_loss(predictor, graphs, query):
    from hyrel.training import query_losses
    return query_losses(predictor, graphs, [query])


def test_criterion_04_no_negative_sampling(overfit_run):
    kg, _, stats, _ = overfit_run
    counts_ok = bool(stats.candidate_counts) and \
        all(c == kg.num_entities for c in stats.candidate_counts)
    src = Path(__file__).resolve().parents[1] / "src" / "hyrel"
    source_ok = all("negative_sampl" not in p.read_text(encoding="utf-8").lower()
                    for p in src.rglob("*.py"))
    report(4, counts_ok and source_ok,
           "the training path scores the full entity vocabulary at every step "
           "and no corruption sampling exists",
           f"{len(stats.candidate_counts)} steps, candidate set always "
           f"{kg.num_entities}")


def test_criterion_05_overfit_smoke(overfit_run):
    kg, ckpt, stats, elapsed = overfit_run
    queries = queries_from_facts(kg.facts)
    metrics = evaluate(ckpt.predictor(), kg, queries, kg.facts)
    epochs_used = len(stats.epoch_losses)
    report(5, metrics.mrr_all >= 0.95 and epochs_used <= 500 and elapsed < 120.0,
           "a 30-fact synthetic graph is memorized to filtered MRR >= 0.95",
           f"MRR {metrics.mrr_all:.4f} after {epochs_used} epochs, {elapsed:.1f}s")


def chain_family(length, prefix):
    ents = [f"{prefix}c{i}" for i in range(length)]
    s, q, k = f"{prefix}s", f"{prefix}q", f"{prefix}k"
    triples = [HyperFact(ents[i], s, ents[i + 1]) for i in range(length - 1)]
    hypers = [HyperFact(ents[i], q, ents[i + 1], ((k, ents[i + 2]),))
              for i in range(length - 2)]
    return triples, hypers


def test_criterion_06_inductive_generalization_smoke():
    # The governing rule: a hyper fact's qualifier value is always the
    # successor of its tail.  Train on one vocabulary, test on another.
    tA, hA = chain_family(14, "A")
    train = Hkg(tA + hA)
    tB, hB = chain_family(20, "B")
    inference = Hkg(tB + [h for i, h in enumerate(hB) if i % 2 == 0])
    test_facts = [h for i, h in enumerate(hB) if i % 2 == 1]
    assert not set(train.entities) & set(inference.entities)
    assert not set(train.relations) & set(inference.relations)
    bundle = DatasetBundle(train=train, inference=inference, valid=[],
                           test=test_facts)
    queries = queries_from_facts(test_facts)
    known = list(inference.facts) + test_facts
    uniform = evaluate(UniformModel(), inference, queries, known).mrr_all

    cfg = TrainConfig(epochs=40, batch_size=16, step_size=3e-3, seed=0, width=16,
                      encoder_depth=3, head_count=2, decoder_depth=1,
                      checkpoint_every=10 ** 6)
    started = time.monotonic()
    ckpt = fit(bundle, cfg)
    metrics = evaluate(ckpt.predictor(), inference, queries, known)
    elapsed = time.monotonic() - started
    report(6, metrics.mrr_all >= 3.0 * uniform,
           "trained on one vocabulary, test MRR on a disjoint vocabulary beats "
           "three times the uniform-model oracle",
           f"MRR {metrics.mrr_all:.4f} vs uniform {uniform:.4f}, {elapsed:.1f}s")


def test_criterion_07_evaluator_correctness():
    fixtures_ok = (
        rank_of(np.array([0.5, 0.3, 0.2]), 1) == 2.0
        and rank_of(np.array([0.4, 0.4, 0.2]), 0) == 1.5
        and rank_of(np.array([0.1, 0.7, 0.2]), 1, {0}) == 1.0
    )
    facts = [HyperFact("a", "r", "b"), HyperFact("a", "r", "c")]
    kg = Hkg(facts)
    query = QueryFact.from_fact(facts[0], __import__("hyrel").TAIL)
    index = completion_index(facts)
    filtering_ok = filter_set(query, kg, index) == {kg.entity_index["c"]}

    mixed = [HyperFact("a", "r", "b", (("k", "c"),)), HyperFact("a", "r", "c"),
             HyperFact("d", "s", "e")]
    mixed_kg = Hkg(mixed)
    queries = queries_from_facts(mixed)
    idx = completion_index(mixed)
    sizes = [len(filter_set(q, mixed_kg, idx)) for q in queries]
    closed_form = uniform_model_mrr(mixed_kg.num_entities, sizes)
    measured = evaluate(UniformModel(), mixed_kg, queries, mixed).mrr_all
    uniform_ok = abs(measured - closed_form) < 1e-9

    oracle_ok = evaluate(AnswerOracle(), mixed_kg, queries, mixed).mrr_all == 1.0
    report(7, fixtures_ok and filtering_ok and uniform_ok and oracle_ok,
           "hand-computed rank/filter fixtures match exactly and the uniform "
           "model equals the closed-form tie oracle",
           f"uniform {measured:.12f} vs {closed_form:.12f}")


def test_criterion_08_splitter_contracts():
    rng = np.random.default_rng(808)
    # Louvain against the exhaustive oracle on small graphs.
    louvain_ok = True
    for _ in range(60):
        n = int(rng.integers(2, 9))
        adj = {i: {} for i in range(n)}
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < rng.uniform(0.2, 0.8):
                    w = float(rng.integers(1, 4))
                    adj[i][j] = w
                    adj[j][i] = w
        got = modularity(adj, louvain_communities(adj))
        if abs(got - best_modularity(adj)) > 1e-9:
            louvain_ok = False

    # Entity disjointness for both split families.
    cluster_ok = True
    for trial in range(15):
        facts = []
        for prefix in (f"x{trial}", f"y{trial}"):
            ents = [f"{prefix}e{i}" for i in range(6)]
            for i in range(6):
                for j in range(i + 1, 6):
                    facts.append(HyperFact(ents[i], f"{prefix}r", ents[j]))
        train, ind, _ = cluster_split(Hkg(facts), SplitConfig(method=LOUVAIN))
        if set(train.entities) & set(ind.entities):
            cluster_ok = False

    khop_ok = True
    feasible = 0
    for seed in range(150):
        kg = random_hkg(np.random.default_rng(seed), max_facts=14, min_facts=6,
                        num_entities=16, num_relations=4)
        try:
            train, ind, _ = khop_split(kg, SplitConfig(method=KHOP, seed_count=2,
                                                       hops=1, seed=seed))
        except Exception:
            continue
        feasible += 1
        if set(train.entities) & set(ind.entities):
            khop_ok = False
        if feasible >= 100:
            break

    filter_ok = True
    for seed in range(30):
        r = np.random.default_rng(seed)
        train = random_hkg(r, max_facts=6, num_relations=6)
        ind = random_hkg(r, max_facts=8, num_relations=9)
        try:
            filtered = relation_disjoint_filter(train, ind)
        except Exception:
            continue
        if set(filtered.relations) & set(train.relations):
            filter_ok = False
    report(8, louvain_ok and cluster_ok and khop_ok and filter_ok,
           "split outputs keep entity vocabularies disjoint, the relation filter "
           "keeps relation vocabularies disjoint, and clustering matches the "
           "exhaustive modularity oracle",
           f"{feasible} k-hop cases exercised")


def _write_wd20k100v1_shaped_bundle(directory: Path) -> None:
    """Synthesize TSV files with the WD20K100(V1) training-side shape:
    7785 facts over 5785 entities and 91 relations, every fact qualified."""
    directory.mkdir(parents=True, exist_ok=True)
    ents = [f"Q{i}" for i in range(5785)]
    rels = [f"P{i}" for i in range(91)]
    lines = []
    for i in range(2892):  # cover every entity pairwise
        h = ents[(2 * i) % 5785]
        t = ents[(2 * i + 1) % 5785]
        lines.append("\t".join([h, rels[i % 91], t,
                                rels[(i + 7) % 91], ents[(3 * i + 5) % 5785]]))
    for i in range(2892, 7785):  # deterministic filler from covered pools
        h = ents[(11 * i + 1) % 5785]
        t = ents[(17 * i + 2) % 5785]
        lines.append("\t".join([h, rels[(5 * i) % 91], t,
                                rels[(3 * i + 1) % 91], ents[(7 * i + 3) % 5785]]))
    (directory / "train.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    inf = [f"X{i}\t{rels[i % 91]}\tX{i + 1}\t{rels[(i + 3) % 91]}\tX{(i + 2) % 40}"
           for i in range(40)]
    (directory / "inference.txt").write_text("\n".join(inf) + "\n", encoding="utf-8")
    (directory / "valid.txt").write_text(inf[0] + "\n", encoding="utf-8")
    (directory / "test.txt").write_text(inf[1] + "\n", encoding="utf-8")


def test_criterion_09_loader_fidelity(tmp_path):
    _write_wd20k100v1_shaped_bundle(tmp_path / "wd")
    bundle = load_bundle(tmp_path / "wd")
    diag = bundle.diagnostics()
    got = diag.counts["train"]
    report(9, got == (7785, 5785, 91),
           "a bundle shaped like the published benchmark reports exactly "
           "7785 train facts over 5785 entities and 91 relations",
           f"got {got}")


def perf_chain(n_facts, prefix="p"):
    ents = [f"{prefix}{i}" for i in range(n_facts + 2)]
    return Hkg([HyperFact(ents[i], "r", ents[i + 1], (("k", ents[i + 2]),))
                for i in range(n_facts)])


def _time_fixed_workload(kg, budget=24):
    cfg = TrainConfig(epochs=1, batch_size=8, step_size=1e-3, seed=0, width=16,
                      encoder_depth=2, head_count=2, decoder_depth=1,
                      checkpoint_every=10 ** 6)
    predictor = LinkPredictor.build(cfg, seed=0)
    optimizer = Adam(predictor.store, lr=cfg.step_size)
    queries = []
    sources = []
    for fi, fact in enumerate(kg.facts):
        for q in queries_from_facts([fact]):
            queries.append(q)
            sources.append(fi)
        if len(queries) >= budget:
            break
    queries, sources = queries[:budget], sources[:budget]
    started = time.monotonic()
    graphs = predictor.prepare(kg)
    for start in range(0, budget, cfg.batch_size):
        train_step(predictor, queries[start:start + cfg.batch_size], optimizer, cfg, graphs,
                   sources[start:start + cfg.batch_size])
    return time.monotonic() - started


def test_criterion_10_perf_scaling():
    sizes = (250, 500, 1000)
    _time_fixed_workload(perf_chain(50))  # warm numpy and the allocator
    # Two repetitions per size, keeping the minimum, to damp scheduler noise.
    times = [min(_time_fixed_workload(perf_chain(n)) for _ in range(2))
             for n in sizes]
    r1 = times[1] / times[0]
    r2 = times[2] / times[1]
    report(10, r1 <= 2.5 and r2 <= 2.5,
           "doubling the fact count scales the fixed per-epoch workload by "
           "at most 2.5x at each of three sizes",
           f"times {[f'{t:.2f}s' for t in times]}, ratios {r1:.2f}, {r2:.2f}")

import numpy as np
import pytest

from hyrel import (ConfigError, Hkg, HyperFact, SplitError, load_bundle,
                   relation_disjoint_filter, split_inductive)
from hyrel.reference import best_modularity, random_hkg
from hyrel.splitting import (KHOP, LOUVAIN, SplitConfig, cluster_split, khop_split,
                             louvain_communities, make_bundle, modularity,
                             primary_adjacency, write_split)


def symmetric(pairs):
    adj = {}
    for a, b, w in pairs:
        adj.setdefault(a, {})[b] = w
        adj.setdefault(b, {})[a] = w
    return adj


def random_adj(rng, n, p, maxw=3):
    adj = {i: {} for i in range(n)}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                w = float(rng.integers(1, maxw + 1))
                adj[i][j] = w
                adj[j][i] = w
    return adj


def chain_hkg(units, prefix=""):
    """Well-separated clusters of facts for split tests."""
    facts = []
    for u in range(units):
        a, b, c = (f"{prefix}u{u}a", f"{prefix}u{u}b", f"{prefix}u{u}c")
        facts.append(HyperFact(a, f"{prefix}r", b, ((f"{prefix}k", c),)))
        facts.append(HyperFact(b, f"{prefix}s", c))
        facts.append(HyperFact(a, f"{prefix}s", c))
    return Hkg(facts)


def test_louvain_two_cliques_with_bridge():
    adj = symmetric([(0, 1, 1), (0, 2, 1), (1, 2, 1),
                     (3, 4, 1), (3, 5, 1), (4, 5, 1), (2, 3, 1)])
    assign = louvain_communities(adj)
    assert assign[0] == assign[1] == assign[2]
    assert assign[3] == assign[4] == assign[5]
    assert assign[0] != assign[3]
    assert abs(modularity(adj, assign) - best_modularity(adj)) < 1e-9


def test_louvain_single_edge_merges():
    adj = symmetric([(0, 1, 1.0)])
    assign = louvain_communities(adj)
    assert assign[0] == assign[1]
    assert abs(modularity(adj, assign) - best_modularity(adj)) < 1e-12


def test_louvain_empty_edges_gives_singletons():
    adj = {0: {}, 1: {}, 2: {}}
    assert louvain_communities(adj) == {0: 0, 1: 1, 2: 2}


def test_louvain_matches_exhaustive_oracle(rng):
    for _ in range(120):
        n = int(rng.integers(2, 9))
        adj = random_adj(rng, n, rng.uniform(0.15, 0.85))
        q = modularity(adj, louvain_communities(adj))
        assert abs(q - best_modularity(adj)) < 1e-9


def test_louvain_deterministic(rng):
    adj = random_adj(rng, 8, 0.5)
    assert louvain_communities(adj) == louvain_communities(adj)


def test_primary_adjacency_ignores_qualifiers_and_loops():
    kg = Hkg([HyperFact("a", "r", "b", (("k", "z"),)), HyperFact("c", "r", "c")])
    adj = primary_adjacency(kg)
    names = {kg.entity_index[x] for x in ("a", "b", "c")}
    assert set(adj) == names
    assert kg.entity_index.get("z") not in adj
    c = kg.entity_index["c"]
    assert adj[c] == {}


def test_cluster_split_separates_components():
    kg = Hkg(list(chain_hkg(2, "x").facts) + list(chain_hkg(3, "y").facts))
    train, ind, _ = cluster_split(kg, SplitConfig(method=LOUVAIN))
    assert not set(train.entities) & set(ind.entities)
    assert train.num_facts + ind.num_facts <= kg.num_facts


def test_cluster_split_drops_straddlers():
    # Two triangle communities plus one fact whose qualifier value crosses.
    facts = [
        HyperFact("a1", "r", "a2"), HyperFact("a2", "r", "a3"), HyperFact("a1", "r", "a3"),
        HyperFact("b1", "r", "b2"), HyperFact("b2", "r", "b3"), HyperFact("b1", "r", "b3"),
        HyperFact("a1", "r", "a2", (("k", "b1"),)),
    ]
    kg = Hkg(facts)
    train, ind, report = cluster_split(kg, SplitConfig(method=LOUVAIN))
    assert report.dropped_facts == 1
    straddler = facts[-1]
    assert straddler not in train.facts and straddler not in ind.facts


def test_cluster_split_single_community_fails():
    kg = Hkg([HyperFact("a", "r", "b"), HyperFact("b", "r", "c")])
    with pytest.raises(SplitError):
        cluster_split(kg, SplitConfig(method=LOUVAIN))


def test_cluster_split_disjointness_random(rng):
    for trial in range(25):
        kg = Hkg(list(chain_hkg(2 + trial % 3, f"p{trial}").facts)
                 + list(chain_hkg(2, f"q{trial}").facts))
        train, ind, _ = cluster_split(kg, SplitConfig(method=LOUVAIN))
        assert not set(train.entities) & set(ind.entities)


def test_khop_zero_hops_keeps_seed_entities_only():
    kg = chain_hkg(4)
    cfg = SplitConfig(method=KHOP, seed_count=1, hops=0, seed=3)
    train, ind, _ = khop_split(kg, cfg)
    # With one seed and zero hops, training entities fit inside a single fact.
    assert any(set(train.entities) <= set(f.entities()) for f in kg.facts)


def test_khop_covering_everything_fails():
    kg = Hkg([HyperFact("a", "r", "b"), HyperFact("b", "r", "c")])
    with pytest.raises(SplitError):
        khop_split(kg, SplitConfig(method=KHOP, seed_count=1, hops=10, seed=0))


def test_khop_disjointness_random(rng):
    done = 0
    for seed in range(200):
        kg = random_hkg(np.random.default_rng(seed), max_facts=14, min_facts=6,
                        num_entities=16, num_relations=4)
        cfg = SplitConfig(method=KHOP, seed_count=2, hops=1, seed=seed)
        try:
            train, ind, _ = khop_split(kg, cfg)
        except SplitError:
            continue
        done += 1
        assert not set(train.entities) & set(ind.entities)
        for f in train.facts:
            assert all(e in set(train.entities) for e in f.entities())
        if done >= 100:
            break
    assert done >= 30  # enough feasible cases actually exercised


def test_relation_disjoint_filter_cases():
    train = Hkg([HyperFact("a", "r1", "b", (("k1", "c"),))])
    ind_clean = Hkg([HyperFact("x", "r2", "y", (("k2", "z"),))])
    assert relation_disjoint_filter(train, ind_clean).facts == ind_clean.facts

    ind_overlap = Hkg([HyperFact("x", "r1", "y")])
    with pytest.raises(SplitError):
        relation_disjoint_filter(train, ind_overlap)

    mixed = Hkg([HyperFact("x", "r2", "y"), HyperFact("x", "r1", "y"),
                 HyperFact("x", "r2", "y", (("k1", "z"),))])
    kept = relation_disjoint_filter(train, mixed)
    assert kept.facts == (HyperFact("x", "r2", "y"),)


def test_relation_disjoint_filter_matches_set_oracle(rng):
    for seed in range(40):
        r = np.random.default_rng(seed)
        train = random_hkg(r, max_facts=6, num_relations=6)
        ind = random_hkg(r, max_facts=8, num_relations=9)
        trained = set(train.relations)
        expected = [f for f in ind.facts
                    if not (set(f.relations()) & trained)]
        if expected:
            assert list(relation_disjoint_filter(train, ind).facts) == expected
        else:
            with pytest.raises(SplitError):
                relation_disjoint_filter(train, ind)


def test_split_inductive_all_to_inference():
    kg = chain_hkg(3)
    inference, valid, test = split_inductive(kg, (1.0, 0.0, 0.0), seed=0)
    assert inference.num_facts == kg.num_facts
    assert valid == [] and test == []


def test_split_inductive_reassigns_lonely_entities():
    # 'loner' appears in exactly one fact: that fact can never be evaluated,
    # so it must land in inference regardless of the shuffle.
    facts = [HyperFact("a", "r", "b"), HyperFact("b", "r", "c"),
             HyperFact("c", "r", "loner"), HyperFact("a", "r", "c"),
             HyperFact("b", "r", "a")]
    kg = Hkg(facts)
    for seed in range(10):
        inference, valid, test = split_inductive(kg, (0.4, 0.3, 0.3), seed=seed)
        assert HyperFact("c", "r", "loner") in inference.facts
        ents = set(inference.entities)
        rels = set(inference.relations)
        for f in valid + test:
            assert all(e in ents for e in f.entities())
            assert all(r in rels for r in f.relations())


def test_split_inductive_closure_property(rng):
    for seed in range(30):
        kg = random_hkg(np.random.default_rng(seed), max_facts=20, min_facts=8,
                        num_entities=10, num_relations=5)
        inference, valid, test = split_inductive(kg, (0.5, 0.25, 0.25), seed=seed)
        ents, rels = set(inference.entities), set(inference.relations)
        for f in valid + test:
            assert all(e in ents for e in f.entities())
            assert all(r in rels for r in f.relations())
        assert inference.num_facts + len(valid) + len(test) == kg.num_facts


def test_make_bundle_passes_loader_checks(tmp_path):
    kg = Hkg(list(chain_hkg(4, "x").facts) + list(chain_hkg(4, "y").facts))
    cfg = SplitConfig(method=LOUVAIN, ratios=(0.6, 0.2, 0.2), seed=1)
    bundle, report = make_bundle(kg, cfg)
    write_split(bundle, report, tmp_path / "out")
    loaded = load_bundle(tmp_path / "out")
    assert loaded.train == bundle.train
    assert loaded.diagnostics().entity_disjoint
    assert (tmp_path / "out" / "split_report.txt").exists()


def clique_hkg(n, prefix):
    """One dense community: every entity pair related, relations per prefix."""
    ents = [f"{prefix}{i}" for i in range(n)]
    facts = []
    for i in range(n):
        for j in range(i + 1, n):
            quals = ((f"{prefix}k", ents[(i + j) % n]),) if (i + j) % 2 else ()
            facts.append(HyperFact(ents[i], f"{prefix}r", ents[j], quals))
    return Hkg(facts)


def test_make_bundle_relation_disjoint(tmp_path):
    kg = Hkg(list(clique_hkg(6, "x").facts) + list(clique_hkg(5, "y").facts))
    cfg = SplitConfig(method=LOUVAIN, ratios=(0.8, 0.1, 0.1), seed=1,
                      relation_disjoint=True)
    bundle, _ = make_bundle(kg, cfg)
    assert not set(bundle.train.relations) & set(bundle.inference.relations)
    assert bundle.diagnostics().relation_disjoint


def test_split_determinism():
    kg = Hkg(list(chain_hkg(3, "x").facts) + list(chain_hkg(3, "y").facts))
    cfg = SplitConfig(method=LOUVAIN, seed=7)
    b1, _ = make_bundle(kg, cfg)
    b2, _ = make_bundle(kg, cfg)
    assert b1.train == b2.train and b1.inference == b2.inference
    assert b1.valid == b2.valid and b1.test == b2.test


def test_bad_configs_rejected():
    with pytest.raises(ConfigError):
        SplitConfig(method="nonsense")
    with pytest.raises(ConfigError):
        SplitConfig(ratios=(0.5, 0.5, 0.5))
    with pytest.raises(ConfigError):
        SplitConfig(seed_count=0)
    with pytest.raises(ConfigError, match="seed"):
        SplitConfig(seed=-1)

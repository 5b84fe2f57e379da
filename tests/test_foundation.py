import hashlib
from collections import defaultdict
from itertools import product

import numpy as np
import pytest

from hyrel import ConfigError, Hkg, HyperFact
from hyrel.foundation import (PRESETS,
                              EntInteraction, InteractionConfig, RelInteraction,
                              build_entity_graph, build_relation_graph,
                              export_edge_list, graph_stats, preset,
                              ENT_RECIPROCAL, REL_RECIPROCAL)
from hyrel.reference import (brute_force_entity_edges, brute_force_relation_edges,
                             permute_hkg, random_hkg)

E = EntInteraction
R = RelInteraction


def test_single_fact_default_relation_graph():
    kg = Hkg([HyperFact("h", "r", "t", (("k1", "v1"), ("k2", "v2")))])
    g = build_relation_graph(kg)
    r, k1, k2 = (kg.relation_index[x] for x in ("r", "k1", "k2"))
    assert g.edge_set() == {(r, R.R2K, k1), (k1, R.K2R, r), (r, R.R2K, k2), (k2, R.K2R, r)}
    counts = graph_stats(g).type_counts
    assert counts["r2k_r"] == 2 and counts["k2r_r"] == 2
    assert sum(counts.values()) == g.num_edges


def test_two_triples_sharing_head():
    kg = Hkg([HyperFact("x", "r1", "a"), HyperFact("x", "r2", "b")])
    g = build_relation_graph(kg)
    r1, r2 = kg.relation_index["r1"], kg.relation_index["r2"]
    assert g.edge_set() == {(r1, R.H2H, r2), (r2, R.H2H, r1)}


def test_shared_value_interaction():
    # Fact 1 carries a qualifier whose value is fact 5's head entity.
    fact1 = HyperFact("h1", "r1", "t1", (("k1", "v1"), ("k2", "v2")))
    fact5 = HyperFact("v2", "r5", "t5")
    kg = Hkg([fact1, fact5])
    g = build_relation_graph(kg, preset("addShareV"))
    r5, k2 = kg.relation_index["r5"], kg.relation_index["k2"]
    assert (r5, R.H2V, k2) in g.edge_set()
    assert (k2, R.V2H, r5) in g.edge_set()
    default = build_relation_graph(kg).edge_set()
    assert default <= g.edge_set()
    assert not any(t in (R.H2V, R.V2H, R.T2V, R.V2T, R.V2V) for _, t, _ in default)


def test_self_relation_edge_needs_two_facts():
    # Same relation in two distinct facts sharing a head makes a self edge;
    # a single fact whose head equals its tail must not.
    kg = Hkg([HyperFact("x", "r", "a"), HyperFact("x", "r", "b")])
    g = build_relation_graph(kg)
    r = kg.relation_index["r"]
    assert (r, R.H2H, r) in g.edge_set()

    loop_kg = Hkg([HyperFact("x", "r", "x")])
    g2 = build_relation_graph(loop_kg)
    assert g2.num_edges == 0


def test_single_triple_entity_graph():
    kg = Hkg([HyperFact("h", "r", "t")])
    g = build_entity_graph(kg)
    h, t = kg.entity_index["h"], kg.entity_index["t"]
    assert g.edge_set() == {(h, E.H2T, t), (t, E.T2H, h)}


def test_two_qualifier_entity_graph_has_twelve_edges():
    kg = Hkg([HyperFact("h", "r", "t", (("k1", "v1"), ("k2", "v2")))])
    g = build_entity_graph(kg)
    h, t, v1, v2 = (kg.entity_index[x] for x in ("h", "t", "v1", "v2"))
    expected = {
        (h, E.H2T, t), (t, E.T2H, h),
        (h, E.H2V, v1), (v1, E.V2H, h), (h, E.H2V, v2), (v2, E.V2H, h),
        (t, E.T2V, v1), (v1, E.V2T, t), (t, E.T2V, v2), (v2, E.V2T, t),
        (v1, E.V2V, v2), (v2, E.V2V, v1),
    }
    assert g.edge_set() == expected
    counts = graph_stats(g).type_counts
    assert counts == {"h2t_e": 1, "t2h_e": 1, "h2v_e": 2, "v2h_e": 2,
                      "t2v_e": 2, "v2t_e": 2, "v2v_e": 2}


def test_nov_preset_keeps_only_primary_pair():
    kg = Hkg([HyperFact("h", "r", "t", (("k1", "v1"), ("k2", "v2")))])
    g = build_entity_graph(kg, preset("noV"))
    h, t = kg.entity_index["h"], kg.entity_index["t"]
    assert g.edge_set() == {(h, E.H2T, t), (t, E.T2H, h)}


def test_degenerate_loops_kept_once():
    kg = Hkg([HyperFact("x", "r", "x", (("k", "x"),))])
    g = build_entity_graph(kg)
    x = kg.entity_index["x"]
    assert g.edge_set() == {(x, E.H2T, x), (x, E.T2H, x), (x, E.H2V, x),
                            (x, E.V2H, x), (x, E.T2V, x), (x, E.V2T, x)}


def test_empty_graph_stats():
    g = build_entity_graph(Hkg([]))
    stats = graph_stats(g)
    assert stats.num_edges == 0
    assert all(v == 0 for v in stats.type_counts.values())


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError):
        preset("nonsense")


def test_non_reciprocal_config_rejected():
    with pytest.raises(ConfigError):
        InteractionConfig(relation_set=frozenset({R.H2T}))
    with pytest.raises(ConfigError):
        InteractionConfig(entity_set=frozenset({E.H2V, E.H2T, E.T2H}))


def test_oracle_equivalence_random(rng):
    for _ in range(150):
        kg = random_hkg(rng)
        for cfg in PRESETS.values():
            assert build_relation_graph(kg, cfg).edge_set() == \
                brute_force_relation_edges(kg, cfg)
            assert build_entity_graph(kg, cfg).edge_set() == \
                brute_force_entity_edges(kg, cfg)


def test_addallfi_is_union_of_extras(rng):
    for _ in range(50):
        kg = random_hkg(rng)
        default = build_relation_graph(kg, preset("default")).edge_set()
        k2k = build_relation_graph(kg, preset("addK2K")).edge_set()
        sharev = build_relation_graph(kg, preset("addShareV")).edge_set()
        allfi = build_relation_graph(kg, preset("addAllFI")).edge_set()
        assert allfi == default | (k2k - default) | (sharev - default)


def test_reciprocity_closure(rng):
    for _ in range(50):
        kg = random_hkg(rng)
        g = build_relation_graph(kg, preset("addAllFI"))
        edges = g.edge_set()
        assert all((d, REL_RECIPROCAL[t], s) in edges for s, t, d in edges)
        ge = build_entity_graph(kg)
        eedges = ge.edge_set()
        assert all((d, ENT_RECIPROCAL[t], s) in eedges for s, t, d in eedges)


def test_monotonicity_under_larger_alphabet(rng):
    for _ in range(30):
        kg = random_hkg(rng)
        small = build_relation_graph(kg, preset("noR2K")).edge_set()
        mid = build_relation_graph(kg, preset("default")).edge_set()
        big = build_relation_graph(kg, preset("addAllFI")).edge_set()
        assert small <= mid <= big
        e_small = build_entity_graph(kg, preset("noV")).edge_set()
        e_big = build_entity_graph(kg).edge_set()
        assert e_small <= e_big


def sorted_oracle(g, edges):
    order = {t: i for i, t in enumerate(g.alphabet)}
    return sorted(edges, key=lambda e: (e[0], order[e[1]], e[2:]))


def plan_edges(plan):
    """The (src, gate row, dst) rows a message plan reads, in its edge order."""
    return np.stack([plan.src.index[plan.fan.index], plan.gate.index[plan.fan.index],
                     plan.dst.index], axis=1)


def without(kg, f):
    """``kg`` without fact ``f``, its vocabularies (and so its ids) kept."""
    return Hkg(kg.facts[:f] + kg.facts[f + 1:], kg.entities, kg.relations)


def masked_edges(g, leave_out):
    """The edges ``g`` keeps without fact ``leave_out``, in order, each with
    its relation when ``g`` is annotated, after checking that the masked
    message plan reads every edge, gated by its relation when annotated and
    by its type otherwise, in stable destination order and zeroes the cells
    of exactly the edges that :meth:`kept` drops, in that order."""
    keep = g.kept(leave_out)
    annotated = g.relation is not None
    order = np.argsort(g.dst, kind="stable")
    plan = g.message_plan([leave_out])
    full = np.stack([g.src, g.relation if annotated else g.type_row, g.dst], axis=1)[order]
    assert plan.blocks == 1 and plan_edges(plan).tolist() == full.tolist()
    edges, blocks = plan.zeroed
    assert edges.tolist() == np.flatnonzero(~keep[order]).tolist()
    assert blocks.tolist() == [0] * edges.size
    rels = g.relation.tolist() if annotated else [None] * g.num_edges
    return [e + (r,) * annotated for e, r, k in zip(g.edges, rels, keep) if k]


def test_exclusion_soundness(rng):
    # Leaving fact f out by mask equals the oracle built without f, edge for
    # edge in order, for every fact under every preset.
    for _ in range(40):
        kg = random_hkg(rng, min_facts=2)
        for cfg in PRESETS.values():
            for build, oracle in ((build_relation_graph, brute_force_relation_edges),
                                  (build_entity_graph, brute_force_entity_edges)):
                g = build(kg, cfg)
                for f in range(kg.num_facts):
                    assert masked_edges(g, f) == sorted_oracle(g, oracle(without(kg, f), cfg))


def test_annotated_entity_graph_matches_oracle(rng):
    for _ in range(60):
        kg = random_hkg(rng)
        for cfg in PRESETS.values():
            g = build_entity_graph(kg, cfg, with_fact_relations=True)
            full = {e + (r,) for e, r in zip(g.edges, g.relation.tolist())}
            assert len(full) == g.num_edges
            assert full == brute_force_entity_edges(kg, cfg, with_fact_relations=True)
            for f in range(kg.num_facts):
                assert masked_edges(g, f) == sorted_oracle(
                    g, brute_force_entity_edges(without(kg, f), cfg, with_fact_relations=True))


def dense_hkg(rng, min_facts=1):
    """A random KG over three entities and three relations: most (anchor,
    role, relation) groups hold three or more distinct facts."""
    return random_hkg(rng, max_facts=24, num_entities=3, num_relations=3,
                      min_facts=min_facts)


def has_dense_hub(kg):
    """Whether some (anchor, role, relation) holds three distinct facts."""
    facts = defaultdict(set)
    for i, f in enumerate(kg.facts):
        facts["head", f.head, f.relation].add(i)
        facts["tail", f.tail, f.relation].add(i)
        for k, v in f.qualifiers:
            facts["value", v, k].add(i)
    return max(map(len, facts.values()), default=0) >= 3


def test_dense_hub_oracle_equivalence(rng):
    graphs = [dense_hkg(rng) for _ in range(60)]
    assert sum(map(has_dense_hub, graphs)) >= 50
    for kg, cfg in product(graphs, PRESETS.values()):
        assert build_relation_graph(kg, cfg).edge_set() == brute_force_relation_edges(kg, cfg)
        assert build_entity_graph(kg, cfg).edge_set() == brute_force_entity_edges(kg, cfg)
        g = build_entity_graph(kg, cfg, with_fact_relations=True)
        assert {e + (r,) for e, r in zip(g.edges, g.relation.tolist())} == \
            brute_force_entity_edges(kg, cfg, with_fact_relations=True)


def test_dense_hub_exclusion_soundness(rng):
    # Three or more facts at one anchor decide every cross-fact record; the
    # masks must still equal the oracle built without each fact.
    graphs = [dense_hkg(rng, min_facts=12) for _ in range(4)]
    assert all(map(has_dense_hub, graphs))
    for kg, cfg in product(graphs, PRESETS.values()):
        for build, oracle in ((build_relation_graph, brute_force_relation_edges),
                              (build_entity_graph, brute_force_entity_edges)):
            g = build(kg, cfg)
            for f in range(kg.num_facts):
                assert masked_edges(g, f) == sorted_oracle(g, oracle(without(kg, f), cfg))
        g = build_entity_graph(kg, cfg, with_fact_relations=True)
        for f in range(kg.num_facts):
            assert masked_edges(g, f) == sorted_oracle(
                g, brute_force_entity_edges(without(kg, f), cfg, with_fact_relations=True))


def test_construction_permutation_equivariance(rng):
    for _ in range(30):
        kg = random_hkg(rng)
        pkg, phi, tau = permute_hkg(kg, rng)
        for cfg in (preset("default"), preset("addAllFI")):
            g = build_relation_graph(kg, cfg)
            pg = build_relation_graph(pkg, cfg)
            named = {(kg.relations[s], t, kg.relations[d]) for s, t, d in g.edges}
            renamed = {(tau[a], t, tau[b]) for a, t, b in named}
            pnamed = {(pkg.relations[s], t, pkg.relations[d]) for s, t, d in pg.edges}
            assert renamed == pnamed
        ge = build_entity_graph(kg)
        pge = build_entity_graph(pkg)
        named = {(kg.entities[s], t, kg.entities[d]) for s, t, d in ge.edges}
        assert {(phi[a], t, phi[b]) for a, t, b in named} == \
            {(pkg.entities[s], t, pkg.entities[d]) for s, t, d in pge.edges}


def edge_arrays(g):
    return [g.src, g.type_row, g.dst] + ([] if g.relation is None else [g.relation])


BUILDS = {
    "relation": (build_relation_graph, REL_RECIPROCAL),
    "entity": (build_entity_graph, ENT_RECIPROCAL),
    "entity-annotated": (lambda kg, cfg: build_entity_graph(kg, cfg, with_fact_relations=True),
                         ENT_RECIPROCAL),
}


def test_edges_sorted_and_deterministic(rng):
    for _ in range(20):
        kg = random_hkg(rng)
        for (name, (build, reciprocal)), cfg in product(BUILDS.items(), PRESETS.values()):
            g, again = build(kg, cfg), build(kg, cfg)
            arrays = edge_arrays(g)
            assert len(arrays) == (4 if name == "entity-annotated" else 3)
            assert all(a.dtype == np.int64 and a.shape == (g.num_edges,) for a in arrays)
            assert g.edge_facts.shape == (g.num_edges, 2)
            first, second = g.edge_facts.T  # a row ascends, with -1 padding last
            assert ((second == -1) | (first < second)).all() and (first >= -1).all()
            assert ((first >= 0) | (second == -1)).all()
            for a, b in zip(arrays + [g.edge_facts], edge_arrays(again) + [again.edge_facts]):
                assert a.tobytes() == b.tobytes()
            rows = list(zip(*(a.tolist() for a in arrays)))
            assert all(a < b for a, b in zip(rows, rows[1:]))  # strictly: no duplicates
            edges = g.edge_set()
            assert all((d, reciprocal[t], s) in edges for s, t, d in edges)
            # An annotated graph may hold one (src, type, dst) under two relations.
            counted = g.edges if g.relation is not None else edges
            stats = graph_stats(g)
            assert stats.num_edges == len(counted)
            assert stats.type_counts == {t.value: sum(e[1] is t for e in counted)
                                         for t in g.alphabet}
            degree = [sum(e[0] == n for e in counted) for n in range(g.num_nodes)]
            assert stats.degree_histogram == {k: degree.count(k) for k in set(degree)}


def test_export_edge_list_format():
    kg = Hkg([HyperFact("x", "r1", "a"), HyperFact("x", "r2", "b")])
    g = build_relation_graph(kg)
    lines = export_edge_list(g, kg.relations)
    assert lines == ["r1\th2h_r\tr2", "r2\th2h_r\tr1"]


def test_annotated_entity_graph_carries_relations():
    kg = Hkg([HyperFact("h", "r", "t", (("k", "v"),))])
    g = build_entity_graph(kg, with_fact_relations=True)
    rels = g.relation
    assert len(rels) == g.num_edges
    r, k = kg.relation_index["r"], kg.relation_index["k"]
    by_type = {}
    for (s, t, d), rel in zip(g.edges, rels):
        by_type.setdefault(t, set()).add(int(rel))
    assert by_type[E.H2T] == {r} and by_type[E.T2H] == {r}
    assert by_type[E.H2V] == {k} and by_type[E.V2H] == {k}
    # Reciprocity of the plain (src, type, dst) view still holds.
    edges = g.edge_set()
    assert all((d, ENT_RECIPROCAL[t], s) in edges for s, t, d in edges)


def test_message_plans_are_cached_over_the_edge_arrays():
    # The graph's annotation picks the gate rows: relations when it has them.
    kg = Hkg([HyperFact("h", "r", "t", (("k", "v"),)), HyperFact("t", "s", "v")])
    plans = []
    for g in (build_entity_graph(kg), build_entity_graph(kg, with_fact_relations=True)):
        src, dst = g.src, g.dst
        gate = g.type_row if g.relation is None else g.relation
        order = np.argsort(dst, kind="stable")
        plan = g.message_plan()
        assert g.message_plan() is plan and g.message_plan([None]) is plan
        full = np.stack([src, gate, dst], axis=1)[order]
        assert plan_edges(plan).tolist() == full.tolist()
        pairs = sorted(set(zip(src.tolist(), gate.tolist())))
        assert list(zip(plan.src.index.tolist(), plan.gate.index.tolist())) == pairs
        assert plan.src.order is None  # pairs are sorted by source already
        assert plan.dst.order is None  # edges come in destination order
        for p, idx in ((plan.src, src), (plan.dst, dst)):
            assert p.rows.tolist() == sorted(set(idx.tolist()))
        plans.append(plan)
    assert plans[0].gate.index.tolist() != plans[1].gate.index.tolist()


def zipf_hkg(seed=23, num_facts=400, num_entities=150, num_primaries=12, num_keys=8):
    """A seeded KG whose entities, relations and keys are drawn with Zipf
    weights, so a few hub entities are shared by many facts; facts hold 0-2
    qualifiers and may repeat."""
    rng = np.random.default_rng(seed)

    def draw(n, size):
        w = 1.0 / np.arange(1, n + 1)
        return rng.choice(n, size=size, p=w / w.sum()).tolist()

    facts = []
    for q in rng.integers(0, 3, num_facts).tolist():
        (h, t), (r,) = draw(num_entities, 2), draw(num_primaries, 1)
        quals = tuple((f"k{k}", f"e{v}") for k, v in zip(draw(num_keys, q),
                                                        draw(num_entities, q)))
        facts.append(HyperFact(f"e{h}", f"r{r}", f"e{t}", quals))
    return Hkg(facts)


def graph_digests(g):
    """SHA-256 of the edge arrays and of the ``edge_facts`` rows, each row
    sorted ascending with -1 last."""
    edges = hashlib.sha256(b"".join(a.tobytes() for a in edge_arrays(g)))
    big = np.iinfo(np.int64).max
    rows = np.sort(np.where(g.edge_facts < 0, big, g.edge_facts), axis=1)
    facts = hashlib.sha256(np.where(rows == big, -1, rows).astype("<i8").tobytes())
    return edges.hexdigest(), facts.hexdigest()


GOLDEN = {
    "relation-default": (
        "3b805168b227e9c5fb1c66ae1d204091fe9c85f0ce199acd7c4e2945bef2743e",
        "f753d8795c699bc1de76000445e542dae98b549816baebdbf8ae6890d3677bac"),
    "relation-addallfi": (
        "54ceaccd4a08330137aa0895fbab1836b65cae3a000a5589cbfb8d1da4d7e82e",
        "27d486153f9ad66ed3fd7c70b3c251651c7b45cd0af22fdae2d100ddfeea2868"),
    "entity": (
        "fd50e6bce269f878391554fbee431ec78b0e34ea534ac4a9462d367df5f8edd0",
        "fdff9bf190426ec20611db331c4d05ee459c133e267d15b46da4191f3d682b56"),
    "entity-annotated": (
        "e04e24d599491b0bd8cd326033581444e1f14c43f682390e9962ca85826a16af",
        "ba93be0de755d7016c385ec7c1fea5ee95e81e6cbba1330f28a557dc85fd1359"),
}


def test_golden_graph_hashes():
    kg = zipf_hkg()
    graphs = {
        "relation-default": build_relation_graph(kg, preset("default")),
        "relation-addallfi": build_relation_graph(kg, preset("addAllFI")),
        "entity": build_entity_graph(kg),
        "entity-annotated": build_entity_graph(kg, with_fact_relations=True),
    }
    assert {name: graph_digests(g) for name, g in graphs.items()} == GOLDEN

"""Slow, literal reference implementations used for verification only.

Everything here is written as a direct transcription of the construction
rules, with no shared code or data structures with the production builders,
so the two can check each other.  Complexity is quadratic or worse; use on
small inputs only.
"""

from __future__ import annotations

from itertools import product
from typing import Mapping, Sequence

import numpy as np

from .decoder import classify_bias
from .foundation import EntInteraction, FoundationGraph, InteractionConfig, RelInteraction
from .model import Hkg, HyperFact, Role

Edge = tuple[int, object, int]


def brute_force_relation_edges(kg: Hkg, cfg: InteractionConfig) -> frozenset[Edge]:
    """Every relation-graph edge, found by scanning all ordered fact pairs."""
    active = cfg.relation_set
    r = kg.relation_index
    edges: set[Edge] = set()
    for (ia, fa), (ib, fb) in product(enumerate(kg.facts), repeat=2):
        if ia == ib:
            continue
        if fa.head == fb.head:
            edges.add((r[fa.relation], RelInteraction.H2H, r[fb.relation]))
        if fa.head == fb.tail:
            edges.add((r[fa.relation], RelInteraction.H2T, r[fb.relation]))
        if fa.tail == fb.head:
            edges.add((r[fa.relation], RelInteraction.T2H, r[fb.relation]))
        if fa.tail == fb.tail:
            edges.add((r[fa.relation], RelInteraction.T2T, r[fb.relation]))
        for kb, vb in fb.qualifiers:
            if fa.head == vb:
                edges.add((r[fa.relation], RelInteraction.H2V, r[kb]))
            if fa.tail == vb:
                edges.add((r[fa.relation], RelInteraction.T2V, r[kb]))
        for ka, va in fa.qualifiers:
            if va == fb.head:
                edges.add((r[ka], RelInteraction.V2H, r[fb.relation]))
            if va == fb.tail:
                edges.add((r[ka], RelInteraction.V2T, r[fb.relation]))
            for kb, vb in fb.qualifiers:
                if va == vb:
                    edges.add((r[ka], RelInteraction.V2V, r[kb]))
    for f in kg.facts:
        for k, _v in f.qualifiers:
            edges.add((r[f.relation], RelInteraction.R2K, r[k]))
            edges.add((r[k], RelInteraction.K2R, r[f.relation]))
        for i, (ki, _) in enumerate(f.qualifiers):
            for j, (kj, _) in enumerate(f.qualifiers):
                if i != j:
                    edges.add((r[ki], RelInteraction.K2K, r[kj]))
    return frozenset(edge for edge in edges if edge[1] in active)


def brute_force_entity_edges(kg: Hkg, cfg: InteractionConfig,
                             with_fact_relations: bool = False) -> frozenset[tuple]:
    """Every entity-graph edge, enumerated per fact straight from the rules.

    With ``with_fact_relations`` each edge is ``(src, type, dst, relation)``:
    the fact's primary relation for head/tail edges, the source position's
    qualifier key for value edges.
    """
    active = cfg.entity_set
    e, r = kg.entity_index, kg.relation_index
    edges: set[tuple] = set()
    for f in kg.facts:
        p = r[f.relation]
        edges.add((e[f.head], EntInteraction.H2T, e[f.tail], p))
        edges.add((e[f.tail], EntInteraction.T2H, e[f.head], p))
        for k, v in f.qualifiers:
            edges.add((e[f.head], EntInteraction.H2V, e[v], r[k]))
            edges.add((e[v], EntInteraction.V2H, e[f.head], r[k]))
            edges.add((e[f.tail], EntInteraction.T2V, e[v], r[k]))
            edges.add((e[v], EntInteraction.V2T, e[f.tail], r[k]))
        for i, (ki, vi) in enumerate(f.qualifiers):
            for j, (_, vj) in enumerate(f.qualifiers):
                if i != j:
                    edges.add((e[vi], EntInteraction.V2V, e[vj], r[ki]))
    return frozenset(edge if with_fact_relations else edge[:3]
                     for edge in edges if edge[1] in active)


def kept(g: FoundationGraph, leave_out: int | Sequence[int]) -> np.ndarray:
    """Boolean mask of the edges of ``g`` left when fact ``leave_out`` is
    left out, read straight off ``edge_facts``; an array of facts gives one
    row of the mask per fact."""
    return (g.edge_facts != np.asarray(leave_out)[..., None, None]).all(axis=-1)


def naive_message_passing(states: np.ndarray, edges: Sequence[Edge],
                          alphabet: Sequence, type_vectors: np.ndarray,
                          update_w: np.ndarray, update_b: np.ndarray,
                          edge_states: np.ndarray | None = None,
                          edge_relations: Sequence[int] | None = None) -> np.ndarray:
    """Per-node double loop mirroring one message-passing layer; given
    ``edge_states``, edge i is gated by its row ``edge_relations[i]``."""
    n, d = states.shape
    row = {t: i for i, t in enumerate(alphabet)}
    agg = np.zeros_like(states)
    for i, (src, itype, dst) in enumerate(edges):
        gate = (type_vectors[row[itype]] if edge_states is None
                else edge_states[edge_relations[i]])
        agg[dst] += states[src] * gate
    out = np.zeros_like(states)
    for u in range(n):
        joint = np.concatenate([states[u], agg[u]])
        out[u] = np.maximum(joint @ update_w + update_b[0], 0)
    return out


def naive_attention_layer(seq: np.ndarray, roles: Sequence[Role], head_count: int,
                          weights: Mapping[str, np.ndarray]) -> np.ndarray:
    """One decoder block by explicit loops over head x query slot x key slot.

    ``weights`` maps the layer's tensor names (``wq`` ... ``ln2_bias``) to
    arrays; head h reads columns h*dh:(h+1)*dh of the projections and of
    both bias tables, and each slot pair adds the rows of its bias type.
    """
    n, d = seq.shape
    dh = d // head_count
    attn = np.zeros_like(seq)
    for h in range(head_count):
        cols = slice(h * dh, (h + 1) * dh)
        q = seq @ weights["wq"][:, cols]
        k = seq @ weights["wk"][:, cols]
        v = seq @ weights["wv"][:, cols]
        for a in range(n):
            types = [classify_bias(roles[a], roles[b]).value for b in range(n)]
            scores = np.array([q[a] @ (k[b] + weights["key_bias"][t, cols])
                               for b, t in enumerate(types)]) / np.sqrt(dh)
            w = np.exp(scores - scores.max())
            w /= w.sum()
            for b, t in enumerate(types):
                attn[a, cols] += w[b] * (v[b] + weights["value_bias"][t, cols])

    def layer_norm(x, gain, bias):
        mu = x.mean(axis=1, keepdims=True)
        return (x - mu) / np.sqrt(x.var(axis=1, keepdims=True) + 1e-5) * gain + bias

    x = layer_norm(seq + attn, weights["ln1_gain"], weights["ln1_bias"])
    hidden = np.maximum(x @ weights["ffn_w1"] + weights["ffn_b1"], 0)
    return layer_norm(x + hidden @ weights["ffn_w2"] + weights["ffn_b2"],
                      weights["ln2_gain"], weights["ln2_bias"])


def all_partitions(items: Sequence[int]):
    """Every set partition of ``items`` (Bell-number many; keep items small)."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in all_partitions(rest):
        for i in range(len(partition)):
            yield partition[:i] + [partition[i] + [first]] + partition[i + 1:]
        yield partition + [[first]]


def best_modularity(adj: Mapping[int, Mapping[int, float]]) -> float:
    """Exhaustive maximum modularity over all partitions of the node set."""
    nodes = sorted(adj)
    degree = {u: sum(adj[u].values()) for u in nodes}
    two_m = sum(degree.values())
    if two_m == 0:
        return 0.0
    best = -np.inf
    for partition in all_partitions(nodes):
        q = 0.0
        for block in partition:
            block_set = set(block)
            internal = sum(w for u in block for v, w in adj[u].items() if v in block_set)
            deg_sum = sum(degree[u] for u in block)
            q += internal / two_m - (deg_sum / two_m) ** 2
        best = max(best, q)
    return float(best)


def uniform_model_mrr(num_entities: int, filter_sizes: Sequence[int]) -> float:
    """Closed-form MRR of an all-ties model under mean-tie ranking.

    With f filtered competitors the answer ties with the remaining
    n - 1 - f, landing at rank 1 + (n - 1 - f) / 2.
    """
    rrs = [1.0 / (1.0 + (num_entities - 1 - f) / 2.0) for f in filter_sizes]
    return float(np.mean(rrs)) if rrs else 0.0


def random_hkg(rng: np.random.Generator, max_facts: int = 8, max_qualifiers: int = 3,
               num_entities: int = 6, num_relations: int = 5,
               min_facts: int = 1) -> Hkg:
    """A small random KG; entity/relation pools are shared so facts collide."""
    ents = [f"e{i}" for i in range(num_entities)]
    rels = [f"r{i}" for i in range(num_relations)]
    facts = []
    for _ in range(int(rng.integers(min_facts, max_facts + 1))):
        quals = tuple((rels[rng.integers(len(rels))], ents[rng.integers(len(ents))])
                      for _ in range(int(rng.integers(0, max_qualifiers + 1))))
        facts.append(HyperFact(ents[rng.integers(len(ents))],
                               rels[rng.integers(len(rels))],
                               ents[rng.integers(len(ents))], quals))
    return Hkg(facts)


def permute_hkg(kg: Hkg, rng: np.random.Generator) -> tuple[Hkg, dict[str, str], dict[str, str]]:
    """Relabel all entities and relations bijectively and reorder the facts.

    Reordering matters: vocabularies are built in first-seen order, so a pure
    renaming with the original fact order would reproduce the original dense
    ids and the permutation would test nothing.
    """
    ent_names = [f"pe{i}" for i in range(kg.num_entities)]
    rel_names = [f"pr{i}" for i in range(kg.num_relations)]
    rng.shuffle(ent_names)
    rng.shuffle(rel_names)
    phi = dict(zip(kg.entities, ent_names))
    tau = dict(zip(kg.relations, rel_names))
    facts = [relabel_fact(f, phi, tau) for f in kg.facts]
    order = rng.permutation(len(facts))
    return Hkg([facts[i] for i in order]), phi, tau


def relabel_fact(fact: HyperFact, phi: Mapping[str, str], tau: Mapping[str, str]) -> HyperFact:
    """``fact`` with every entity renamed by ``phi`` and every relation by ``tau``."""
    return HyperFact(phi[fact.head], tau[fact.relation], phi[fact.tail],
                     tuple((tau[k], phi[v]) for k, v in fact.qualifiers))

"""Build inductive benchmark bundles out of one raw hyper-relational KG.

Two split families are supported.  The k-hop seed split samples seed facts,
grows the training entity set along the primary-triplet graph, and keeps a
fact on a side only when every one of its entities (qualifier values
included) lives there, so the two sides never share an entity.  The cluster
split runs Louvain community detection over the primary-triplet graph
(qualifiers ignored while clustering) and turns the two largest
fully-contained fact groups into the training and inductive graphs.

An optional relation-disjoint filter then drops every inductive fact whose
primary relation or any qualifier key already occurs in the training side,
producing the hardest setting where neither entities nor relations are
shared.  Finally the inductive side is shuffled and cut into inference,
valid and test parts; valid/test facts that reference vocabulary absent
from the inference graph are reassigned to it so that every evaluation
query stays answerable.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .config import TextConfig
from .errors import ConfigError, SplitError
from .io import DatasetBundle, write_bundle
from .model import Hkg, HyperFact

KHOP = "khop"
LOUVAIN = "louvain"


@dataclass(frozen=True)
class SplitConfig(TextConfig):
    method: str = KHOP
    seed_count: int = 5
    hops: int = 2
    ratios: tuple[float, float, float] = (0.6, 0.2, 0.2)  # inference / valid / test
    seed: int = 0
    relation_disjoint: bool = False

    def __post_init__(self):
        if self.method not in (KHOP, LOUVAIN):
            raise ConfigError(f"unknown split method {self.method!r}")
        if self.seed_count < 1:
            raise ConfigError("seed_count must be >= 1")
        if self.hops < 0:
            raise ConfigError("hops must be >= 0")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if len(self.ratios) != 3 or any(r < 0 for r in self.ratios) or self.ratios[0] <= 0:
            raise ConfigError("ratios must be three non-negative numbers with a "
                              "positive inference share")
        if abs(sum(self.ratios) - 1.0) > 1e-9:
            raise ConfigError(f"ratios must sum to 1, got {sum(self.ratios)}")


def primary_adjacency(kg: Hkg) -> dict[int, dict[int, float]]:
    """Undirected weighted adjacency over primary triplets only.

    Nodes are the dense ids of every head/tail entity; parallel triplets add
    weight; self loops (head equal to tail) are ignored.
    """
    adj: dict[int, dict[int, float]] = {}
    for f in kg.facts:
        h = kg.entity_index[f.head]
        t = kg.entity_index[f.tail]
        adj.setdefault(h, {})
        adj.setdefault(t, {})
        if h == t:
            continue
        adj[h][t] = adj[h].get(t, 0.0) + 1.0
        adj[t][h] = adj[t].get(h, 0.0) + 1.0
    return adj


def modularity(adj: Mapping[int, Mapping[int, float]],
               assignment: Mapping[int, int]) -> float:
    """Newman modularity of a partition over a weighted undirected graph."""
    degree = {u: sum(nbrs.values()) for u, nbrs in adj.items()}
    two_m = sum(degree.values())
    if two_m == 0:
        return 0.0
    internal = 0.0
    for u, nbrs in adj.items():
        for v, w in nbrs.items():
            if assignment[u] == assignment[v]:
                internal += w
    degree_sums: dict[int, float] = defaultdict(float)
    for u, d in degree.items():
        degree_sums[assignment[u]] += d
    expected = sum(d * d for d in degree_sums.values()) / (two_m * two_m)
    return internal / two_m - expected


# Greedy single-sweep modularity ascent gets stuck in local optima even on
# tiny graphs, so the public entry point runs a deterministic portfolio of
# sweep orders and move rules and polishes each result with a bounded
# Kernighan-Lin pass, keeping the best partition by modularity.  Everything
# is seedless and order-stable, so repeated runs agree bit for bit.
_PORTFOLIO_ROTATIONS = (1, 3)
_KL_NODE_LIMIT = 512  # refinement is quadratic; skip it on big graphs


def louvain_communities(adj: Mapping[int, Mapping[int, float]]) -> dict[int, int]:
    """Deterministic modularity clustering; returns node -> community id.

    Community ids are renumbered 0..k-1 by each community's smallest member.
    """
    nodes = sorted(adj)
    if not nodes:
        return {}
    degree = {u: sum(adj[u].values()) for u in nodes}
    orderings = [list(nodes), list(reversed(nodes)),
                 sorted(nodes, key=lambda u: (degree[u], u)),
                 sorted(nodes, key=lambda u: (-degree[u], u))]
    for k in _PORTFOLIO_ROTATIONS:
        if k < len(nodes):
            orderings.append(nodes[k:] + nodes[:k])
    best_assign: dict[int, int] | None = None
    best_q = -float("inf")
    for order in orderings:
        for first_improvement in (True, False):
            assign = _louvain_single(adj, order, first_improvement)
            if len(nodes) <= _KL_NODE_LIMIT:
                assign = _kl_refine(adj, assign)
            q = modularity(adj, assign)
            if q > best_q + 1e-12:
                best_q, best_assign = q, assign
    labels = sorted(set(best_assign.values()),
                    key=lambda c: min(u for u, cc in best_assign.items() if cc == c))
    renumber = {c: i for i, c in enumerate(labels)}
    return {u: renumber[c] for u, c in best_assign.items()}


def _louvain_single(adj: Mapping[int, Mapping[int, float]], order: Sequence[int],
                    first_improvement: bool) -> dict[int, int]:
    """Classic two-phase pass: local moving, aggregate, repeat to a fixpoint."""
    nodes = sorted(adj)
    graph: dict[int, dict[int, float]] = {u: dict(adj[u]) for u in nodes}
    self_w: dict[int, float] = {u: 0.0 for u in nodes}
    membership = {u: u for u in nodes}  # original node -> current supernode
    cur_order = list(order)
    while True:
        assign = _one_level(graph, self_w, cur_order, first_improvement)
        membership = {orig: assign[cur] for orig, cur in membership.items()}
        groups: dict[int, list[int]] = defaultdict(list)
        for u, c in assign.items():
            groups[c].append(u)
        if all(len(g) == 1 for g in groups.values()):
            return membership
        new_graph: dict[int, dict[int, float]] = {c: {} for c in groups}
        new_self: dict[int, float] = {c: 0.0 for c in groups}
        for c, members in groups.items():
            for u in members:
                new_self[c] += self_w[u]
                for v, w in graph[u].items():
                    cv = assign[v]
                    if cv == c:
                        new_self[c] += w / 2.0
                    else:
                        new_graph[c][cv] = new_graph[c].get(cv, 0.0) + w
        graph, self_w = new_graph, new_self
        first_member = {c: min(u for u, cc in membership.items() if cc == c)
                        for c in graph}
        cur_order = sorted(graph, key=lambda c: first_member[c])


def _one_level(graph: dict[int, dict[int, float]], self_w: dict[int, float],
               order: Sequence[int], first_improvement: bool) -> dict[int, int]:
    """One local-moving phase; returns node -> community (community = some node id)."""
    nodes = list(order)
    degree = {u: sum(graph[u].values()) + 2.0 * self_w[u] for u in graph}
    two_m = sum(degree.values())
    comm = {u: u for u in graph}
    comm_degree = dict(degree)
    if two_m == 0:
        return comm
    improved = True
    while improved:
        improved = False
        for u in nodes:
            cu = comm[u]
            weight_to: dict[int, float] = defaultdict(float)
            for v, w in graph[u].items():
                weight_to[comm[v]] += w
            comm_degree[cu] -= degree[u]
            # Gain of joining community c, relative to staying isolated.
            stay = weight_to.get(cu, 0.0) - comm_degree[cu] * degree[u] / two_m
            best_c, best_gain = cu, stay
            for c in sorted(weight_to):
                if c == cu:
                    continue
                gain = weight_to[c] - comm_degree[c] * degree[u] / two_m
                if gain > best_gain + 1e-12:
                    best_c, best_gain = c, gain
                    if first_improvement:
                        break
            comm[u] = best_c
            comm_degree[best_c] += degree[u]
            if best_c != cu:
                improved = True
    return comm


def _kl_refine(adj: Mapping[int, Mapping[int, float]],
               assignment: dict[int, int]) -> dict[int, int]:
    """Kernighan-Lin style polish: chains of single-node moves that may dip
    below the current modularity, keeping the best prefix of each chain."""
    nodes = sorted(adj)
    degree = {u: sum(adj[u].values()) for u in nodes}
    two_m = sum(degree.values())
    if two_m == 0:
        return dict(assignment)
    assignment = dict(assignment)
    while True:
        cur = dict(assignment)
        comm_degree: dict[int, float] = defaultdict(float)
        for u in nodes:
            comm_degree[cur[u]] += degree[u]
        fresh = max(max(cur.values(), default=0), nodes[-1]) + 1
        locked: set[int] = set()
        trail: list[tuple[int, int]] = []  # (node, new community)
        cumulative = 0.0
        best_cumulative, best_len = 0.0, 0
        for _ in range(len(nodes)):
            best = None  # (delta, node, target community)
            for u in nodes:
                if u in locked:
                    continue
                cu = cur[u]
                weight_to: dict[int, float] = defaultdict(float)
                for v, w in adj[u].items():
                    weight_to[cur[v]] += w
                comm_degree[cu] -= degree[u]
                stay = weight_to.get(cu, 0.0) - comm_degree[cu] * degree[u] / two_m
                for c in sorted(set(weight_to) | {fresh}):
                    if c == cu:
                        continue
                    gain = weight_to.get(c, 0.0) - comm_degree.get(c, 0.0) * degree[u] / two_m
                    delta = gain - stay
                    if best is None or delta > best[0] + 1e-12:
                        best = (delta, u, c)
                comm_degree[cu] += degree[u]
            if best is None:
                break
            delta, u, target = best
            comm_degree[cur[u]] -= degree[u]
            comm_degree[target] += degree[u]
            cur[u] = target
            if target == fresh:
                fresh += 1
            locked.add(u)
            cumulative += delta
            trail.append((u, target))
            if cumulative > best_cumulative + 1e-12:
                best_cumulative, best_len = cumulative, len(trail)
        if best_cumulative <= 1e-12:
            return assignment
        for u, target in trail[:best_len]:
            assignment[u] = target


@dataclass
class SplitReport:
    """How a split was made; the bundle's own counts and overlaps are in
    :meth:`~hyrel.io.DatasetBundle.diagnostics`."""

    method: str
    community_count: int | None
    modularity: float | None
    dropped_facts: int

    def lines(self) -> list[str]:
        out = [f"method: {self.method}"]
        if self.community_count is not None:
            out.append(f"communities: {self.community_count}")
            out.append(f"modularity: {self.modularity:.6f}")
        out.append(f"straddling facts dropped: {self.dropped_facts}")
        return out


def _facts_fully_inside(kg: Hkg, entity_set: set[str]) -> list[HyperFact]:
    return [f for f in kg.facts if all(e in entity_set for e in f.entities())]


def cluster_split(raw: Hkg, cfg: SplitConfig) -> tuple[Hkg, Hkg, SplitReport]:
    """Louvain-based split into entity-disjoint training and inductive graphs.

    A fact joins a community's piece only when all of its entities belong to
    that community; entities that appear solely as qualifier values inherit
    the community of the head of their first containing fact.
    """
    if cfg.method != LOUVAIN:
        raise ConfigError(f"cluster_split requires method={LOUVAIN!r}")
    if raw.num_facts == 0:
        raise SplitError("cannot split an empty graph")
    adj = primary_adjacency(raw)
    assign_dense = louvain_communities(adj)
    community: dict[str, int] = {raw.entities[i]: c for i, c in assign_dense.items()}
    for f in raw.facts:
        for _, v in f.qualifiers:
            if v not in community:
                community[v] = community[f.head]

    pieces: dict[int, list[HyperFact]] = defaultdict(list)
    dropped = 0
    for f in raw.facts:
        comms = {community[e] for e in f.entities()}
        if len(comms) == 1:
            pieces[comms.pop()].append(f)
        else:
            dropped += 1
    non_empty = [(len(facts), -c, c) for c, facts in pieces.items() if facts]
    if len(non_empty) < 2:
        raise SplitError("clustering produced fewer than two non-empty pieces; "
                         "the graph is too interconnected to split this way")
    non_empty.sort(reverse=True)
    train = Hkg(pieces[non_empty[0][2]])
    ind = Hkg(pieces[non_empty[1][2]])
    return train, ind, SplitReport(LOUVAIN, len(set(assign_dense.values())),
                                   modularity(adj, assign_dense), dropped)


def khop_split(raw: Hkg, cfg: SplitConfig) -> tuple[Hkg, Hkg, SplitReport]:
    """Seed-fact split: seeds plus their k-hop neighborhood become training."""
    if cfg.method != KHOP:
        raise ConfigError(f"khop_split requires method={KHOP!r}")
    if raw.num_facts == 0:
        raise SplitError("cannot split an empty graph")
    if cfg.seed_count > raw.num_facts:
        raise SplitError(f"seed_count {cfg.seed_count} exceeds fact count {raw.num_facts}")
    rng = np.random.default_rng(cfg.seed)
    seeds = rng.choice(raw.num_facts, size=cfg.seed_count, replace=False)
    train_entities: set[str] = set()
    for fi in seeds:
        train_entities.update(raw.facts[int(fi)].entities())
    adj = primary_adjacency(raw)
    frontier = {raw.entity_index[e] for e in train_entities if e in raw.entity_index
                and raw.entity_index[e] in adj}
    visited = set(frontier)
    for _ in range(cfg.hops):
        nxt = set()
        for u in frontier:
            for v in adj.get(u, ()):
                if v not in visited:
                    nxt.add(v)
        visited |= nxt
        frontier = nxt
        if not frontier:
            break
    train_entities.update(raw.entities[i] for i in visited)
    ind_entities = set(raw.entities) - train_entities
    if not ind_entities:
        raise SplitError("every entity fell within k hops of the seeds; "
                         "nothing left for the inductive side")
    train = Hkg(_facts_fully_inside(raw, train_entities))
    ind_facts = _facts_fully_inside(raw, ind_entities)
    if not ind_facts:
        raise SplitError("no fact lies entirely outside the training entity set")
    ind = Hkg(ind_facts)
    dropped = raw.num_facts - train.num_facts - ind.num_facts
    return train, ind, SplitReport(KHOP, None, None, dropped)


def relation_disjoint_filter(train: Hkg, ind: Hkg) -> Hkg:
    """Drop inductive facts using any relation (primary or key) seen in training."""
    trained = set(train.relations)
    kept = [f for f in ind.facts if not any(r in trained for r in f.relations())]
    if not kept:
        raise SplitError("every inductive fact shares a relation with training; "
                         "nothing survives the relation-disjoint filter")
    return Hkg(kept)


def split_inductive(ind: Hkg, ratios: Sequence[float], seed: int,
                    ) -> tuple[Hkg, list[HyperFact], list[HyperFact]]:
    """Shuffle and cut the inductive graph into inference/valid/test parts.

    Valid/test facts whose entities or relations never occur in the
    inference part are moved into inference (repeatedly, until stable), so
    every remaining evaluation query is answerable.
    """
    n = ind.num_facts
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    n_inf = int(round(ratios[0] * n))
    n_val = int(round(ratios[1] * n))
    n_inf = max(1, min(n, n_inf))
    inference = [ind.facts[i] for i in order[:n_inf]]
    valid = [ind.facts[i] for i in order[n_inf:n_inf + n_val]]
    test = [ind.facts[i] for i in order[n_inf + n_val:]]

    while True:
        ents = {e for f in inference for e in f.entities()}
        rels = {r for f in inference for r in f.relations()}
        moved = False
        for pool in (valid, test):
            keep = []
            for f in pool:
                if all(e in ents for e in f.entities()) and all(r in rels for r in f.relations()):
                    keep.append(f)
                else:
                    inference.append(f)
                    moved = True
            pool[:] = keep
        if not moved:
            break
    return Hkg(inference), valid, test


def make_bundle(raw: Hkg, cfg: SplitConfig) -> tuple[DatasetBundle, SplitReport]:
    """Run the configured split end to end and assemble a dataset bundle."""
    if cfg.method == LOUVAIN:
        train, ind, report = cluster_split(raw, cfg)
    else:
        train, ind, report = khop_split(raw, cfg)
    if cfg.relation_disjoint:
        ind = relation_disjoint_filter(train, ind)
    inference, valid, test = split_inductive(ind, cfg.ratios, cfg.seed)
    return DatasetBundle(train=train, inference=inference, valid=valid, test=test), report


def write_split(bundle: DatasetBundle, report: SplitReport, directory: str | Path) -> None:
    directory = Path(directory)
    write_bundle(bundle, directory)
    lines = report.lines() + [""] + bundle.diagnostics().report_lines()
    (directory / "split_report.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")

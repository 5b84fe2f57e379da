"""Relation and entity foundation graphs.

Both graphs encode position-wise interaction patterns of a hyper-relational
KG rather than the identity of any particular relation or entity, which is
what makes models trained on them transfer to disjoint vocabularies.

The relation foundation graph has one node per relation id.  Its edges record
how two relations co-occur: via a shared anchor entity of their primary
triplets across distinct facts (head-to-head, head-to-tail, tail-to-head,
tail-to-tail), via the primary-relation/key pairing inside one fact
(relation-to-key and back), optionally via key-to-key pairs inside one fact,
and optionally via shared qualifier values across distinct facts
(head-to-value, tail-to-value, value-to-value and their reciprocals).

The entity foundation graph has one node per entity id and only intra-fact
edges: head-tail, head-value, tail-value and value-value pairs within a
single fact.  Cross-fact connectivity arises solely from entities shared by
several facts.

Every edge type has a reciprocal type and every built graph is closed under
reciprocity: for each edge (u, t, v) the edge (v, reciprocal(t), u) exists.
Edges are deduplicated; multiplicity is deliberately not modeled.

A built graph is its sorted int64 edge arrays (see :class:`FoundationGraph`)
plus a record per edge of the facts whose removal alone deletes it.  The
builders key each edge by its int type row, so no interaction type is
hashed per edge.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field, replace
from enum import Enum
from itertools import permutations
from typing import Mapping, Sequence

import numpy as np

from .autodiff import Segments
from .errors import ConfigError, ContractError
from .model import Hkg


class RelInteraction(Enum):
    """Edge types of the relation foundation graph."""

    H2H = "h2h_r"
    H2T = "h2t_r"
    T2H = "t2h_r"
    T2T = "t2t_r"
    R2K = "r2k_r"
    K2R = "k2r_r"
    K2K = "k2k_r"
    H2V = "h2v_r"
    V2H = "v2h_r"
    T2V = "t2v_r"
    V2T = "v2t_r"
    V2V = "v2v_r"


class EntInteraction(Enum):
    """Edge types of the entity foundation graph (all intra-fact)."""

    H2T = "h2t_e"
    T2H = "t2h_e"
    H2V = "h2v_e"
    V2H = "v2h_e"
    T2V = "t2v_e"
    V2T = "v2t_e"
    V2V = "v2v_e"


REL_RECIPROCAL: dict[RelInteraction, RelInteraction] = {
    RelInteraction.H2H: RelInteraction.H2H,
    RelInteraction.H2T: RelInteraction.T2H,
    RelInteraction.T2H: RelInteraction.H2T,
    RelInteraction.T2T: RelInteraction.T2T,
    RelInteraction.R2K: RelInteraction.K2R,
    RelInteraction.K2R: RelInteraction.R2K,
    RelInteraction.K2K: RelInteraction.K2K,
    RelInteraction.H2V: RelInteraction.V2H,
    RelInteraction.V2H: RelInteraction.H2V,
    RelInteraction.T2V: RelInteraction.V2T,
    RelInteraction.V2T: RelInteraction.T2V,
    RelInteraction.V2V: RelInteraction.V2V,
}

ENT_RECIPROCAL: dict[EntInteraction, EntInteraction] = {
    EntInteraction.H2T: EntInteraction.T2H,
    EntInteraction.T2H: EntInteraction.H2T,
    EntInteraction.H2V: EntInteraction.V2H,
    EntInteraction.V2H: EntInteraction.H2V,
    EntInteraction.T2V: EntInteraction.V2T,
    EntInteraction.V2T: EntInteraction.T2V,
    EntInteraction.V2V: EntInteraction.V2V,
}

PRIMARY_ANCHORED = frozenset({RelInteraction.H2H, RelInteraction.H2T,
                              RelInteraction.T2H, RelInteraction.T2T})
RELATION_KEY = frozenset({RelInteraction.R2K, RelInteraction.K2R})
SHARED_VALUE = frozenset({RelInteraction.H2V, RelInteraction.V2H,
                          RelInteraction.T2V, RelInteraction.V2T, RelInteraction.V2V})

DEFAULT_RELATION_SET = PRIMARY_ANCHORED | RELATION_KEY
ALL_RELATION_SET = frozenset(RelInteraction)
ALL_ENTITY_SET = frozenset(EntInteraction)
PRIMARY_TO_VALUE = frozenset({EntInteraction.H2V, EntInteraction.V2H,
                              EntInteraction.T2V, EntInteraction.V2T})


def _check_reciprocity_closed(types: frozenset, table: Mapping) -> None:
    for t in types:
        if table[t] not in types:
            raise ConfigError(
                f"interaction set not closed under reciprocity: {t.value} requires "
                f"{table[t].value}")


@dataclass(frozen=True)
class InteractionConfig:
    """The active interaction alphabets for both foundation graphs.

    Both sets must be closed under reciprocity.  Use :func:`preset` for the
    named ablation variants.
    """

    relation_set: frozenset[RelInteraction] = DEFAULT_RELATION_SET
    entity_set: frozenset[EntInteraction] = ALL_ENTITY_SET

    def __post_init__(self):
        _check_reciprocity_closed(self.relation_set, REL_RECIPROCAL)
        _check_reciprocity_closed(self.entity_set, ENT_RECIPROCAL)


PRESETS: dict[str, InteractionConfig] = {
    "default": InteractionConfig(),
    "nor2k": InteractionConfig(relation_set=DEFAULT_RELATION_SET - RELATION_KEY),
    "noprim": InteractionConfig(relation_set=DEFAULT_RELATION_SET - PRIMARY_ANCHORED),
    "addk2k": InteractionConfig(relation_set=DEFAULT_RELATION_SET | {RelInteraction.K2K}),
    "addsharev": InteractionConfig(relation_set=DEFAULT_RELATION_SET | SHARED_VALUE),
    "addallfi": InteractionConfig(relation_set=ALL_RELATION_SET),
    "nov2v": InteractionConfig(entity_set=ALL_ENTITY_SET - {EntInteraction.V2V}),
    "nop2v": InteractionConfig(entity_set=ALL_ENTITY_SET - PRIMARY_TO_VALUE),
    "nov": InteractionConfig(entity_set=frozenset({EntInteraction.H2T, EntInteraction.T2H})),
}

def preset(name: str) -> InteractionConfig:
    try:
        return PRESETS[name.lower()]
    except KeyError:
        raise ConfigError(f"unknown interaction preset {name!r}; "
                          f"expected one of {', '.join(PRESETS)}")


@dataclass(frozen=True)
class MessagePlan:
    """How one layer of message passing reads a graph's edges, for a batch
    of ``blocks`` queries stacked along the rows.

    A message depends only on its edge's source node and gate row, so each
    distinct (source, gate row) pair is one message: ``src`` and ``gate``
    plan the pairs' source nodes and gate rows.  The edges come in stable
    destination order: ``fan`` plans the pair each edge reads, and ``dst``
    the edges' destinations, already ascending.

    Every block shares these plans of the whole graph.  Block q owns node
    rows q·N to (q+1)·N - 1 and pair rows q·P to (q+1)·P - 1 of a graph of N
    nodes and P pairs, and reads the gate rows of a shared gate table, or of
    its own block of one when the gates are per query.  ``zeroed`` pairs the
    edges (positions in destination order) left out of a block with that
    block, by block then edge; their (edge, block) cells are zeroed in the
    sum at the destinations and in the one back to the pairs.
    """

    src: Segments
    gate: Segments
    fan: Segments
    dst: Segments
    blocks: int = 1
    zeroed: tuple[np.ndarray, np.ndarray] | None = None


@dataclass(frozen=True, eq=False)
class FoundationGraph:
    """A typed directed edge set over dense node ids, as int64 arrays: edge
    i runs from ``src[i]`` to ``dst[i]`` with type ``alphabet[type_row[i]]``.

    The rows are sorted by (src, type row, dst[, relation]), duplicate-free
    and closed under reciprocity; :attr:`edges` is their derived tuple view.
    ``relation``, when present, annotates each edge with the dense id of the
    relation that induced it (the gates of the relation-driven structure).
    ``edge_facts`` holds per edge the (at most two, -1 padded) facts whose
    removal alone deletes it, so leaving a fact out is a mask (:meth:`kept`):
    every query of a batch shares the one cached :meth:`message_plan`, and
    zeroes the cells of its own masked edges.
    """

    num_nodes: int
    alphabet: tuple[Enum, ...]
    src: np.ndarray
    type_row: np.ndarray
    dst: np.ndarray
    edge_facts: np.ndarray = field(repr=False)
    relation: np.ndarray | None = None
    _plans: dict = field(default_factory=dict, repr=False)

    @property
    def num_edges(self) -> int:
        return self.src.size

    @property
    def edges(self) -> list[tuple[int, Enum, int]]:
        """The (src, type, dst) edges in row order."""
        return list(zip(self.src.tolist(), [self.alphabet[t] for t in self.type_row.tolist()],
                        self.dst.tolist()))

    def edge_set(self) -> frozenset[tuple[int, Enum, int]]:
        return frozenset(self.edges)

    def kept(self, leave_out: int | Sequence[int]) -> np.ndarray:
        """Boolean mask of the edges left when fact ``leave_out`` is left
        out; an array of facts gives one row of the mask per fact."""
        return (self.edge_facts != np.asarray(leave_out)[..., None, None]).all(axis=-1)

    def message_plan(self, by_relation: bool,
                     leave_outs: Sequence[int | None] = (None,)) -> MessagePlan:
        """The :class:`MessagePlan` of one block per entry of ``leave_outs``:
        block q reads the edges left when fact ``leave_outs[q]`` is left out
        (None: every edge).  Gate rows are edge types, or the annotated
        relations when ``by_relation``.

        The plan of the whole graph is built once and cached, and is what a
        single block with no fact left out gets; the others share its
        :class:`Segments` and zero the cells of the edges that :meth:`kept`
        drops."""
        if by_relation not in self._plans:
            gate = self.relation if by_relation else self.type_row
            if gate is None:
                raise ContractError("graph was built without per-edge relation annotations")
            by_dst = np.argsort(self.dst, kind="stable")
            span = int(gate.max()) + 1 if gate.size else 1
            pairs, pair_of = np.unique(self.src * span + gate, return_inverse=True)
            self._plans[by_relation] = by_dst, MessagePlan(
                Segments(pairs // span), Segments(pairs % span),
                Segments(pair_of[by_dst]), Segments(self.dst[by_dst]))
        by_dst, plan = self._plans[by_relation]
        leave_outs = list(leave_outs)
        if leave_outs == [None]:
            return plan
        masked = [q for q, f in enumerate(leave_outs) if f is not None]
        zeroed = None
        if masked:
            block, edge = np.nonzero(~self.kept([leave_outs[q] for q in masked])[:, by_dst])
            zeroed = edge, np.asarray(masked, dtype=np.int64)[block]
        return replace(plan, blocks=len(leave_outs), zeroed=zeroed)


def _finish(num_nodes: int, alphabet: tuple[Enum, ...],
            records: dict[tuple, tuple[int, int]], annotated: bool) -> FoundationGraph:
    """Sort the edges, the keys of ``records``: (src, type row, dst[, relation]);
    ``alphabet`` lists the types by row, in declaration order."""
    ordered = sorted(records)
    cols = np.array(ordered, dtype=np.int64).reshape(-1, 3 + annotated).T.copy()
    facts = np.array([records[e] for e in ordered], dtype=np.int64).reshape(-1, 2)
    return FoundationGraph(num_nodes, alphabet, *cols[:3], facts,
                           cols[3] if annotated else None)


def _distinct_facts(entries: Sequence[tuple[int, int]]) -> dict[int, tuple[int, ...]]:
    """Node -> its first three distinct facts (the third means "or more")."""
    out: dict[int, tuple[int, ...]] = {}
    for f, n in entries:
        facts = out.get(n, ())
        if len(facts) < 3 and f not in facts:
            out[n] = facts + (f,)
    return out


def _cross_fact_pairs(a_entries: Sequence[tuple[int, int]],
                      b_entries: Sequence[tuple[int, int]],
                      type_row: int, records: dict) -> None:
    """Record (node_a, type_row, node_b) for entry pairs drawn from distinct facts.

    Entries are (fact_index, node_index) at one anchor.  The edge exists iff
    some pair (A, B) with A != B realises it.  Its record meets (intersects)
    the facts common to every such pair: the lone fact of a one-fact side,
    plus the other side's lone other fact; or both facts when both sides
    hold the same two.  A third fact on a side always yields a pair avoiding
    any candidate, so three facts per node decide every case.
    """
    a_facts = _distinct_facts(a_entries)
    b_facts = a_facts if b_entries is a_entries else _distinct_facts(b_entries)
    for na, fa in a_facts.items():
        for nb, fb in b_facts.items():
            if len(fa) == 1 or len(fb) == 1:
                one, other = (fa, fb) if len(fa) == 1 else (fb, fa)
                rest = [f for f in other if f != one[0]]
                if not rest:
                    continue  # both sides are the same single fact
                common = one + tuple(rest) if len(rest) == 1 else one
            else:
                common = fa if fa == fb and len(fa) == 2 else ()
            key = (na, type_row, nb)
            prev = records.get(key)
            if prev is None:
                records[key] = common
            elif prev:
                records[key] = tuple(f for f in prev if f in common)


_SHARED = (-1, -1)


def _induce(records: dict, key: tuple, own: tuple[int, int]) -> None:
    """Record that the fact whose record is ``own`` induces the intra-fact
    edge ``key``; an edge that a second fact induces keeps no record."""
    if records.setdefault(key, own) is not own:
        records[key] = _SHARED


def build_relation_graph(kg: Hkg, cfg: InteractionConfig | None = None) -> FoundationGraph:
    """Build the relation foundation graph of ``kg`` under ``cfg``.

    Nodes are all relations of the vocabulary.  Each edge records the facts
    whose removal alone deletes it (see :meth:`FoundationGraph.kept`).
    """
    cfg = cfg or InteractionConfig()
    row = {t: i for i, t in enumerate(x for x in RelInteraction if x in cfg.relation_set)}

    rel_of = [kg.relation_index[f.relation] for f in kg.facts]
    heads: dict[int, list[tuple[int, int]]] = defaultdict(list)
    tails: dict[int, list[tuple[int, int]]] = defaultdict(list)
    values: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for fi, f in enumerate(kg.facts):
        heads[kg.entity_index[f.head]].append((fi, rel_of[fi]))
        tails[kg.entity_index[f.tail]].append((fi, rel_of[fi]))
        for k, v in f.qualifiers:
            values[kg.entity_index[v]].append((fi, kg.relation_index[k]))

    cross: dict[tuple, tuple[int, ...]] = {}
    for e in set(heads) | set(tails) | set(values):
        h, t, v = heads.get(e, ()), tails.get(e, ()), values.get(e, ())
        for itype, a, b in ((RelInteraction.H2H, h, h), (RelInteraction.T2T, t, t),
                            (RelInteraction.H2T, h, t), (RelInteraction.H2V, h, v),
                            (RelInteraction.T2V, t, v), (RelInteraction.V2V, v, v)):
            if a and b and itype in row:
                _cross_fact_pairs(a, b, row[itype], cross)

    records = {e: (common + _SHARED)[:2] for e, common in cross.items()}
    r2k, k2k = row.get(RelInteraction.R2K), row.get(RelInteraction.K2K)
    for fi, f in enumerate(kg.facts):
        own, r = (fi, -1), rel_of[fi]
        keys = [kg.relation_index[k] for k, _ in f.qualifiers]
        if r2k is not None:
            for k in keys:
                _induce(records, (r, r2k, k), own)
        if k2k is not None:
            for ki, kj in permutations(keys, 2):
                _induce(records, (ki, k2k, kj), own)
    reciprocal = [row[REL_RECIPROCAL[t]] for t in row]
    for (s, t, d), rec in list(records.items()):
        records.setdefault((d, reciprocal[t], s), rec)
    return _finish(kg.num_relations, tuple(row), records, annotated=False)


def build_entity_graph(kg: Hkg, cfg: InteractionConfig | None = None,
                       with_fact_relations: bool = False) -> FoundationGraph:
    """Build the entity foundation graph of ``kg`` under ``cfg``.

    All edges are intra-fact, each put together with its reciprocal, and an
    edge records its fact when exactly one fact induces it.  When two
    positions of a fact hold the same entity the degenerate loop (e, t, e)
    is kept once.  With ``with_fact_relations`` each edge additionally
    carries the dense id of its governing relation (the primary relation for
    head/tail edges, the qualifier key on the source side for value edges);
    deduplication then distinguishes edges with different annotations.
    """
    cfg = cfg or InteractionConfig()
    row = {t: i for i, t in enumerate(x for x in EntInteraction if x in cfg.entity_set)}
    h2t, t2h, h2v, v2h, t2v, v2t, v2v = map(row.get, EntInteraction)  # None: inactive
    records: dict[tuple, tuple[int, int]] = {}

    def put(src: int, type_row: int | None, dst: int, rel: int) -> None:
        if type_row is not None:
            _induce(records, (src, type_row, dst, rel) if with_fact_relations
                    else (src, type_row, dst), own)

    for fi, f in enumerate(kg.facts):
        own = (fi, -1)
        h = kg.entity_index[f.head]
        t = kg.entity_index[f.tail]
        r = kg.relation_index[f.relation]
        vals = [(kg.relation_index[k], kg.entity_index[v]) for k, v in f.qualifiers]
        put(h, h2t, t, r)
        put(t, t2h, h, r)
        for k, v in vals:
            put(h, h2v, v, k)
            put(v, v2h, h, k)
            put(t, t2v, v, k)
            put(v, v2t, t, k)
        for (ki, vi), (_, vj) in permutations(vals, 2):
            put(vi, v2v, vj, ki)

    return _finish(kg.num_entities, tuple(row), records, annotated=with_fact_relations)


@dataclass
class GraphStats:
    num_nodes: int
    num_edges: int
    type_counts: dict[str, int]
    degree_histogram: dict[int, int]

    def lines(self) -> list[str]:
        out = [f"nodes: {self.num_nodes}", f"edges: {self.num_edges}"]
        for name, count in self.type_counts.items():
            out.append(f"  {name}: {count}")
        out.append("out-degree histogram:")
        for deg in sorted(self.degree_histogram):
            out.append(f"  degree {deg}: {self.degree_histogram[deg]} node(s)")
        return out


def graph_stats(g: FoundationGraph) -> GraphStats:
    """Exact per-type edge counts and the out-degree histogram of ``g``."""
    counts = np.bincount(g.type_row, minlength=len(g.alphabet)).tolist()
    hist = Counter(np.bincount(g.src, minlength=g.num_nodes).tolist())
    return GraphStats(g.num_nodes, g.num_edges,
                      {t.value: c for t, c in zip(g.alphabet, counts)}, dict(hist))


def export_edge_list(g: FoundationGraph, names: Sequence[str]) -> list[str]:
    """Edge list as ``src TAB type-name TAB dst`` lines, using node names."""
    return [f"{names[s]}\t{t.value}\t{names[d]}" for s, t, d in g.edges]

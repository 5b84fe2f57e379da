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
builders read the facts as int64 position arrays and pack each edge into one
int64 key, (src, type row, dst[, relation]), so deduplication, the fact
records and the final order are array sorts with no Python loop per edge.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .autodiff import MessagePlan, Segments
from .errors import ConfigError
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

    @property
    def relation_alphabet(self) -> tuple[RelInteraction, ...]:
        """The active types in declaration order: the graph's and encoder's type rows."""
        return tuple(t for t in RelInteraction if t in self.relation_set)

    @property
    def entity_alphabet(self) -> tuple[EntInteraction, ...]:
        """The active types in declaration order: the graph's and encoder's type rows."""
        return tuple(t for t in EntInteraction if t in self.entity_set)


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


@dataclass(frozen=True, eq=False)
class FoundationGraph:
    """A typed directed edge set over dense node ids, as int64 arrays: edge
    i runs from ``src[i]`` to ``dst[i]`` with type ``alphabet[type_row[i]]``.

    The rows are sorted by (src, type row, dst[, relation]), duplicate-free
    and closed under reciprocity; :attr:`edges` is their derived tuple view.
    ``relation``, when present, annotates each edge with the dense id of the
    relation that induced it; an annotated graph's messages are gated by
    relation states, any other's by type vectors.
    ``edge_facts`` holds per edge the (at most two) facts whose removal
    alone deletes it, ascending with -1 padding last, so leaving a fact out
    is a mask: every query of a batch shares the one cached
    :meth:`message_plan`, and zeroes the cells of its own masked edges, read
    off one index from each fact to the edges it drops, built from
    ``edge_facts`` on the first leave-out and kept with the graph.
    """

    num_nodes: int
    alphabet: tuple[Enum, ...]
    src: np.ndarray
    type_row: np.ndarray
    dst: np.ndarray
    edge_facts: np.ndarray = field(repr=False)
    relation: np.ndarray | None = None

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

    @cached_property
    def _plan(self) -> tuple[np.ndarray, MessagePlan]:
        gate = self.type_row if self.relation is None else self.relation
        by_dst = np.argsort(self.dst, kind="stable")
        span = int(gate.max()) + 1 if gate.size else 1
        pairs, pair_of = np.unique(self.src * span + gate, return_inverse=True)
        return by_dst, MessagePlan(Segments(pairs // span), Segments(pairs % span),
                                   Segments(pair_of[by_dst]), Segments(self.dst[by_dst]))

    @cached_property
    def _dropped(self) -> tuple[list[int], np.ndarray]:
        """(starts, positions): leaving fact f out drops the edges at
        destination-order positions ``positions[starts[f]:starts[f + 1]]``,
        ascending.  A fact past the last of ``starts`` drops nothing."""
        facts = self.edge_facts[self._plan[0]].ravel()  # edge-major, so positions ascend
        held = np.flatnonzero(facts >= 0)
        by_fact = np.argsort(facts[held], kind="stable")
        bounds = np.arange(int(facts.max()) + 2 if facts.size else 1)
        return (np.searchsorted(facts[held][by_fact], bounds).tolist(),
                held[by_fact] // 2)

    def message_plan(self, leave_outs: Sequence[int | None] = (None,)) -> MessagePlan:
        """The :class:`MessagePlan` of one block per entry of ``leave_outs``:
        block q reads the edges left when fact ``leave_outs[q]`` is left out
        (None: every edge).  Gate rows are the annotated relations when the
        graph has them, else the edge types.

        The plan of the whole graph is built once and cached, and is what a
        single block with no fact left out gets; the others share its
        :class:`Segments` and zero the cells of the edges their fact drops,
        read off a per-fact index built on the first leave-out."""
        plan = self._plan[1]
        leave_outs = list(leave_outs)
        if leave_outs == [None]:
            return plan
        masked = [q for q, f in enumerate(leave_outs) if f is not None]
        zeroed = None
        if masked:
            starts, positions = self._dropped
            last = len(starts) - 1
            spans = [positions[starts[min(f, last)]:starts[min(f + 1, last)]]
                     for f in (leave_outs[q] for q in masked)]
            zeroed = (np.concatenate(spans),
                      np.repeat(np.asarray(masked, dtype=np.int64), [s.size for s in spans]))
        return replace(plan, blocks=len(leave_outs), zeroed=zeroed)


def _firsts(a: np.ndarray) -> np.ndarray:
    """Mask of the entries of a sorted array that differ from the one before."""
    first = np.ones(a.size, dtype=bool)
    first[1:] = a[1:] != a[:-1]
    return first


def _matches(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every index pair (i, j) with a[i] == b[j] of two ascending arrays."""
    lo = np.searchsorted(b, a, "left")
    n = np.searchsorted(b, a, "right") - lo
    i = np.repeat(np.arange(a.size), n)
    return i, np.arange(i.size) - np.repeat(np.cumsum(n) - n - lo, n)


def _groups(anchor: np.ndarray, node: np.ndarray, fact: np.ndarray,
            num_nodes: int) -> tuple[np.ndarray, ...]:
    """Per distinct (anchor, node) of one side, ascending: the anchor, the
    node, its count of distinct facts and its two smallest facts (-1: none).
    ``fact`` ascends."""
    key = anchor * num_nodes + node
    order = np.argsort(key, kind="stable")
    key, fact = key[order], fact[order]
    distinct = _firsts(key) | _firsts(fact)
    key, fact = key[distinct], fact[distinct]
    start = np.flatnonzero(_firsts(key))
    count = np.diff(start, append=key.size)
    second = np.where(count > 1, fact[np.minimum(start + 1, key.size - 1)], -1)
    return (*np.divmod(key[start], num_nodes), count, fact[start], second)


def _cross_records(a: Sequence[np.ndarray], b: Sequence[np.ndarray]):
    """Per pair of groups at one anchor, given each side's (count, smallest,
    second smallest fact): whether some pair of distinct facts, one from each
    side, realises the edge, and the (at most two, -1 padded) facts that
    every such pair holds.  With U the union of both sides' facts, |U| = 1
    realises nothing, |U| = 2 holds U, and |U| >= 3 holds the fact of a
    one-fact side, or none.  A third fact on a side always yields a pair
    avoiding any candidate, so counts past three decide the same way."""
    (ca, a1, a2), (cb, b1, b2) = a, b
    common = (a1 == b1).astype(np.int64) + (a1 == b2) + (a2 == b1) + ((a2 == b2) & (a2 >= 0))
    size = np.where((ca < 3) & (cb < 3), ca + cb - common, 3)
    two = size == 2
    first = np.where(two, np.where(ca == 2, a1, np.where(cb == 2, b1, np.minimum(a1, b1))),
                     np.where(ca == 1, a1, np.where(cb == 1, b1, -1)))
    second = np.where(two & (ca < 2) & (cb < 2), np.maximum(a1, b1),
                      np.where(two, np.where(ca == 2, a2, b2), -1))
    return size > 1, first, second


def _reduce(keys: np.ndarray, num_facts: int,
            *records: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct edge ``keys``, ascending, each with the facts that all of
    its entries' records hold.  ``records`` give an entry's facts, one array
    per slot (-1: none); an intra-fact entry holds just its own fact.  A
    fact held by as many records as the edge has entries is common to all of
    them; each row lists the common facts ascending, -1 padded."""
    edges, inv, n = np.unique(keys, return_inverse=True, return_counts=True)
    edge, fact = np.tile(inv, len(records)), np.concatenate(records)
    held = fact >= 0
    # The unused inverse makes np.unique sort by argsort, as the message plans
    # do; its plain path's np.sort adds 256 KB of int64 kernel code on first use.
    cell, _, count = np.unique(edge[held] * num_facts + fact[held],
                               return_inverse=True, return_counts=True)
    edge, fact = np.divmod(cell[count == n[cell // num_facts]], num_facts)
    facts = np.full((edges.size, 2), -1, dtype=np.int64)
    facts[edge, 1 - _firsts(edge)] = fact
    return edges, facts


def _finish(num_nodes: int, alphabet: tuple[Enum, ...], reciprocal: Mapping,
            parts: list[tuple[np.ndarray, np.ndarray]], dims: tuple[int, ...]) -> FoundationGraph:
    """The graph of the reduced ``parts``, edges packed by ``dims`` as
    (src, type row, dst[, relation]), plus the reciprocal of every edge whose
    type is not its own reciprocal (the builders never make those types).
    Freed memory stays with the process, so each step frees what it no
    longer needs (``parts`` is emptied) before the graph's arrays are made."""
    keys = np.concatenate([np.empty(0, dtype=np.int64)] + [k for k, _ in parts])
    facts = np.concatenate([np.empty((0, 2), dtype=np.int64)] + [f for _, f in parts])
    parts.clear()
    src, row, dst, *rel = np.unravel_index(keys, dims)
    back_row = np.array([alphabet.index(reciprocal[t]) for t in alphabet], dtype=np.int64)
    back = np.flatnonzero(back_row[row] != row)
    mirror = np.ravel_multi_index((dst[back], back_row[row[back]], src[back],
                                   *(r[back] for r in rel)), dims)
    del src, row, dst, rel
    keys = np.concatenate([keys, mirror])
    facts = np.concatenate([facts, facts[back]])
    del mirror, back
    order = np.argsort(keys)
    keys = keys[order]
    facts = facts[order]
    del order
    cols = np.unravel_index(keys, dims)
    return FoundationGraph(num_nodes, alphabet, *cols[:3], facts,
                           cols[3] if len(cols) > 3 else None)


def build_relation_graph(kg: Hkg, cfg: InteractionConfig | None = None) -> FoundationGraph:
    """Build the relation foundation graph of ``kg`` under ``cfg``.

    Nodes are all relations of the vocabulary.  Each edge records the facts
    whose removal alone deletes it (see :class:`FoundationGraph`).
    """
    cfg = cfg or InteractionConfig()
    row = {t: i for i, t in enumerate(cfg.relation_alphabet)}
    n, nf = kg.num_relations, kg.num_facts
    dims = (n, len(row), n)
    head, rel, tail, qf, qk, qv = kg.positions()
    i, j = _matches(qf, qf)
    i, j = i[i != j], j[i != j]  # ordered pairs of two qualifiers of one fact
    entries = {  # intra-fact types: (src, dst, fact) per entry
        RelInteraction.R2K: (rel[qf], qk, qf),
        RelInteraction.K2K: (qk[i], qk[j], qf[i]),
    }
    parts = [_reduce(np.ravel_multi_index((src, row[t], dst), dims), nf, fact)
             for t, (src, dst, fact) in entries.items() if t in row]
    facts = np.arange(nf)
    groups = {"h": _groups(head, rel, facts, n), "t": _groups(tail, rel, facts, n),
              "v": _groups(qv, qk, qf, n)}
    for itype, a, b in ((RelInteraction.H2H, "h", "h"), (RelInteraction.T2T, "t", "t"),
                        (RelInteraction.H2T, "h", "t"), (RelInteraction.H2V, "h", "v"),
                        (RelInteraction.T2V, "t", "v"), (RelInteraction.V2V, "v", "v")):
        if itype in row:  # cross-fact types, one at a time
            (ea, na, *ga), (eb, nb, *gb) = groups[a], groups[b]
            i, j = _matches(ea, eb)
            real, first, second = _cross_records([x[i] for x in ga], [x[j] for x in gb])
            i, j = i[real], j[real]
            parts.append(_reduce(np.ravel_multi_index((na[i], row[itype], nb[j]), dims),
                                 nf, first[real], second[real]))
    return _finish(n, tuple(row), REL_RECIPROCAL, parts, dims)


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
    row = {t: i for i, t in enumerate(cfg.entity_alphabet)}
    n = kg.num_entities
    dims = (n, len(row), n) + ((kg.num_relations,) if with_fact_relations else ())
    head, rel, tail, qf, qk, qv = kg.positions()
    i, j = _matches(qf, qf)
    i, j = i[i != j], j[i != j]  # ordered pairs of two qualifiers of one fact
    entries = {  # (src, dst, relation, fact) per entry
        EntInteraction.H2T: (head, tail, rel, np.arange(kg.num_facts)),
        EntInteraction.H2V: (head[qf], qv, qk, qf),
        EntInteraction.T2V: (tail[qf], qv, qk, qf),
        EntInteraction.V2V: (qv[i], qv[j], qk[i], qf[i]),
    }
    parts = [_reduce(np.ravel_multi_index((src, row[t], dst, r)[:len(dims)], dims),
                     kg.num_facts, fact)
             for t, (src, dst, r, fact) in entries.items() if t in row]
    return _finish(n, tuple(row), ENT_RECIPROCAL, parts, dims)


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

"""Core domain types for hyper-relational knowledge graphs.

A fact is a primary triplet (head, relation, tail) plus an ordered list of
qualifier pairs (key, value).  Keys are relation ids, values are entity ids.
Qualifier order is preserved exactly as ingested because downstream sequence
positions depend on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .errors import ContractError


class RoleKind(Enum):
    HEAD = "head"
    PRIMARY_RELATION = "relation"
    TAIL = "tail"
    KEY = "key"
    VALUE = "value"


@dataclass(frozen=True)
class Role:
    """A semantic position inside one fact.

    KEY and VALUE carry the zero-based index of the qualifier they refer to;
    the other kinds take no index.
    """

    kind: RoleKind
    index: int | None = None

    def __post_init__(self):
        if self.kind in (RoleKind.KEY, RoleKind.VALUE):
            if self.index is None or self.index < 0:
                raise ContractError(f"{self.kind.value} role requires a qualifier index >= 0")
        elif self.index is not None:
            raise ContractError(f"{self.kind.value} role takes no qualifier index")

    @property
    def is_entity(self) -> bool:
        return self.kind in (RoleKind.HEAD, RoleKind.TAIL, RoleKind.VALUE)

    def __repr__(self):
        if self.index is None:
            return self.kind.value
        return f"{self.kind.value}({self.index})"


HEAD = Role(RoleKind.HEAD)
PRIMARY_RELATION = Role(RoleKind.PRIMARY_RELATION)
TAIL = Role(RoleKind.TAIL)


def key_role(i: int) -> Role:
    return Role(RoleKind.KEY, i)


def value_role(i: int) -> Role:
    return Role(RoleKind.VALUE, i)


@dataclass(frozen=True)
class HyperFact:
    """One hyper-relational fact. ``qualifiers`` is an ordered tuple of (key, value)."""

    head: str
    relation: str
    tail: str
    qualifiers: tuple[tuple[str, str], ...] = ()

    @property
    def arity(self) -> int:
        """Number of qualifier pairs."""
        return len(self.qualifiers)

    def entities(self) -> tuple[str, ...]:
        return (self.head, self.tail) + tuple(v for _, v in self.qualifiers)

    def relations(self) -> tuple[str, ...]:
        return (self.relation,) + tuple(k for k, _ in self.qualifiers)

    def entity_at(self, role: Role) -> str:
        if role.kind is RoleKind.HEAD:
            return self.head
        if role.kind is RoleKind.TAIL:
            return self.tail
        if role.kind is RoleKind.VALUE:
            if role.index >= self.arity:
                raise ContractError(f"{role!r} out of range for arity {self.arity}")
            return self.qualifiers[role.index][1]
        raise ContractError(f"{role!r} is not an entity position")

class Hkg:
    """An immutable hyper-relational KG: its facts and dense vocabulary id maps.

    Vocabularies default to first-seen order over the fact list, which makes
    construction deterministic and file round-trips stable.  Explicit
    vocabularies may be supplied instead: each must name every id the facts
    use, each once, or construction raises :class:`ContractError`.
    """

    __slots__ = ("facts", "entities", "relations", "entity_index", "relation_index",
                 "_positions")

    def __init__(self, facts: Iterable[HyperFact],
                 entities: Sequence[str] | None = None,
                 relations: Sequence[str] | None = None):
        self.facts: tuple[HyperFact, ...] = tuple(facts)
        seen_e, seen_r = _first_seen_vocab(self.facts)
        self.entities: tuple[str, ...] = tuple(seen_e if entities is None else entities)
        self.relations: tuple[str, ...] = tuple(seen_r if relations is None else relations)
        self.entity_index = _index("entity", self.entities, () if entities is None else seen_e)
        self.relation_index = _index("relation", self.relations,
                                     () if relations is None else seen_r)
        self._positions: tuple[np.ndarray, ...] | None = None

    def positions(self) -> tuple[np.ndarray, ...]:
        """Head, relation and tail id per fact, then fact, key and value id per
        qualifier in fact order, as read-only int64 arrays made on first use."""
        if self._positions is None:
            e, r, facts = self.entity_index, self.relation_index, self.facts
            quals = [kv for f in facts for kv in f.qualifiers]
            prim = np.array([[e[f.head] for f in facts], [r[f.relation] for f in facts],
                             [e[f.tail] for f in facts]], dtype=np.int64).reshape(3, -1)
            qual = np.array([[r[k] for k, _ in quals], [e[v] for _, v in quals]],
                            dtype=np.int64).reshape(2, -1)
            fact = np.repeat(np.arange(len(facts)), [len(f.qualifiers) for f in facts])
            self._positions = (*prim, fact, *qual)
            for a in self._positions:
                a.flags.writeable = False
        return self._positions

    @property
    def max_arity(self) -> int:
        """The most qualifiers any fact has."""
        fact = self.positions()[3]
        return int(np.bincount(fact).max()) if fact.size else 0

    @property
    def num_entities(self) -> int:
        return len(self.entities)

    @property
    def num_relations(self) -> int:
        return len(self.relations)

    @property
    def num_facts(self) -> int:
        return len(self.facts)

    def __eq__(self, other):
        if not isinstance(other, Hkg):
            return NotImplemented
        return (self.facts == other.facts and self.entities == other.entities
                and self.relations == other.relations)

    def __hash__(self):
        return hash((self.facts, self.entities, self.relations))

    def __repr__(self):
        return (f"Hkg({self.num_facts} facts, {self.num_entities} entities, "
                f"{self.num_relations} relations)")


def _index(kind: str, names: tuple[str, ...], used: Iterable[str]) -> dict[str, int]:
    """Each name's dense id.  A repeated name would leave an id no name maps
    to, and a ``used`` name the vocabulary lacks would fail later, inside the
    graph builders."""
    index = {name: i for i, name in enumerate(names)}
    if len(index) < len(names):
        name = next(name for i, name in enumerate(names) if index[name] != i)
        raise ContractError(f"{kind} {name!r} appears twice in the vocabulary")
    for name in used:
        if name not in index:
            raise ContractError(f"{kind} {name!r} of a fact is missing from the vocabulary")
    return index


def _first_seen_vocab(facts: Sequence[HyperFact]) -> tuple[list[str], list[str]]:
    ents: dict[str, None] = {}
    rels: dict[str, None] = {}
    for f in facts:
        ents.setdefault(f.head)
        rels.setdefault(f.relation)
        ents.setdefault(f.tail)
        for k, v in f.qualifiers:
            rels.setdefault(k)
            ents.setdefault(v)
    return list(ents), list(rels)


@dataclass(frozen=True)
class QueryFact:
    """A fact with exactly one entity position masked.

    The masked slot's entity in ``base`` is a placeholder and is never read;
    ``answer`` carries the ground truth when known (training/evaluation) and
    is ``None`` for ad-hoc prediction.
    """

    base: HyperFact
    masked: Role
    answer: str | None = None

    def __post_init__(self):
        if not self.masked.is_entity:
            raise ContractError(f"cannot mask {self.masked!r}: not an entity position")
        if self.masked.kind is RoleKind.VALUE and self.masked.index >= self.base.arity:
            raise ContractError(
                f"masked {self.masked!r} out of range for arity {self.base.arity}")
        if self.answer is not None and self.base.entity_at(self.masked) != self.answer:
            raise ContractError(
                f"answer {self.answer!r} disagrees with entity at {self.masked!r}")

    @classmethod
    def from_fact(cls, fact: HyperFact, masked: Role) -> "QueryFact":
        """Mask ``masked`` in a complete fact; the answer is read off the fact."""
        return cls(fact, masked, fact.entity_at(masked))

    @property
    def is_head_or_tail(self) -> bool:
        return self.masked.kind in (RoleKind.HEAD, RoleKind.TAIL)


def queries_from_facts(facts: Iterable[HyperFact]) -> list[QueryFact]:
    """One query per entity position of every fact.

    Order is deterministic: fact order, then Head, Tail, Value(0..n-1), so a
    fact with n qualifiers contributes exactly 2 + n queries.
    """
    out: list[QueryFact] = []
    for f in facts:
        out.append(QueryFact.from_fact(f, HEAD))
        out.append(QueryFact.from_fact(f, TAIL))
        for i in range(f.arity):
            out.append(QueryFact.from_fact(f, value_role(i)))
    return out

"""Ranking evaluation: filtered mean reciprocal rank and hits@K.

Ranks use the mean-tie convention: the answer's rank is one plus the number
of strictly better competitors plus half the number of equal-scoring ones.
Filtered mode removes from the competitor set every entity that would
complete the query to a fact already known to be true, so a model is not
punished for preferring a different correct answer.

Metrics are reported twice: over head/tail queries only ("H/T") and over
all query positions including qualifier values ("ALL").  Both breakdowns
come from the same ranked lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Protocol, Sequence

import numpy as np

from .autodiff import _keep_heap_mapped
from .errors import ContractError, NumericalError, VocabularyError
from .model import Hkg, HyperFact, QueryFact, RoleKind

HITS_KS = (1, 3, 10)


# Queries scored per model call.  A chunk's entity graphs are encoded as one
# stacked batch, whose memory grows with the chunk: 4 keeps the scoring
# process's peak within a few MB of encoding one query at a time.
CHUNK = 4


class ScoringModel(Protocol):
    """What :func:`evaluate` needs of a model.

    ``prepare`` returns the context of one graph, and ``batch_scores`` the
    (len(queries), |E|) scores of a chunk of at most :data:`CHUNK` (4)
    queries, one row per query.  :class:`~hyrel.predictor.LinkPredictor`
    encodes a chunk's entity graphs as one block-stacked batch and decodes
    the chunk as one sequence.
    """

    def prepare(self, kg: Hkg): ...

    def batch_scores(self, ctx, queries: Sequence[QueryFact]) -> np.ndarray: ...


def require_finite(scores: np.ndarray) -> None:
    """Raise :class:`NumericalError` when any score is NaN or infinite."""
    finite = np.isfinite(scores)
    if not finite.all():
        raise NumericalError(f"{finite.size - int(finite.sum())} of {finite.size} "
                             "scores are NaN or infinite")


def rank_of(scores: np.ndarray, answer: int, filter_out: Iterable[int] = ()) -> float:
    """Mean-tie rank of ``answer`` among the non-filtered candidates.

    Raises :class:`NumericalError` when any score is NaN or infinite: NaN
    compares false both ways, so a diverged model would otherwise rank first.
    """
    scores = np.asarray(scores).reshape(-1)
    require_finite(scores)
    filtered = set(filter_out)
    if answer in filtered:
        raise ContractError("the answer itself may not be filtered out")
    if not 0 <= answer < scores.size:
        raise ContractError(f"answer index {answer} out of range for {scores.size} scores")
    mask = np.ones(scores.size, dtype=bool)
    if filtered:
        mask[list(filtered)] = False
    mask[answer] = False
    competitors = scores[mask]
    target = scores[answer]
    better = int((competitors > target).sum())
    ties = int((competitors == target).sum())
    return 1.0 + better + ties / 2.0


@dataclass
class Metrics:
    """MRR and hits@K with the head/tail vs all-positions breakdown."""

    mrr_ht: float
    mrr_all: float
    hits_ht: dict[int, float]
    hits_all: dict[int, float]
    count_ht: int
    count_all: int

    def table(self) -> str:
        ks = sorted(self.hits_all)
        header = f"{'metric':<10}{'H/T':>12}{'ALL':>12}"
        rows = [header, "-" * len(header),
                f"{'queries':<10}{self.count_ht:>12}{self.count_all:>12}",
                f"{'mrr':<10}{self.mrr_ht:>12.4f}{self.mrr_all:>12.4f}"]
        for k in ks:
            rows.append(f"{f'hits@{k}':<10}{self.hits_ht[k]:>12.4f}{self.hits_all[k]:>12.4f}")
        return "\n".join(rows)

    def tsv_lines(self) -> list[str]:
        lines = [f"mrr\tH/T\t{self.mrr_ht:.6f}", f"mrr\tALL\t{self.mrr_all:.6f}"]
        for k in sorted(self.hits_ht):
            lines.append(f"hits@{k}\tH/T\t{self.hits_ht[k]:.6f}")
        for k in sorted(self.hits_all):
            lines.append(f"hits@{k}\tALL\t{self.hits_all[k]:.6f}")
        lines.append(f"queries\tH/T\t{self.count_ht}")
        lines.append(f"queries\tALL\t{self.count_all}")
        return lines


def _aggregate(ranks: Sequence[float], ht_flags: Sequence[bool]) -> Metrics:
    ranks = np.asarray(ranks, dtype=np.float64)
    ht = np.asarray(ht_flags, dtype=bool)

    def summarize(sel: np.ndarray) -> tuple[float, dict[int, float], int]:
        if sel.size == 0:
            return 0.0, {k: 0.0 for k in HITS_KS}, 0
        mrr = float((1.0 / sel).mean())
        hits = {k: float((sel <= k).mean()) for k in HITS_KS}
        return mrr, hits, int(sel.size)

    mrr_ht, hits_ht, n_ht = summarize(ranks[ht])
    mrr_all, hits_all, n_all = summarize(ranks)
    return Metrics(mrr_ht, mrr_all, hits_ht, hits_all, n_ht, n_all)


def completion_index(known_facts: Iterable[HyperFact]) -> dict:
    """Map each fact with one entity slot blanked to the entities filling it.

    A key is the fact's plain (head, relation, tail, qualifiers) tuple with
    the blanked entity set to None, as :func:`filter_set` builds it.
    """
    index: dict[tuple, set[str]] = {}
    for fact in known_facts:
        head, relation, tail, quals = fact.head, fact.relation, fact.tail, fact.qualifiers
        index.setdefault((None, relation, tail, quals), set()).add(head)
        index.setdefault((head, relation, None, quals), set()).add(tail)
        for i, (key, value) in enumerate(quals):
            blanked = quals[:i] + ((key, None),) + quals[i + 1:]
            index.setdefault((head, relation, tail, blanked), set()).add(value)
    return index


def filter_set(query: QueryFact, kg: Hkg, index: dict) -> set[int]:
    """Dense ids of the known alternative answers for ``query`` (answer excluded)."""
    fact, role = query.base, query.masked
    head, tail, quals = fact.head, fact.tail, fact.qualifiers
    if role.kind is RoleKind.HEAD:
        head = None
    elif role.kind is RoleKind.TAIL:
        tail = None
    else:
        quals = quals[:role.index] + ((quals[role.index][0], None),) + quals[role.index + 1:]
    others = index.get((head, fact.relation, tail, quals), set()) - {query.answer}
    return {kg.entity_index[e] for e in others if e in kg.entity_index}


def bundle_known_facts(bundle) -> list[HyperFact]:
    """The standard filter population: inference plus valid plus test facts."""
    return list(bundle.inference.facts) + list(bundle.valid) + list(bundle.test)


def evaluate_bundle(model: ScoringModel, bundle, split: str = "test",
                    filtered: bool = True) -> Metrics:
    """Evaluate one split of a bundle under the standard protocol."""
    from .model import queries_from_facts
    facts = bundle.valid if split == "valid" else bundle.test
    return evaluate(model, bundle.inference, queries_from_facts(facts),
                    bundle_known_facts(bundle), filtered=filtered)


def evaluate(model: ScoringModel, kg_inf: Hkg, queries: Sequence[QueryFact],
             known_facts: Iterable[HyperFact] = (), filtered: bool = True,
             index: dict | None = None) -> Metrics:
    """Score every query against all entities of ``kg_inf`` and aggregate.

    The queries are scored in chunks of :data:`CHUNK` (4), each from one
    ``model.batch_scores`` matrix; a matrix of any shape other than
    (chunk size, ``kg_inf.num_entities``) is a :class:`ContractError`.  A
    :class:`~hyrel.predictor.LinkPredictor` encodes and decodes each chunk
    as one batch.
    ``known_facts`` feeds the filter; pass the union of the inference, valid
    and test facts for the standard protocol, or their
    :func:`completion_index` as ``index`` when it is already built.  Queries
    must carry answers.  It first fixes glibc's heap thresholds for the whole
    process, so that each chunk's freed memory stays mapped for the next.
    """
    _keep_heap_mapped()
    queries = list(queries)
    for q in queries:
        if q.answer is None:
            raise ContractError("evaluation queries must carry their answer")
    ctx = model.prepare(kg_inf)
    if not filtered:
        index = {}
    elif index is None:
        index = completion_index(known_facts)

    ranks = []
    for start in range(0, len(queries), CHUNK):
        chunk = queries[start:start + CHUNK]
        scores = model.batch_scores(ctx, chunk)
        expected = (len(chunk), kg_inf.num_entities)
        if np.shape(scores) != expected:
            raise ContractError(f"batch_scores returned shape {np.shape(scores)}, "
                                f"expected {expected}")
        for query, row in zip(chunk, scores):
            answer_idx = kg_inf.entity_index.get(query.answer)
            if answer_idx is None:
                raise VocabularyError(f"answer {query.answer!r} not in the graph vocabulary")
            out = filter_set(query, kg_inf, index) if filtered else set()
            ranks.append(rank_of(row, answer_idx, out))
    return _aggregate(ranks, [q.is_head_or_tail for q in queries])

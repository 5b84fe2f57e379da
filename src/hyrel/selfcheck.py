"""Built-in verification suites behind the ``selfcheck`` subcommand.

Five suites: finite-difference gradient checks over a small 64-bit model
of each structure, foundation-graph equivalence against the brute-force
reference enumerators, scores with a fact left out against scores over
graphs rebuilt without it, permutation equivariance of the end-to-end
scores, and the rows of a scored chunk against each query scored alone,
which holds bit for bit only if the installed BLAS keeps every query's
products apart.  All of them also run (more thoroughly) in the test suite; this
entry point exists so an installed build can be verified without a test
harness.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import autodiff as ad
from .evaluation import CHUNK, rank_of
from .foundation import PRESETS, build_entity_graph, build_relation_graph
from .model import Hkg, queries_from_facts
from .predictor import STRUCTURES, LinkPredictor, ModelConfig
from .reference import (brute_force_entity_edges, brute_force_relation_edges,
                        permute_hkg, random_hkg, relabel_fact)
from .training import query_losses


def gradient_report(structure: str, seed: int = 0, part: int = 0,
                    parts: int = 1) -> ad.GradientReport:
    """Finite-difference check of a small 64-bit model (model seed ``seed``)
    on a 3-fact graph: every query on one tape, each without its own fact,
    as a training step makes it.  Of the tensors in name order it checks
    ``part``, ``part + parts``, ... (every one by default)."""
    rng = np.random.default_rng(7)
    kg = random_hkg(rng, max_facts=3, min_facts=3, max_qualifiers=2)
    batch = [(f, query) for f, fact in enumerate(kg.facts)
             for query in queries_from_facts([fact])]
    cfg = ModelConfig(width=8, encoder_depth=2, head_count=2, decoder_depth=1,
                      structure=structure)
    predictor = LinkPredictor.build(cfg, seed=seed, dtype=np.float64)
    # Rows with a zero state sit exactly on the relu kink for every update
    # bias entry; nudging the update biases moves them off it.
    for name, value in predictor.store.items():
        if name.endswith("update_b"):
            value.data[:] = 0.01
    graphs = predictor.prepare(kg)

    def loss():
        return ad.total_sum(query_losses(predictor, graphs, [q for _, q in batch],
                                         [f for f, _ in batch]))

    params = dict(predictor.store.items())
    params = {name: params[name] for name in sorted(params)[part::parts]}
    return ad.check_gradients(loss, params, h=1e-4)


def _gradient_suite(log: Callable[[str], None], quick: bool, structure: str) -> bool:
    report = gradient_report(structure, parts=3 if quick else 1)
    worst = max(report.values()) if report else 0.0
    ok = worst <= 1e-3
    log(f"{'ok' if ok else 'FAIL'} - gradients vs finite differences "
        f"({structure}, max rel err {worst:.2e} over {len(report)} tensors, "
        f"{report.skipped} of {report.entries} entries skipped at a relu kink)")
    return ok


def _foundation_suite(log: Callable[[str], None], quick: bool) -> bool:
    rng = np.random.default_rng(11)
    cases = 20 if quick else 100
    # Graphs over three entities and relations put three or more facts at
    # one anchor, the case that decides most cross-fact records.
    dense = 3 if quick else 10
    graphs = [random_hkg(rng) for _ in range(cases)] + [
        random_hkg(rng, max_facts=24, num_entities=3, num_relations=3) for _ in range(dense)]
    failures = 0
    for kg in graphs:
        for cfg in PRESETS.values():
            built = build_relation_graph(kg, cfg).edge_set()
            if built != brute_force_relation_edges(kg, cfg):
                failures += 1
            built = build_entity_graph(kg, cfg).edge_set()
            if built != brute_force_entity_edges(kg, cfg):
                failures += 1
            g = build_entity_graph(kg, cfg, with_fact_relations=True)
            built = {e + (r,) for e, r in zip(g.edges, g.relation.tolist())}
            if built != brute_force_entity_edges(kg, cfg, with_fact_relations=True):
                failures += 1
    ok = failures == 0
    log(f"{'ok' if ok else 'FAIL'} - foundation graphs vs brute-force rules "
        f"({cases} + {dense} dense graphs x {len(PRESETS)} presets, {failures} mismatches)")
    return ok


def _leave_out_suite(log: Callable[[str], None], quick: bool) -> bool:
    # The leakage guard zeroes the left-out fact's edges in one graph build;
    # that must score exactly as graphs rebuilt without the fact.
    rng = np.random.default_rng(17)
    cases = 3 if quick else 10
    checked = mismatches = 0
    for structure in STRUCTURES:
        cfg = ModelConfig(width=8, encoder_depth=2, head_count=2, decoder_depth=1,
                          interactions="addAllFI", structure=structure)
        predictor = LinkPredictor.build(cfg, seed=4)
        for _ in range(cases):
            kg = random_hkg(rng)
            graphs = predictor.prepare(kg)
            for f, fact in enumerate(kg.facts):
                rest = Hkg(kg.facts[:f] + kg.facts[f + 1:], kg.entities, kg.relations)
                rebuilt = predictor.prepare(rest)
                for query in queries_from_facts([fact]):
                    masked = predictor.query_logits(graphs, [query], [f]).data
                    oracle = predictor.query_logits(rebuilt, [query]).data
                    checked += 1
                    mismatches += masked.tobytes() != oracle.tobytes()
    ok = mismatches == 0
    log(f"{'ok' if ok else 'FAIL'} - leaving a fact out vs rebuilding without it "
        f"({checked} queries over {len(STRUCTURES)} structures, {mismatches} not bit-equal)")
    return ok


def _equivariance_suite(log: Callable[[str], None], quick: bool) -> bool:
    rng = np.random.default_rng(13)
    cases = 3 if quick else 8
    cfg = ModelConfig(width=16, encoder_depth=2, head_count=2, decoder_depth=1)
    predictor = LinkPredictor.build(cfg, seed=5)
    worst = 0.0
    rank_mismatch = 0
    for _ in range(cases):
        kg = random_hkg(rng, max_facts=6, min_facts=2)
        queries = queries_from_facts(kg.facts)
        query = queries[int(rng.integers(len(queries)))]
        scores = predictor.entity_scores(predictor.prepare(kg), query)
        pkg, phi, tau = permute_hkg(kg, rng)
        pquery = [q for q in queries_from_facts(pkg.facts)
                  if q.base == relabel_fact(query.base, phi, tau) and q.masked == query.masked]
        pscores = predictor.entity_scores(predictor.prepare(pkg), pquery[0])
        for name, idx in kg.entity_index.items():
            drift = abs(scores[idx] - pscores[pkg.entity_index[phi[name]]])
            worst = max(worst, float(drift))
        a = rank_of(scores, kg.entity_index[query.answer])
        b = rank_of(pscores, pkg.entity_index[phi[query.answer]])
        if a != b:
            rank_mismatch += 1
    ok = worst <= 1e-4 and rank_mismatch == 0
    log(f"{'ok' if ok else 'FAIL'} - score equivariance under relabeling "
        f"({cases} cases, max drift {worst:.2e}, {rank_mismatch} rank changes)")
    return ok


def _batch_invariance_suite(log: Callable[[str], None], quick: bool) -> bool:
    # Each query is decoded in its own padded block, so a chunk's row must be
    # the bits the query scores alone, as ``hyrel predict`` scores it.  A
    # one-relation graph makes a lone query's relation states one row, a
    # product that BLAS may sum in another order than a chunk's.
    rng = np.random.default_rng(19)
    cases = 2 if quick else 8
    checked = mismatches = 0
    for structure in STRUCTURES:
        predictor = LinkPredictor.build(ModelConfig(structure=structure), seed=6)
        for relations in [5] * cases + [1] * (cases // 2):
            kg = random_hkg(rng, max_facts=8, min_facts=4, num_relations=relations)
            graphs = predictor.prepare(kg)
            queries = queries_from_facts(kg.facts)
            for start in range(0, len(queries), CHUNK):
                chunk = queries[start:start + CHUNK]
                for query, row in zip(chunk, predictor.batch_scores(graphs, chunk)):
                    checked += 1
                    mismatches += row.tobytes() != predictor.entity_scores(graphs, query).tobytes()
    ok = mismatches == 0
    log(f"{'ok' if ok else 'FAIL'} - chunk rows vs each query scored alone "
        f"({checked} queries over {len(STRUCTURES)} structures, {mismatches} not bit-equal)")
    return ok


def run_selfcheck(quick: bool = False, log: Callable[[str], None] = print) -> bool:
    results = [
        _foundation_suite(log, quick),
        *(_gradient_suite(log, quick, structure) for structure in STRUCTURES),
        _leave_out_suite(log, quick),
        _equivariance_suite(log, quick),
        _batch_invariance_suite(log, quick),
    ]
    ok = all(results)
    log(f"selfcheck: {'all suites passed' if ok else 'FAILURES detected'}")
    return ok

import numpy as np
import pytest

from hyrel import ContractError, HEAD, TAIL, Hkg, HyperFact, NumericalError, QueryFact
from hyrel.evaluation import (Metrics, completion_index, evaluate, filter_set,
                              rank_of)
from hyrel.model import queries_from_facts, value_role
from hyrel.reference import random_hkg, uniform_model_mrr


class UniformModel:
    def prepare(self, kg):
        return kg

    def batch_scores(self, kg, queries):
        return np.full((len(queries), kg.num_entities), 1.0 / kg.num_entities)


class OracleModel:
    def prepare(self, kg):
        return kg

    def batch_scores(self, kg, queries):
        scores = np.zeros((len(queries), kg.num_entities))
        for row, query in zip(scores, queries):
            row[kg.entity_index[query.answer]] = 1.0
        return scores


def test_rank_hand_fixtures():
    assert rank_of(np.array([0.5, 0.3, 0.2]), 1) == 2.0
    assert 1.0 / rank_of(np.array([0.5, 0.3, 0.2]), 1) == 0.5
    assert rank_of(np.array([0.4, 0.4, 0.2]), 0) == 1.5
    assert rank_of(np.array([0.9, 0.05, 0.05]), 0, {1}) == 1.0


def test_rank_top_answer_is_one_regardless_of_filter():
    scores = np.array([0.1, 0.7, 0.2])
    assert rank_of(scores, 1) == 1.0
    assert rank_of(scores, 1, {0}) == 1.0


def test_rank_rejects_filtered_answer():
    with pytest.raises(ContractError):
        rank_of(np.array([0.5, 0.5]), 0, {0})


def test_rank_rejects_out_of_range_answer():
    with pytest.raises(ContractError):
        rank_of(np.array([0.5, 0.5]), 5)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_rank_rejects_non_finite_scores(bad, small_kg):
    scores = np.full(10, 0.1)
    scores[7] = bad
    with pytest.raises(NumericalError):
        rank_of(scores, 3)
    with pytest.raises(NumericalError):
        rank_of(np.full(10, bad), 3)

    class DivergedModel(UniformModel):
        def batch_scores(self, kg, queries):
            return np.full((len(queries), kg.num_entities), bad)

    with pytest.raises(NumericalError):
        evaluate(DivergedModel(), small_kg, queries_from_facts(small_kg.facts),
                 small_kg.facts)


def test_filtering_removes_known_completions():
    facts = [HyperFact("a", "r", "b"), HyperFact("a", "r", "c")]
    kg = Hkg(facts)
    index = completion_index(facts)
    query = QueryFact.from_fact(facts[0], TAIL)  # (a, r, MASK), answer b
    out = filter_set(query, kg, index)
    assert out == {kg.entity_index["c"]}

    # With c filtered, b competes only against a.
    scores = np.zeros(kg.num_entities)
    scores[kg.entity_index["c"]] = 0.9
    scores[kg.entity_index["b"]] = 0.5
    scores[kg.entity_index["a"]] = 0.1
    assert rank_of(scores, kg.entity_index["b"], out) == 1.0
    assert rank_of(scores, kg.entity_index["b"]) == 2.0


def test_filter_sets_equal_a_scan_of_the_known_facts():
    # Each random graph also holds, for every fact with qualifiers, two
    # copies with another head: one with the qualifiers reversed, one with
    # the first qualifier key changed.  An index key that dropped qualifier
    # order or keys would filter that head out of the fact's head query.
    for seed in range(40):
        rng = np.random.default_rng(seed)
        facts = list(random_hkg(rng, max_facts=10, min_facts=3, num_entities=4,
                                num_relations=3).facts)
        for f in list(facts):
            if f.arity:
                key, value = f.qualifiers[0]
                for quals in (f.qualifiers[::-1], ((key + "x", value),) + f.qualifiers[1:]):
                    facts.append(HyperFact(f.head + "x", f.relation, f.tail, quals))
        kg = Hkg(facts)
        index = completion_index(facts)
        for query in queries_from_facts(facts):
            # A fact completes the query when it differs from its base at
            # the masked slot only.
            def unmasked(fact):
                roles = [HEAD, TAIL, *map(value_role, range(fact.arity))]
                return [fact.entity_at(role) for role in roles if role != query.masked]

            scan = {kg.entity_index[fact.entity_at(query.masked)] for fact in facts
                    if fact.relations() == query.base.relations()
                    and fact.entity_at(query.masked) != query.answer
                    and unmasked(fact) == unmasked(query.base)}
            assert filter_set(query, kg, index) == scan, (seed, query)


def test_filtered_rr_never_lower_than_raw(rng):
    for _ in range(200):
        n = int(rng.integers(2, 30))
        scores = rng.normal(size=n)
        answer = int(rng.integers(n))
        candidates = [i for i in range(n) if i != answer]
        rng.shuffle(candidates)
        filtered = set(candidates[:int(rng.integers(0, n - 1))])
        raw_rank = rank_of(scores, answer)
        filt_rank = rank_of(scores, answer, filtered)
        assert 1.0 / filt_rank >= 1.0 / raw_rank - 1e-12


def test_oracle_model_scores_perfect_mrr():
    facts = [HyperFact("a", "r", "b", (("k", "c"),)), HyperFact("b", "r", "c")]
    kg = Hkg(facts)
    queries = queries_from_facts(facts)
    metrics = evaluate(OracleModel(), kg, queries, facts)
    assert metrics.mrr_ht == 1.0
    assert metrics.mrr_all == 1.0
    assert metrics.hits_all[1] == 1.0
    assert metrics.count_all == 5
    assert metrics.count_ht == 4


def test_uniform_model_matches_closed_form():
    facts = [HyperFact("a", "r", "b", (("k", "c"),)),
             HyperFact("a", "r", "c"),
             HyperFact("d", "s", "e")]
    kg = Hkg(facts)
    queries = queries_from_facts(facts)
    index = completion_index(facts)
    filter_sizes = [len(filter_set(q, kg, index)) for q in queries]
    expected = uniform_model_mrr(kg.num_entities, filter_sizes)
    metrics = evaluate(UniformModel(), kg, queries, facts)
    assert abs(metrics.mrr_all - expected) < 1e-9

    ht_sizes = [s for q, s in zip(queries, filter_sizes) if q.is_head_or_tail]
    assert abs(metrics.mrr_ht - uniform_model_mrr(kg.num_entities, ht_sizes)) < 1e-9


def test_breakdowns_split_head_tail_from_values():
    facts = [HyperFact("a", "r", "b", (("k", "c"),))]
    kg = Hkg(facts)
    queries = queries_from_facts(facts)

    class ValueOnlyOracle(OracleModel):
        def batch_scores(self, kg_, queries):
            scores = super().batch_scores(kg_, queries)
            for row, query in zip(scores, queries):
                if query.is_head_or_tail:
                    row[:] = 0.5
            return scores

    metrics = evaluate(ValueOnlyOracle(), kg, queries, facts)
    assert metrics.count_ht == 2 and metrics.count_all == 3
    assert metrics.mrr_ht < 1.0
    assert metrics.hits_all[1] < 1.0


def test_evaluate_requires_answers(small_kg):
    query = QueryFact(small_kg.facts[0], HEAD, None)
    with pytest.raises(ContractError):
        evaluate(UniformModel(), small_kg, [query], small_kg.facts)


@pytest.mark.parametrize("extra_rows, extra_cols", [(0, 1), (0, -1), (-1, 0)])
def test_a_wrong_shaped_score_matrix_is_contract_error(small_kg, extra_rows, extra_cols):
    # One column too many would otherwise be ranked as one more competitor.
    class MisShaped(UniformModel):
        def batch_scores(self, kg, queries):
            return np.full((len(queries) + extra_rows, kg.num_entities + extra_cols), 0.1)

    with pytest.raises(ContractError, match="batch_scores returned shape"):
        evaluate(MisShaped(), small_kg, queries_from_facts(small_kg.facts), small_kg.facts)


def test_no_queries_are_never_scored(small_kg):
    class Unscorable(UniformModel):
        def batch_scores(self, kg, queries):
            raise AssertionError("batch_scores called without queries")

    metrics = evaluate(Unscorable(), small_kg, [], small_kg.facts)
    assert metrics.count_all == 0 and metrics.count_ht == 0


def test_raw_mode_skips_filtering():
    facts = [HyperFact("a", "r", "b"), HyperFact("a", "r", "c")]
    kg = Hkg(facts)
    query = QueryFact.from_fact(facts[0], TAIL)

    class FixedModel:
        def prepare(self, kg_):
            return kg_

        def batch_scores(self, kg_, qs):
            scores = np.zeros((len(qs), kg_.num_entities))
            scores[:, kg_.entity_index["c"]] = 0.9
            scores[:, kg_.entity_index["b"]] = 0.5
            return scores

    filtered = evaluate(FixedModel(), kg, [query], facts, filtered=True)
    raw = evaluate(FixedModel(), kg, [query], facts, filtered=False)
    assert filtered.mrr_all == 1.0
    assert raw.mrr_all == 0.5


def test_metrics_output_formats():
    metrics = Metrics(0.5, 0.25, {1: 0.1, 3: 0.3, 10: 0.9},
                      {1: 0.05, 3: 0.2, 10: 0.8}, 4, 8)
    table = metrics.table()
    assert "mrr" in table and "hits@10" in table
    lines = metrics.tsv_lines()
    assert "mrr\tH/T\t0.500000" in lines
    assert "queries\tALL\t8" in lines


def test_metric_permutation_invariance(rng):
    from hyrel.predictor import LinkPredictor, ModelConfig
    from hyrel.reference import permute_hkg, random_hkg

    kg = random_hkg(rng, max_facts=5, min_facts=3)
    queries = queries_from_facts(kg.facts)
    predictor = LinkPredictor.build(ModelConfig(width=8, encoder_depth=2,
                                                head_count=1, decoder_depth=1),
                                    seed=2, dtype=np.float64)
    base = evaluate(predictor, kg, queries, kg.facts)

    pkg, phi, tau = permute_hkg(kg, rng)
    pqueries = []
    for q in queries:
        pbase = HyperFact(phi[q.base.head], tau[q.base.relation], phi[q.base.tail],
                          tuple((tau[k], phi[v]) for k, v in q.base.qualifiers))
        pqueries.append(QueryFact(pbase, q.masked, phi[q.answer]))
    permuted = evaluate(predictor, pkg, pqueries, pkg.facts)
    assert abs(base.mrr_all - permuted.mrr_all) < 1e-9
    assert abs(base.mrr_ht - permuted.mrr_ht) < 1e-9
    assert base.hits_all == permuted.hits_all

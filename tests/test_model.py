import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyrel import (HEAD, TAIL, ContractError, Hkg, HyperFact, QueryFact,
                   queries_from_facts, value_role)
from hyrel.model import RoleKind, key_role


def test_einstein_fact_validates(einstein_fact):
    kg = Hkg([einstein_fact])
    assert kg.entities == ("AlbertEinstein", "ETH_Zurich", "BSc", "math_education")
    assert kg.relations == ("educated_at", "academic_degree", "academic_major")


def test_query_counts():
    triple = HyperFact("a", "r", "b")
    assert len(queries_from_facts([triple])) == 2
    two_quals = HyperFact("a", "r", "b", (("k", "c"), ("k", "d")))
    assert len(queries_from_facts([two_quals])) == 4


def test_query_count_sums_per_fact():
    facts = [
        HyperFact("a", "r", "b"),
        HyperFact("c", "r", "d", (("k", "e"),)),
        HyperFact("e", "s", "f", (("k", "a"), ("k2", "b"))),
    ]
    queries = queries_from_facts(facts)
    assert len(queries) == 2 + 3 + 4


def test_query_order_is_deterministic(small_kg):
    queries = queries_from_facts(small_kg.facts)
    masked = [repr(q.masked) for q in queries]
    assert masked == ["head", "tail", "value(0)", "head", "tail",
                      "head", "tail", "value(0)", "value(1)"]
    assert all(q.answer == q.base.entity_at(q.masked) for q in queries)


@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 3)),
                max_size=12))
@settings(max_examples=50, deadline=None)
def test_query_count_property(shapes):
    facts = [HyperFact(f"e{h}", "r", f"e{t}",
                       tuple(("k", f"q{i}") for i in range(n)))
             for h, t, n in shapes]
    kg = Hkg(facts)
    assert len(queries_from_facts(kg.facts)) == sum(2 + f.arity for f in kg.facts)


def test_masked_value_out_of_range_rejected():
    fact = HyperFact("a", "r", "b", (("k", "c"),))
    with pytest.raises(ContractError):
        QueryFact(fact, value_role(1), "c")


def test_mismatched_answer_rejected():
    fact = HyperFact("a", "r", "b")
    with pytest.raises(ContractError):
        QueryFact(fact, TAIL, "a")


def test_relation_role_cannot_be_masked():
    fact = HyperFact("a", "r", "b")
    with pytest.raises(ContractError):
        QueryFact(fact, key_role(0), None)


def test_duplicate_qualifiers_stay_distinct():
    fact = HyperFact("a", "r", "b", (("k", "c"), ("k", "c")))
    assert fact.arity == 2
    assert fact.qualifiers[0] == fact.qualifiers[1]
    assert len(queries_from_facts([fact])) == 4


def test_role_invariants():
    assert HEAD.is_entity and TAIL.is_entity and value_role(0).is_entity
    assert not key_role(2).is_entity
    with pytest.raises(ContractError):
        from hyrel.model import Role
        Role(RoleKind.KEY)  # key role without an index



def test_given_vocabularies_are_checked():
    facts = [HyperFact("a", "r", "b", (("k", "c"),))]
    assert Hkg(facts, entities=("c", "b", "a", "z"), relations=("k", "r")).entity_index["a"] == 2
    cases = [(dict(entities=("a", "a", "b", "c")), "entity 'a' appears twice"),
             (dict(relations=("r", "k", "r")), "relation 'r' appears twice"),
             (dict(entities=("a", "c")), "entity 'b' of a fact is missing"),
             (dict(relations=("r",)), "relation 'k' of a fact is missing")]
    for vocabularies, message in cases:
        with pytest.raises(ContractError, match=message):
            Hkg(facts, **vocabularies)

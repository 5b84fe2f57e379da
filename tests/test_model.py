import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyrel import (HEAD, TAIL, ContractError, Hkg, HyperFact, QueryFact,
                   queries_from_facts, value_role)
from hyrel.model import PRIMARY_RELATION, RoleKind, key_role, sequence_roles


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


def test_sequence_of_a_triple():
    assert sequence_roles(0) == (HEAD, PRIMARY_RELATION, TAIL)
    assert [repr(r) for r in sequence_roles(0)] == ["head", "relation", "tail"]
    assert HyperFact("h", "r", "t").sequence() == ("h", "r", "t")
    assert (HEAD.slot, PRIMARY_RELATION.slot, TAIL.slot) == (0, 1, 2)


def test_sequence_of_two_qualifiers_puts_value_one_last():
    fact = HyperFact("h", "r", "t", (("k1", "v1"), ("k2", "v2")))
    roles = sequence_roles(2)
    assert roles is sequence_roles(2)  # cached: one tuple per arity
    assert [repr(r) for r in roles] == ["head", "relation", "tail", "key(0)", "value(0)",
                                        "key(1)", "value(1)"]
    assert fact.sequence() == ("h", "r", "t", "k1", "v1", "k2", "v2")
    assert value_role(1).slot == 6 and key_role(1).slot == 5
    assert [role.slot for role in roles] == list(range(7))


@given(st.integers(0, 3), st.data())
@settings(max_examples=50, deadline=None)
def test_sequence_agrees_with_entity_at_and_query_order(arity, data):
    # Distinct names, so a slot that reads the wrong position cannot agree by
    # chance.
    names = st.text("abc", min_size=1, max_size=3)
    ents = [f"e{x}" for x in data.draw(st.lists(names, min_size=arity + 2,
                                                 max_size=arity + 2, unique=True))]
    rels = [f"r{x}" for x in data.draw(st.lists(names, min_size=arity + 1,
                                                 max_size=arity + 1, unique=True))]
    fact = HyperFact(ents[0], rels[0], ents[1], tuple(zip(rels[1:], ents[2:])))
    roles = sequence_roles(arity)
    entity_roles = [role for role in roles if role.is_entity]
    for role in entity_roles:
        assert fact.sequence()[role.slot] == fact.entity_at(role)
    for i, (key, _) in enumerate(fact.qualifiers):
        assert fact.sequence()[key_role(i).slot] == key
    assert fact.entities() == tuple(ents) == tuple(map(fact.entity_at, entity_roles))
    assert fact.relations() == tuple(rels)
    queries = queries_from_facts([fact])
    assert [q.masked for q in queries] == [HEAD, TAIL, *map(value_role, range(arity))]
    assert [q.answer for q in queries] == ents


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

import gc
import gzip
import json
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyrel import (BundleParseError, DataError, Hkg, HyperFact, ParseError, load_bundle,
                   write_kg)
from hyrel.io import (format_fact_line, load_kg, parse_fact_line, parse_fact_obj,
                      read_facts, write_bundle, DatasetBundle)

EINSTEIN_LINE = ("AlbertEinstein\teducated_at\tETH_Zurich\t"
                 "academic_degree\tBSc\tacademic_major\tmath_education")


def test_parse_einstein_line():
    fact = parse_fact_line(EINSTEIN_LINE)
    assert fact.head == "AlbertEinstein"
    assert fact.relation == "educated_at"
    assert fact.tail == "ETH_Zurich"
    assert fact.qualifiers == (("academic_degree", "BSc"),
                               ("academic_major", "math_education"))


def test_parse_plain_triple():
    fact = parse_fact_line("a\tr\tb")
    assert fact.arity == 0


def test_even_token_count_rejected():
    with pytest.raises(BundleParseError) as e:
        read_facts_from_text("a\tr\tb\tk")
    assert "line 1" in str(e.value)


def test_empty_token_rejected():
    with pytest.raises(BundleParseError) as e:
        read_facts_from_text("a\t\tb")
    assert "empty token" in str(e.value)


def read_facts_from_text(text, tmp_path=None, name="facts.txt"):
    import tempfile
    from pathlib import Path
    d = Path(tempfile.mkdtemp())
    p = d / name
    p.write_text(text + "\n", encoding="utf-8")
    return read_facts(p)


def test_round_trip_is_byte_identical(tmp_path, einstein_fact):
    kg = Hkg([einstein_fact])
    path = tmp_path / "kg.txt"
    write_kg(kg, path)
    assert path.read_bytes() == (EINSTEIN_LINE + "\n").encode()
    assert load_kg(path) == kg


def test_empty_kg_writes_empty_file(tmp_path):
    path = tmp_path / "empty.txt"
    write_kg(Hkg([]), path)
    assert path.read_bytes() == b""
    assert load_kg(path) == Hkg([])


def test_round_trip_many_random_facts(tmp_path, rng):
    facts = []
    for _ in range(1000):
        quals = tuple((f"k{rng.integers(20)}", f"e{rng.integers(200)}")
                      for _ in range(rng.integers(0, 4)))
        facts.append(HyperFact(f"e{rng.integers(200)}", f"r{rng.integers(30)}",
                               f"e{rng.integers(200)}", quals))
    kg = Hkg(facts)
    path = tmp_path / "big.txt"
    write_kg(kg, path)
    assert load_kg(path) == kg


# Tokens may be any text free of the separators the format reserves.
token = st.text(
    st.characters(blacklist_characters="\t\n\r", blacklist_categories=("Cs",)),
    min_size=1, max_size=12)
fact_strategy = st.builds(
    HyperFact,
    head=token, relation=token, tail=token,
    qualifiers=st.lists(st.tuples(token, token), max_size=3).map(tuple))


@given(st.lists(fact_strategy, max_size=20))
@settings(max_examples=60, deadline=None)
def test_round_trip_property(facts):
    kg = Hkg(facts)
    reparsed = Hkg([parse_fact_line(format_fact_line(f)) for f in kg.facts])
    assert reparsed == kg


def test_gzip_detected_by_magic_bytes(tmp_path, einstein_fact):
    kg = Hkg([einstein_fact])
    path = tmp_path / "kg.anything"  # extension deliberately unrelated
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        fh.write(format_fact_line(einstein_fact) + "\n")
    assert load_kg(path) == kg


def test_reading_a_gzip_file_closes_it(tmp_path, einstein_fact):
    path = tmp_path / "kg.txt.gz"
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        fh.write(format_fact_line(einstein_fact) + "\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert read_facts(path) == [einstein_fact]
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_jsonl_reader_matches_tsv(tmp_path, einstein_fact):
    obj = {"triple": ["AlbertEinstein", "educated_at", "ETH_Zurich"],
           "qualifiers": [["academic_degree", "BSc"],
                          ["academic_major", "math_education"]]}
    assert parse_fact_obj(obj) == einstein_fact
    path = tmp_path / "kg.jsonl"
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    assert load_kg(path) == Hkg([einstein_fact])


BOM = b"\xef\xbb\xbf"


def test_a_leading_bom_is_not_part_of_the_first_tsv_head(tmp_path, einstein_fact):
    # Read as text, the BOM would be U+FEFF glued to the first head, so that
    # entity would split in two.
    again = HyperFact("a", "r", einstein_fact.head)
    path = tmp_path / "kg.tsv"
    path.write_bytes(BOM + "".join(format_fact_line(f) + "\n" for f in (einstein_fact, again))
                     .encode("utf-8"))
    assert load_kg(path) == Hkg([einstein_fact, again])
    gz = tmp_path / "kg.tsv.gz"
    gz.write_bytes(gzip.compress(path.read_bytes()))
    assert load_kg(gz) == Hkg([einstein_fact, again])


def test_a_leading_bom_is_not_part_of_the_first_jsonl_record(tmp_path, einstein_fact):
    obj = {"triple": ["AlbertEinstein", "educated_at", "ETH_Zurich"],
           "qualifiers": [["academic_degree", "BSc"],
                          ["academic_major", "math_education"]]}
    path = tmp_path / "kg.jsonl"
    path.write_bytes(BOM + (json.dumps(obj) + "\n").encode("utf-8"))
    assert load_kg(path) == Hkg([einstein_fact])


def test_jsonl_ids_are_strings_or_decimal_integers(tmp_path):
    assert parse_fact_obj({"triple": [7, "r", "b"], "qualifiers": [["k", -30]]}) == \
        HyperFact("7", "r", "b", (("k", "-30"),))
    for bad in (None, True, False, 1.5, 2.0, [1], [], {"a": 1}, "a\tx", "a\rx", "x\n"):
        for obj in ({"triple": [bad, "r", "b"]},
                    {"triple": ["a", "r", "b"], "qualifiers": [["k", "v"], ["k", bad]]}):
            with pytest.raises(ParseError) as e:
                parse_fact_obj(obj, 4)
            assert e.value.line_no == 4
    # A TAB inside an id would be written as two TSV tokens, a CR or LF as
    # two lines; an over-long integer fails in the JSON reader itself.
    path = tmp_path / "kg.jsonl"
    path.write_text('{"triple": ["a\\tx", "r", "b"]}\n'
                    '{"triple": ["a", "r", "b"], "qualifiers": [["k", null]]}\n'
                    '{"triple": ["a", "r", "b"]}\n'
                    f'{{"triple": [{"1" * 5000}, "r", "b"]}}\n', encoding="utf-8")
    with pytest.raises(BundleParseError) as e:
        read_facts(path)
    assert [p.split(": ")[0] for p in e.value.problems] == [
        "kg.jsonl:line 1", "kg.jsonl:line 2", "kg.jsonl:line 4"]


def test_tsv_tokens_holding_a_tab_cr_or_lf_are_not_written(tmp_path):
    for bad in ("a\tx", "a\rx", "x\n"):
        for fact in (HyperFact(bad, "r", "b"), HyperFact("a", "r", "b", (("k", bad),))):
            with pytest.raises(DataError):
                format_fact_line(fact)
            with pytest.raises(DataError):
                write_kg(Hkg([fact]), tmp_path / "kg.txt")


def test_a_tsv_token_holding_a_cr_or_lf_is_a_parse_error():
    # format_fact_line refuses such a token, so parsing must not make one.
    for line in ("a\rb\tr\tc", "a\tr\tc\rd", "a\tr\tc\tk\tv\nw", "a\tr\rs\tc\r\n"):
        with pytest.raises(ParseError, match="^line 4: token .* holds a CR or LF$") as e:
            parse_fact_line(line, 4)
        assert e.value.line_no == 4
    assert parse_fact_line("a\tr\tc\r\n") == HyperFact("a", "r", "c")


def test_a_tsv_line_of_tabs_is_a_record_and_a_blank_line_is_skipped(tmp_path):
    # "\t\t" is three empty tokens, not a blank line; " " and "" are blank.
    path = tmp_path / "facts.txt"
    path.write_text("a\tr\tb\n\t\t\n \n\nc\tr\td\n", encoding="utf-8")
    with pytest.raises(BundleParseError) as e:
        read_facts(path)
    assert e.value.problems == ["facts.txt:line 2: empty token"]
    path.write_text("a\tr\tb\n \n\r\n\nc\tr\td\n", encoding="utf-8")
    assert [f.head for f in read_facts(path)] == ["a", "c"]


def test_jsonl_malformed_records_aggregate(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"triple": ["a","r"]}\nnot json\n', encoding="utf-8")
    with pytest.raises(BundleParseError) as e:
        read_facts(path)
    assert len(e.value.problems) == 2


def test_non_utf8_lines_are_parse_errors(tmp_path):
    # UTF-8 is part of the file contract: a bad byte names its file and line,
    # and every such line is reported at once.
    for name, opener in (("bad.txt", open), ("bad.txt.gz", gzip.open)):
        path = tmp_path / name
        with opener(path, "wb") as fh:
            fh.write(b"a\tr\tb\nc\tr\t\xe9\n\xff\tr\tb\n")
        with pytest.raises(BundleParseError) as e:
            read_facts(path)
        assert [p.split(": ")[0] for p in e.value.problems] == [f"{name}:line 2",
                                                                 f"{name}:line 3"]
        assert "UTF-8" in e.value.problems[0]


def _write_bundle_dir(tmp_path, train, inference, valid, test):
    for name, facts in (("train", train), ("inference", inference),
                        ("valid", valid), ("test", test)):
        (tmp_path / f"{name}.txt").write_text(
            "".join(format_fact_line(f) + "\n" for f in facts), encoding="utf-8")


def test_load_bundle_counts_and_diagnostics(tmp_path):
    train = [HyperFact("a", "r", "b"), HyperFact("b", "r", "c")]
    inference = [HyperFact("x", "s", "y", (("k", "z"),))]
    valid = [HyperFact("x", "s", "z", (("k", "y"),))]
    _write_bundle_dir(tmp_path, train, inference, valid, [])
    bundle = load_bundle(tmp_path)
    diag = bundle.diagnostics()
    assert diag.counts["train"] == (2, 3, 1)
    assert diag.counts["inference"] == (1, 3, 2)
    assert diag.counts["valid"] == (1, 3, 2)
    assert diag.counts["test"] == (0, 0, 0)
    assert diag.entity_disjoint and diag.relation_disjoint


def test_shared_entity_flagged_not_fatal(tmp_path):
    _write_bundle_dir(tmp_path,
                      [HyperFact("a", "r", "b")],
                      [HyperFact("b", "s", "c")],  # shares entity b with train
                      [], [])
    diag = load_bundle(tmp_path).diagnostics()
    assert diag.shared_entities == 1
    assert not diag.entity_disjoint


def test_empty_valid_gives_zero_queries(tmp_path):
    _write_bundle_dir(tmp_path, [HyperFact("a", "r", "b")],
                      [HyperFact("x", "s", "y")], [], [])
    bundle = load_bundle(tmp_path)
    assert bundle.valid == [] and bundle.test == []


def test_missing_file_is_io_error(tmp_path):
    (tmp_path / "train.txt").write_text("a\tr\tb\n", encoding="utf-8")
    with pytest.raises(FileNotFoundError):
        load_bundle(tmp_path)


def test_unanswerable_valid_fact_rejected(tmp_path):
    _write_bundle_dir(tmp_path, [HyperFact("a", "r", "b")],
                      [HyperFact("x", "s", "y")],
                      [HyperFact("x", "s", "GHOST")], [])
    with pytest.raises(DataError) as e:
        load_bundle(tmp_path)
    assert "GHOST" in str(e.value)


def test_parse_errors_aggregated_across_files(tmp_path):
    (tmp_path / "train.txt").write_text("a\tr\n", encoding="utf-8")
    (tmp_path / "inference.txt").write_text("x\ts\ty\nbad\tline\n", encoding="utf-8")
    (tmp_path / "valid.txt").write_text("", encoding="utf-8")
    (tmp_path / "test.txt").write_text("", encoding="utf-8")
    with pytest.raises(BundleParseError) as e:
        load_bundle(tmp_path)
    assert len(e.value.problems) == 2
    assert any("train.txt" in p for p in e.value.problems)
    assert any("inference.txt" in p for p in e.value.problems)


def test_load_is_deterministic(tmp_path):
    facts = [HyperFact("b", "r", "a"), HyperFact("a", "r", "c", (("k", "d"),))]
    _write_bundle_dir(tmp_path, facts, [HyperFact("x", "s", "y")], [], [])
    first = load_bundle(tmp_path)
    second = load_bundle(tmp_path)
    assert first.train == second.train
    assert first.train.entities == ("b", "a", "c", "d")


def test_write_bundle_round_trip(tmp_path):
    bundle = DatasetBundle(
        train=Hkg([HyperFact("a", "r", "b")]),
        inference=Hkg([HyperFact("x", "s", "y", (("k", "z"),))]),
        valid=[HyperFact("x", "s", "z", (("k", "y"),))],
        test=[HyperFact("y", "s", "x")],
    )
    out = tmp_path / "bundle"
    write_bundle(bundle, out)
    loaded = load_bundle(out)
    assert loaded.train == bundle.train
    assert loaded.inference == bundle.inference
    assert loaded.valid == bundle.valid
    assert loaded.test == bundle.test

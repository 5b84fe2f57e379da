"""Readers and writers for fact files and four-way dataset bundles.

The canonical on-disk format is TSV: one fact per line, TAB-separated,
LF-terminated, UTF-8, no header.  Token layout is ``h r t (k v)*`` so the
token count is always odd and at least 3.  A JSON-lines alternative is
accepted behind the same contract: one object per line with a ``"triple"``
array of three ids and a ``"qualifiers"`` array of [key, value] pairs.
All readers transparently accept gzip-compressed files, detected by the
two magic bytes rather than the file name.
"""

from __future__ import annotations

import gzip
import io as _io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from .errors import BundleParseError, DataError, ParseError
from .model import Hkg, HyperFact

GZIP_MAGIC = b"\x1f\x8b"

SPLIT_NAMES = ("train", "inference", "valid", "test")
_SUFFIXES = (".txt", ".txt.gz", ".jsonl", ".jsonl.gz")


def parse_fact_line(line: str, line_no: int | None = None) -> HyperFact:
    """Parse one TSV fact line. Raises ParseError on malformed input."""
    tokens = line.rstrip("\r\n").split("\t")
    if len(tokens) < 3 or len(tokens) % 2 == 0:
        raise ParseError(
            f"expected an odd token count >= 3 (h r t followed by key/value pairs), "
            f"got {len(tokens)}", line_no)
    for t in tokens:
        if t == "":
            raise ParseError("empty token", line_no)
    quals = tuple(zip(tokens[3::2], tokens[4::2]))
    return HyperFact(tokens[0], tokens[1], tokens[2], quals)


def parse_fact_obj(obj: dict, line_no: int | None = None) -> HyperFact:
    """Parse one JSON-lines fact record."""
    try:
        triple = obj["triple"]
        quals = obj.get("qualifiers", [])
    except (TypeError, KeyError):
        raise ParseError("record must be an object with a 'triple' array", line_no)
    if not isinstance(triple, list) or len(triple) != 3:
        raise ParseError("'triple' must be an array of exactly three ids", line_no)
    if not isinstance(quals, list):
        raise ParseError("'qualifiers' must be an array of [key, value] pairs", line_no)
    pairs = []
    for q in quals:
        if not isinstance(q, list) or len(q) != 2:
            raise ParseError("each qualifier must be a [key, value] pair", line_no)
        pairs.append((str(q[0]), str(q[1])))
    items = [str(x) for x in triple] + [x for p in pairs for x in p]
    if any(x == "" for x in items):
        raise ParseError("empty token", line_no)
    return HyperFact(str(triple[0]), str(triple[1]), str(triple[2]), tuple(pairs))


def format_fact_line(fact: HyperFact) -> str:
    parts = [fact.head, fact.relation, fact.tail]
    for k, v in fact.qualifiers:
        parts.append(k)
        parts.append(v)
    return "\t".join(parts)


def _open_text(path: Path) -> _io.TextIOBase:
    """The file as text; bytes that are not UTF-8 decode to lone surrogates,
    which :func:`read_facts` reports by line."""
    raw = open(path, "rb")
    if raw.read(2) == GZIP_MAGIC:
        raw.close()  # a GzipFile given a file object would never close it
        raw = gzip.open(path, "rb")
    else:
        raw.seek(0)
    return _io.TextIOWrapper(raw, encoding="utf-8", errors="surrogateescape")


def _check_utf8(line: str, line_no: int) -> None:
    if not line.isascii():
        try:
            line.encode("utf-8")
        except UnicodeEncodeError as e:
            raise ParseError(f"not UTF-8: byte {ord(line[e.start]) - 0xDC00:#04x} at "
                             f"character {e.start + 1}", line_no) from None


def read_facts(path: str | Path) -> list[HyperFact]:
    """Read every fact in a file, aggregating all malformed lines into one error."""
    path = Path(path)
    jsonl = path.name.removesuffix(".gz").endswith(".jsonl")
    facts: list[HyperFact] = []
    problems: list[str] = []
    with _open_text(path) as fh:
        for no, line in enumerate(fh, start=1):
            if line.strip() == "":
                continue
            try:
                _check_utf8(line, no)
                if jsonl:
                    try:
                        obj = json.loads(line)
                    except json.JSONDecodeError as e:
                        raise ParseError(f"invalid JSON: {e.msg}", no)
                    facts.append(parse_fact_obj(obj, no))
                else:
                    facts.append(parse_fact_line(line, no))
            except ParseError as e:
                problems.append(f"{path.name}:{e}")
    if problems:
        raise BundleParseError(problems)
    return facts


def load_kg(path: str | Path) -> Hkg:
    return Hkg(read_facts(path))


def write_kg(kg: Hkg, path: str | Path) -> None:
    """Write facts as TSV, one per line, LF endings, in fact order.

    Parsing the file back yields an Hkg equal to ``kg`` field by field.  A
    ``.gz`` suffix switches on gzip compression.
    """
    path = Path(path)
    opener = gzip.open if path.suffix == ".gz" else open
    with opener(path, "wt", encoding="utf-8", newline="\n") as fh:
        for fact in kg.facts:
            fh.write(format_fact_line(fact))
            fh.write("\n")


@dataclass
class BundleDiagnostics:
    """Vocabulary overlap and size summary for a loaded bundle."""

    shared_entities: int
    shared_relations: int
    counts: dict[str, tuple[int, int, int]]  # split -> (facts, entities, relations)

    @property
    def entity_disjoint(self) -> bool:
        return self.shared_entities == 0

    @property
    def relation_disjoint(self) -> bool:
        return self.shared_relations == 0

    def report_lines(self) -> list[str]:
        lines = []
        for name in SPLIT_NAMES:
            f, e, r = self.counts[name]
            lines.append(f"{name}: {f} facts, {e} entities, {r} relations")
        lines.append(f"train/inference shared entities: {self.shared_entities}"
                     f" ({'disjoint' if self.entity_disjoint else 'OVERLAP'})")
        lines.append(f"train/inference shared relations: {self.shared_relations}"
                     f" ({'disjoint' if self.relation_disjoint else 'overlap'})")
        return lines


@dataclass
class DatasetBundle:
    """A train / inference / valid / test dataset.

    ``valid`` and ``test`` are plain fact lists (queries are derived from
    them); both must reference only ids present in the inference graph's
    vocabularies so that every derived query is answerable.
    """

    train: Hkg
    inference: Hkg
    valid: list[HyperFact] = field(default_factory=list)
    test: list[HyperFact] = field(default_factory=list)

    def diagnostics(self) -> BundleDiagnostics:
        shared_e = len(set(self.train.entities) & set(self.inference.entities))
        shared_r = len(set(self.train.relations) & set(self.inference.relations))
        counts = {
            "train": (self.train.num_facts, self.train.num_entities, self.train.num_relations),
            "inference": (self.inference.num_facts, self.inference.num_entities,
                          self.inference.num_relations),
            "valid": _fact_list_counts(self.valid),
            "test": _fact_list_counts(self.test),
        }
        return BundleDiagnostics(shared_e, shared_r, counts)


def _fact_list_counts(facts: list[HyperFact]) -> tuple[int, int, int]:
    ents = {e for f in facts for e in f.entities()}
    rels = {r for f in facts for r in f.relations()}
    return (len(facts), len(ents), len(rels))


def _find_split_file(directory: Path, name: str) -> Path:
    for suffix in _SUFFIXES:
        candidate = directory / (name + suffix)
        if candidate.exists():
            return candidate
    raise FileNotFoundError(f"no {name} file ({name}.txt or variants) in {directory}")


def _check_coverage(facts: Iterable[HyperFact], inference: Hkg, split: str) -> None:
    problems = []
    for i, f in enumerate(facts):
        bad_e = [e for e in f.entities() if e not in inference.entity_index]
        bad_r = [r for r in f.relations() if r not in inference.relation_index]
        if bad_e or bad_r:
            missing = ", ".join(repr(x) for x in bad_e + bad_r)
            problems.append(f"{split} fact {i} references ids absent from the "
                            f"inference graph: {missing}")
    if problems:
        raise DataError(f"{len(problems)} unanswerable {split} fact(s)\n" + "\n".join(problems))


def load_bundle(directory: str | Path) -> DatasetBundle:
    """Load a bundle directory holding train/inference/valid/test fact files.

    Parse failures across all four files are aggregated into a single error.
    Validation/test facts must be answerable against the inference graph;
    train/inference vocabulary overlap is only diagnosed, not rejected.
    """
    directory = Path(directory)
    paths = {name: _find_split_file(directory, name) for name in SPLIT_NAMES}
    parsed: dict[str, list[HyperFact]] = {}
    problems: list[str] = []
    for name in SPLIT_NAMES:
        try:
            parsed[name] = read_facts(paths[name])
        except BundleParseError as e:
            problems.extend(e.problems)
    if problems:
        raise BundleParseError(problems)
    bundle = DatasetBundle(
        train=Hkg(parsed["train"]),
        inference=Hkg(parsed["inference"]),
        valid=parsed["valid"],
        test=parsed["test"],
    )
    _check_coverage(bundle.valid, bundle.inference, "valid")
    _check_coverage(bundle.test, bundle.inference, "test")
    return bundle


def write_bundle(bundle: DatasetBundle, directory: str | Path) -> None:
    """Write the four split files of a bundle into ``directory``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_kg(bundle.train, directory / "train.txt")
    write_kg(bundle.inference, directory / "inference.txt")
    write_kg(Hkg(bundle.valid), directory / "valid.txt")
    write_kg(Hkg(bundle.test), directory / "test.txt")

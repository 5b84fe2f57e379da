"""Fuzzed inputs to the parsers: only the package's own errors may escape."""

import hashlib
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hyrel import HyrelError, ParseError
from hyrel.autodiff import ParamStore
from hyrel.io import parse_fact_line, parse_fact_obj
from hyrel.predictor import LinkPredictor
from hyrel.training import Checkpoint, TrainConfig

FUZZ = settings(max_examples=300, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=5), inner,
                                                                max_size=4),
    max_leaves=12)


def parses_or_refuses(parse, *args):
    """Run a parser; a failure must be a :class:`HyrelError`."""
    try:
        parse(*args)
    except HyrelError:
        pass


@pytest.mark.parametrize("quals", [None, 5, "kv", {"k": "v"}])
def test_qualifiers_that_are_not_an_array_are_parse_errors(quals):
    with pytest.raises(ParseError, match="qualifiers"):
        parse_fact_obj({"triple": ["a", "b", "c"], "qualifiers": quals}, 4)


@FUZZ
@given(st.text(alphabet=st.sampled_from("ab\t\r\n \x00é"), max_size=30) | st.text(max_size=30))
def test_fuzzed_fact_lines(line):
    parses_or_refuses(parse_fact_line, line, 1)


@FUZZ
@given(JSON | st.fixed_dictionaries({"triple": JSON | st.lists(JSON, min_size=3, max_size=3)},
                                    optional={"qualifiers": JSON}))
def test_fuzzed_fact_objects(obj):
    parses_or_refuses(parse_fact_obj, obj, 1)


def _tiny_checkpoint() -> Checkpoint:
    train = TrainConfig(epochs=0, width=4, encoder_depth=1, head_count=1, decoder_depth=1)
    return Checkpoint(train, LinkPredictor.build(train, seed=0).store, 0,
                      [0.5], [0.25])


CKPT = _tiny_checkpoint()
BLOB = CKPT.store.to_bytes()


@st.composite
def mutated(draw, blob: bytes):
    """``blob`` cut short, with bytes overwritten, or replaced outright."""
    kind = draw(st.sampled_from(["cut", "flip", "raw"]))
    if kind == "raw":
        return draw(st.binary(max_size=64))
    data = bytearray(blob)
    if kind == "cut":
        return bytes(data[:draw(st.integers(0, len(data)))])
    for _ in range(draw(st.integers(1, 4))):
        data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
    return bytes(data)


@FUZZ
@given(mutated(BLOB))
def test_fuzzed_parameter_blobs(blob):
    parses_or_refuses(ParamStore.from_bytes, blob)


def _saved_meta() -> list[str]:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.bin"
        CKPT.save(path)
        return Path(str(path) + ".meta").read_text(encoding="utf-8").splitlines()


META = _saved_meta()
KEYS = sorted({line.split(" = ")[0] for line in META if " = " in line})


def meta_lines(blob: bytes) -> list[str]:
    """The saved sidecar, with ``blob``'s hash in place of the saved one."""
    sha = hashlib.sha256(blob).hexdigest()
    return [f"bin_sha256 = {sha}" if line.startswith("bin_sha256") else line
            for line in META]


@st.composite
def meta_texts(draw, lines: list[str]):
    """A valid sidecar with lines replaced by headers, keys with arbitrary
    values, history rows or free text."""
    lines = list(lines)
    replacement = st.one_of(
        st.sampled_from(["[model]", "[train]", "[state]", "[history]", "[other]", ""]),
        st.builds(lambda k, v: f"{k} = {v}", st.sampled_from(KEYS),
                  st.text(max_size=8) | st.sampled_from(["-1", "0", "nan", "inf", "1e400",
                                                         "True", "9" * 5000])),
        st.builds("\t".join, st.lists(st.text(max_size=4), max_size=4)),
        st.text(max_size=12))
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(lines)))
        if draw(st.booleans()) and at < len(lines):
            lines[at] = draw(replacement)
        else:
            lines.insert(at, draw(replacement))
    return "\n".join(lines) + "\n"


@FUZZ
@given(st.data())
def test_fuzzed_checkpoints(data):
    blob = data.draw(st.just(BLOB) | mutated(BLOB))
    if data.draw(st.booleans()):
        meta = data.draw(meta_texts(meta_lines(blob))).encode("utf-8")
    else:
        meta = data.draw(st.binary(max_size=64))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.bin"
        path.write_bytes(blob)
        Path(str(path) + ".meta").write_bytes(meta)
        parses_or_refuses(Checkpoint.load, path)


def test_unmutated_checkpoint_loads():
    # The fuzzed cases start from a pair that loads.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.bin"
        path.write_bytes(BLOB)
        Path(str(path) + ".meta").write_text("\n".join(meta_lines(BLOB)) + "\n",
                                             encoding="utf-8")
        assert Checkpoint.load(path).store.to_bytes() == BLOB

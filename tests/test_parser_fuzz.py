"""Every input to the four parsers either parses or raises FlagsphereError.

The inputs are random text, random JSON documents, and valid documents
with one part replaced or with random text spliced in.
"""

import json
from functools import cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import flagsphere as fs

# the keys the certificate and graph formats read, so random objects hit them
KEYS = [
    *("format", "version", "start", "end", "steps", "edge", "relabel"),
    *("n", "faces", "max_n", "nodes", "arcs", "form"),
]

JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 12)
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)

TRI_LINE = st.lists(st.integers(-2, 12), max_size=4).map(
    lambda xs: " ".join(map(str, xs))
) | st.text(alphabet="0123456789 -cx\t", max_size=8)
TRI_TEXT = st.lists(TRI_LINE, max_size=12).map("\n".join)

FUZZ = settings(deadline=None, max_examples=100)


@cache
def s7():
    return fs.split_vertex(fs.octahedron(), fs.SplitSpec(0, 1, 4))


@cache
def valid_certificate():
    return fs.certificate_to_json(fs.reduce_to_octahedron(s7()))


@cache
def valid_graph():
    return fs.export_json(fs.build(8))


def parses_or_rejects(parse, text):
    try:
        parse(text)
    except fs.FlagsphereError:
        pass


def replace_part(data, obj):
    """``obj`` with one part, found by a random walk down it, replaced."""
    if isinstance(obj, (list, dict)) and obj and data.draw(st.booleans()):
        keys = range(len(obj)) if isinstance(obj, list) else sorted(obj)
        key = data.draw(st.sampled_from(keys))
        out = obj.copy()
        out[key] = replace_part(data, obj[key])
        return out
    return data.draw(JSON)


def splice(data, text):
    """``text`` with a random slice cut out and random text put in its place."""
    i = data.draw(st.integers(0, len(text)))
    j = data.draw(st.integers(i, min(len(text), i + 8)))
    return text[:i] + data.draw(st.text(max_size=6)) + text[j:]


@FUZZ
@given(text=TRI_TEXT | st.text())
@example(text="100000000\n0 1 2\n")
@example(text="1" * 5000)
def test_parse_tri_fuzz(text):
    parses_or_rejects(fs.parse_tri, text)


@FUZZ
@given(data=st.data())
def test_parse_tri_mutations(data):
    parses_or_rejects(fs.parse_tri, splice(data, fs.dump_tri(s7())))


@FUZZ
@given(blocks=st.lists(TRI_TEXT, max_size=4))
def test_parse_corpus_fuzz(blocks):
    parses_or_rejects(fs.parse_corpus, "\n\n".join(blocks))


@FUZZ
@given(data=st.data())
def test_parse_corpus_mutations(data):
    text = fs.dump_corpus([fs.octahedron(), s7()])
    parses_or_rejects(fs.parse_corpus, splice(data, text))


@FUZZ
@given(doc=JSON)
def test_certificate_from_json_fuzz(doc):
    parses_or_rejects(fs.certificate_from_json, json.dumps(doc))


@FUZZ
@given(data=st.data())
def test_certificate_from_json_mutations(data):
    doc = json.loads(valid_certificate())
    parses_or_rejects(fs.certificate_from_json, json.dumps(replace_part(data, doc)))
    parses_or_rejects(fs.certificate_from_json, splice(data, valid_certificate()))


@FUZZ
@given(doc=JSON)
def test_import_json_fuzz(doc):
    parses_or_rejects(fs.import_json, json.dumps(doc))


@FUZZ
@given(data=st.data())
def test_import_json_mutations(data):
    doc = json.loads(valid_graph())
    parses_or_rejects(fs.import_json, json.dumps(replace_part(data, doc)))
    parses_or_rejects(fs.import_json, splice(data, valid_graph()))


def test_json_parsers_reject_what_json_cannot_decode():
    # an over-long integer literal, then nesting deeper than the decoder's stack
    for parse in (fs.certificate_from_json, fs.import_json):
        for text in ("1" * 5000, "[" * 100000):
            with pytest.raises(fs.FormatError):
                parse(text)

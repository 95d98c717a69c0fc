"""Interchange documents, canonical JSON, and DOT rendering."""

import json
import random

import pytest

import quasiplanar as qp
from quasiplanar import diagram

Q5_TEXT = '{"n":5,"covers":[[0,1],[0,2],[1,3],[2,3],[3,4]],"left":[[1,2]]}'


def test_serialization_is_canonical():
    assert qp.serialize(qp.capped_diamond()) == Q5_TEXT
    doc = qp.document_of(qp.capped_diamond())
    assert qp.serialize(doc) == Q5_TEXT
    assert doc.n == 5
    assert doc.covers == ((0, 1), (0, 2), (1, 3), (2, 3), (3, 4))
    assert doc.left == ((1, 2),)
    assert doc.name is None


def test_parse_round_trips_every_small_diagram():
    for size in (2, 3, 4, 5):
        for d in qp.enumerate_quasiplanar(size):
            assert qp.parse(qp.serialize(d)) == d


def _same_bytes_as_the_json_path(d):
    assert qp.serialize(d) == qp.serialize(qp.document_of(d))


def test_diagram_text_matches_the_json_path_byte_for_byte():
    # a diagram is written from its pair codes, a document through json
    rng = random.Random(17)
    for size in range(2, 9):
        for d in qp.enumerate_quasiplanar(size):
            for e in (d, qp.mirror(d)):
                _same_bytes_as_the_json_path(e)
                _same_bytes_as_the_json_path(qp.relabel(e, range(size - 1, -1, -1)))
                _same_bytes_as_the_json_path(qp.relabel(e, rng.sample(range(size), size)))
            if size <= 6 or rng.random() < 0.02:
                _same_bytes_as_the_json_path(qp.lattice_from_pairs(d))
                _same_bytes_as_the_json_path(qp.lattice_from_filters(d))
    # past the small-int cache, and a chain, whose left list is empty
    n = 300
    big = qp.from_canonical(rng.sample(range(1, n - 1), n - 2))
    _same_bytes_as_the_json_path(qp.relabel(big, rng.sample(range(n), n)))
    chain = qp.from_canonical(range(1, 9))
    _same_bytes_as_the_json_path(chain)
    assert qp.serialize(chain).endswith('"left":[]}')


def test_pretty_output_parses_to_the_same_diagram():
    d = qp.capped_diamond()
    text = qp.serialize(qp.document_of(d), pretty=True)
    assert text.endswith("\n")
    assert "\n  " in text
    assert qp.parse(text) == d
    assert json.loads(text) == json.loads(Q5_TEXT)
    assert qp.serialize(d, pretty=True) == text


def test_name_survives_the_document_round_trip():
    doc = qp.document_of(qp.diamond(), name="four crown")
    text = qp.serialize(doc)
    assert '"name":"four crown"' in text
    again = qp.parse_document(text)
    assert again == doc
    assert qp.to_diagram(again) == qp.diamond()


def test_unordered_input_is_reserialized_canonically():
    scrambled = '{"left":[[1,2]],"covers":[[3,4],[2,3],[0,2],[1,3],[0,1]],"n":5}'
    assert qp.serialize(qp.parse(scrambled)) == Q5_TEXT


@pytest.mark.parametrize(
    "text, location, fragment",
    [
        ("{", "", "not valid JSON"),
        ("[1, 2]", "", "must be a JSON object"),
        ('{"n":3,"covers":[],"foo":1}', "/foo", "unknown key"),
        ('{"n":3,"covers":[],"a\\nb\\t":1}', "/a\\nb\\t", "unknown key 'a\\nb\\t'"),
        ('{"covers":[]}', "/n", "missing key 'n'"),
        ('{"n":true,"covers":[]}', "/n", "must be an integer"),
        ('{"n":"3","covers":[]}', "/n", "must be an integer"),
        ('{"n":0,"covers":[]}', "/n", "must be positive"),
        ('{"n":3}', "/covers", "missing key 'covers'"),
        ('{"n":3,"covers":{}}', "/covers", "must be an array"),
        ('{"n":3,"covers":[[0,1],[1]]}', "/covers/1", "two-element array"),
        ('{"n":3,"covers":[[0,1],[1,2,0]]}', "/covers/1", "two-element array"),
        ('{"n":3,"covers":[[0,1.0]]}', "/covers/0/1", "must be an integer"),
        ('{"n":3,"covers":[[0,true]]}', "/covers/0/1", "must be an integer"),
        ('{"n":3,"covers":[[3,1]]}', "/covers/0/0", "out of range"),
        ('{"n":3,"covers":[[0,-1]]}', "/covers/0/1", "out of range"),
        ('{"n":3,"covers":[[0,2]],"left":[0]}', "/left/0", "two-element array"),
        ('{"n":3,"covers":[],"name":7}', "/name", "must be a string"),
    ],
)
def test_malformed_documents_point_at_the_problem(text, location, fragment):
    with pytest.raises(qp.MalformedDocument) as info:
        qp.parse_document(text)
    assert info.value.location == location
    assert fragment in str(info.value)


def test_validation_errors_gain_locations_through_parse():
    comparable = '{"n":4,"covers":[[0,1],[0,2],[1,3],[2,3]],"left":[[0,3]]}'
    with pytest.raises(qp.LeftOnComparable) as info:
        qp.parse(comparable)
    assert info.value.location == "/left/0"
    assert str(info.value).startswith("/left/0: ")

    # a left pair that is also a cover is blamed on the left pair
    on_a_cover = (
        '{"n":4,"covers":[[0,1],[0,2],[1,3],[2,3]],"left":[[1,2],[0,1]]}'
    )
    with pytest.raises(qp.LeftOnComparable) as info:
        qp.parse(on_a_cover)
    assert info.value.location == "/left/1"

    self_loop = '{"n":3,"covers":[[0,1],[1,1],[1,2]]}'
    with pytest.raises(qp.NotAPartialOrder) as info:
        qp.parse(self_loop)
    assert info.value.location == "/covers/1"

    doubled = (
        '{"n":4,"covers":[[0,1],[0,2],[1,3],[2,3]],"left":[[1,2],[2,1]]}'
    )
    with pytest.raises(qp.NotLinearizable) as info:
        qp.parse(doubled)
    assert info.value.location == "/left/1"

    missing = '{"n":4,"covers":[[0,1],[0,2],[1,3],[2,3]]}'
    with pytest.raises(qp.LeftIncomplete) as info:
        qp.parse(missing)
    assert info.value.location == "/left"

    cyclic = '{"n":3,"covers":[[0,1],[1,2],[2,0]]}'
    with pytest.raises(qp.NotAPartialOrder) as info:
        qp.parse(cyclic)
    assert info.value.location == "/covers"

    unbounded = '{"n":4,"covers":[[0,2],[1,2],[2,3]],"left":[[0,1]]}'
    with pytest.raises(qp.NotBounded) as info:
        qp.parse(unbounded)
    assert info.value.location is None


def test_each_pair_is_checked_once(monkeypatch):
    calls = []
    check_pairs = diagram._check_pairs
    q5 = qp.capped_diamond()

    def counted(n, pairs, what):
        calls.append(what)
        return check_pairs(n, pairs, what)

    monkeypatch.setattr(diagram, "_check_pairs", counted)
    # parse builds from the pairs parse_document checked
    assert qp.parse(Q5_TEXT) == q5
    with pytest.raises(qp.LeftIncomplete):
        qp.parse('{"n":4,"covers":[[0,1],[0,2],[1,3],[2,3]]}')
    assert calls == []
    qp.validate(4, [(0, 1), (0, 2), (1, 3), (2, 3)], [(1, 2)])
    assert calls == ["covers", "left"]


def test_grid_layout_of_the_diamond():
    assert qp.grid_layout(qp.diamond()) == ((0, 0), (-1, 3), (1, 3), (0, 6))


def test_grid_layout_rises_along_covers_and_separates_elements():
    for d in qp.enumerate_quasiplanar(5):
        coords = qp.grid_layout(d)
        assert len(set(coords)) == d.n
        for a, b in d.cover_pairs():
            assert coords[a][1] < coords[b][1]
        for x, y in d.left_pairs():
            assert coords[x][0] < coords[y][0]


def test_render_dot_is_frozen_for_the_diamond():
    assert qp.render_dot(qp.diamond()) == (
        'digraph "diagram" {\n'
        "  rankdir=BT;\n"
        "  node [shape=circle, fontsize=10, width=0.3];\n"
        "  edge [arrowhead=none];\n"
        '  v0 [label="0", pos="0,0!"];\n'
        '  v1 [label="1", pos="-1,3!"];\n'
        '  v2 [label="2", pos="1,3!"];\n'
        '  v3 [label="3", pos="0,6!"];\n'
        "  v0 -> v1;\n"
        "  v0 -> v2;\n"
        "  v1 -> v3;\n"
        "  v2 -> v3;\n"
        "}\n"
    )


def test_render_dot_names_and_determinism():
    d = qp.capped_diamond()
    out = qp.render_dot(d, name="capped")
    assert out.startswith('digraph "capped" {')
    assert out == qp.render_dot(d, name="capped")
    assert out.count(" -> ") == len(d.cover_pairs())

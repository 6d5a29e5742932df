import json

import pytest

from proxikit import (
    WorkspaceError,
    make_discrete_proximity,
    parse_workspace,
)

MINIMAL = """{
  "space": {"labels": ["a", "b"]},
  "relations": {"d": {"encoding": "discrete"}}
}"""


def test_minimal_document_parses_with_full_table():
    ws = parse_workspace(MINIMAL)
    rel = ws.relations["d"]
    assert len(rel.rows) == 4  # 16 entries
    assert rel.same_table(make_discrete_proximity(ws.space))
    assert not ws.warnings


def test_syntax_error_carries_line_and_column():
    with pytest.raises(WorkspaceError, match="line 1, column"):
        parse_workspace("{nope}")


def test_explicit_relation_symmetric_closure_flagged():
    text = """{
      "space": {"labels": ["a", "b"]},
      "relations": {"x": {"encoding": "explicit", "near": [[1, 2], [1, 1], [2, 2], [3, 3]]}}
    }"""
    ws = parse_workspace(text)
    assert any("symmetric closure" in w for w in ws.warnings)
    assert ws.relations["x"].near(2, 1)


def test_cayley_row_length_error_names_row():
    text = """{
      "space": {"labels": ["a", "b"]},
      "group": {"cayley": [[0, 1], [1]]}
    }"""
    with pytest.raises(WorkspaceError, match=r"group.cayley\[1\].*row 1 needs 2 entries"):
        parse_workspace(text)


def test_cayley_entry_error_names_row_and_position():
    text = """{
      "space": {"labels": ["a", "b"]},
      "group": {"cayley": [[0, 1], [1, 7]]}
    }"""
    with pytest.raises(WorkspaceError, match="row 1, position 1"):
        parse_workspace(text)


def test_identity_declaration_checked():
    text = """{
      "space": {"labels": ["a", "b"]},
      "group": {"cayley": [[0, 1], [1, 0]], "identity": 1}
    }"""
    with pytest.raises(WorkspaceError, match="identity"):
        parse_workspace(text)


def test_dangling_references_rejected():
    with pytest.raises(WorkspaceError, match="unknown probe table"):
        parse_workspace(
            '{"space": {"labels": ["a"]}, "relations": {"r": {"encoding": "descriptive", "probes": "q"}}}'
        )
    with pytest.raises(WorkspaceError, match="unknown relation"):
        parse_workspace(
            '{"space": {"labels": ["a"]}, "relations": {"s": {"encoding": "subspace", "parent": "zzz", "subset": 1}}}'
        )


def test_unknown_encoding_and_section_rejected():
    with pytest.raises(WorkspaceError, match="unknown encoding"):
        parse_workspace(
            '{"space": {"labels": ["a"]}, "relations": {"r": {"encoding": "weird"}}}'
        )
    with pytest.raises(WorkspaceError, match="unknown section"):
        parse_workspace('{"space": {"labels": ["a"]}, "extra": {}}')


def test_out_of_range_mask_rejected():
    with pytest.raises(WorkspaceError, match="out of range"):
        parse_workspace(
            '{"space": {"labels": ["a"]}, "relations": {"r": {"encoding": "explicit", "near": [[5, 1]]}}}'
        )


def test_reference_cycle_rejected():
    text = """{
      "space": {"labels": ["a", "b"]},
      "relations": {
        "p": {"encoding": "subspace", "parent": "q", "subset": 1},
        "q": {"encoding": "subspace", "parent": "p", "subset": 1}
      }
    }"""
    with pytest.raises(WorkspaceError, match="cycle"):
        parse_workspace(text)


FULL = """{
  "space": {"labels": ["a", "b", "c", "d"]},
  "relations": {
    "d": {"encoding": "discrete"},
    "c": {"encoding": "coarse"},
    "m": {"encoding": "metric", "matrix": [[0,1,1,1],[1,0,1,1],[1,1,0,1],[1,1,1,0]]},
    "dp": {"encoding": "descriptive", "probes": "q"},
    "s": {"encoding": "subspace", "parent": "d", "subset": 3},
    "x": {"encoding": "explicit", "near": [[1,1],[2,2],[4,4],[8,8],[1,2],[2,1]]},
    "pr": {"encoding": "product", "factors": ["s", "s"]}
  },
  "group": {"cayley": [[0,1,2,3],[1,2,3,0],[2,3,0,1],[3,0,1,2]], "identity": 0},
  "probes": {"q": {"arity": 2, "values": [[0,0],[0,1],[1,0],[1,1]]}},
  "maps": {"id": {"images": [0,1,2,3]}, "neg": {"images": [0,3,2,1]}},
  "partition": {"blocks": [[0, 2], [1, 3]]}
}"""


def test_full_document_round_trip_identity():
    ws = parse_workspace(FULL)
    assert parse_workspace(FULL) == ws
    # product relation landed as a rectangle relation over a derived carrier
    assert ws.relations["pr"].space.size == 4
    assert ws.partition == (0b0101, 0b1010)


def _random_document(rng):
    n = rng.randint(1, 4)
    labels = [f"e{i}" for i in range(n)]
    doc = {"space": {"labels": labels}}
    relations = {"d": {"encoding": "discrete"}}
    if rng.random() < 0.7:
        relations["c"] = {"encoding": "coarse"}
    if rng.random() < 0.5:
        pairs = sorted(
            {
                (a, b)
                for _ in range(rng.randint(0, 6))
                for a in [rng.randrange(1, 1 << n)]
                for b in [rng.randrange(1, 1 << n)]
            }
        )
        near = [[a, b] for a, b in pairs] + [[b, a] for a, b in pairs]
        relations["x"] = {"encoding": "explicit", "near": near}
    if rng.random() < 0.5:
        relations["s"] = {
            "encoding": "subspace",
            "parent": "d",
            "subset": rng.randrange(1, 1 << n),
        }
    doc["relations"] = relations
    if rng.random() < 0.5:
        arity = rng.randint(1, 2)
        doc["probes"] = {
            "q": {
                "arity": arity,
                "values": [[rng.randint(0, 2) for _ in range(arity)] for _ in range(n)],
            }
        }
        relations["dp"] = {"encoding": "descriptive", "probes": "q"}
    if rng.random() < 0.5:
        doc["maps"] = {
            "f": {"images": [rng.randrange(n) for _ in range(n)]}
        }
    return doc


def test_random_documents_round_trip():
    import random

    rng = random.Random(8121)
    for _ in range(80):
        text = json.dumps(_random_document(rng))
        assert parse_workspace(text) == parse_workspace(text)

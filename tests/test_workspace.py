import ast
import json
from pathlib import Path

import pytest

from proxikit import (
    WorkspaceError,
    make_discrete_proximity,
    parse_workspace,
)

ROOT = Path(__file__).resolve().parent.parent

MINIMAL = """{
  "space": {"labels": ["a", "b"]},
  "relations": {"d": {"encoding": "discrete"}}
}"""


def test_minimal_document_parses_with_full_table():
    ws = parse_workspace(MINIMAL)
    rel = ws.relations["d"]
    assert len(rel.rows) == 4  # 16 entries
    assert rel.rows == make_discrete_proximity(ws.space).rows
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


def test_subspace_parents_resolve_whatever_their_names():
    text = """{
      "space": {"labels": ["a", "b", "c"]},
      "relations": {
        "a": {"encoding": "subspace", "parent": "b", "subset": 3},
        "b": {"encoding": "subspace", "parent": "z", "subset": 7},
        "m": {"encoding": "explicit", "near": [[1, 2], [1, 1], [2, 2], [4, 4]]},
        "z": {"encoding": "explicit", "near": [[1, 4], [1, 1], [2, 2], [4, 4]]}
      }
    }"""
    ws = parse_workspace(text)
    assert list(ws.relations) == ["a", "b", "m", "z"]
    assert ws.relations["a"].space.labels == ("a", "b")
    assert ws.relations["b"].rows == ws.relations["z"].rows
    # walking from "a" builds "z" before "m"; the warnings stay in name order
    assert [w.split(":")[0] for w in ws.warnings] == ["relations.m", "relations.z"]


def test_a_long_subspace_chain_parses():
    # each name's parent sorts after it, so the first name walks the whole
    # chain before anything is built; deeper than Python's recursion limit
    n = 2000
    relations = {f"r{n - 1:04d}": {"encoding": "discrete"}}
    for i in range(n - 1):
        relations[f"r{i:04d}"] = {"encoding": "subspace", "parent": f"r{i + 1:04d}", "subset": 1}
    ws = parse_workspace(json.dumps({"space": {"labels": ["a"]}, "relations": relations}))
    assert len(ws.relations) == n
    assert ws.relations["r0000"].rows == ws.relations[f"r{n - 1:04d}"].rows


def test_reference_cycle_reported_at_the_first_name_that_reaches_it():
    text = """{
      "space": {"labels": ["a", "b"]},
      "relations": {
        "b": {"encoding": "subspace", "parent": "p", "subset": 1},
        "d": {"encoding": "discrete"},
        "p": {"encoding": "subspace", "parent": "q", "subset": 1},
        "q": {"encoding": "subspace", "parent": "p", "subset": 1}
      }
    }"""
    with pytest.raises(WorkspaceError) as exc:
        parse_workspace(text)
    assert str(exc.value) == "relations.b: unresolvable reference cycle among relations"


FULL = """{
  "space": {"labels": ["a", "b", "c", "d"]},
  "relations": {
    "d": {"encoding": "discrete"},
    "c": {"encoding": "coarse"},
    "m": {"encoding": "metric", "matrix": [[0,1,1,1],[1,0,1,1],[1,1,0,1],[1,1,1,0]]},
    "dp": {"encoding": "descriptive", "probes": "q"},
    "s": {"encoding": "subspace", "parent": "d", "subset": 3},
    "x": {"encoding": "explicit", "near": [[1,1],[2,2],[4,4],[8,8],[1,2],[2,1]]}
  },
  "group": {"cayley": [[0,1,2,3],[1,2,3,0],[2,3,0,1],[3,0,1,2]], "identity": 0},
  "probes": {"q": {"arity": 2, "values": [[0,0],[0,1],[1,0],[1,1]]}},
  "maps": {"id": {"images": [0,1,2,3]}, "neg": {"images": [0,3,2,1]}},
  "partition": {"blocks": [[0, 2], [1, 3]]}
}"""


def test_full_document_round_trip_identity():
    ws = parse_workspace(FULL)
    assert parse_workspace(FULL) == ws
    # the subspace relation landed on its derived carrier
    assert ws.relations["s"].space.labels == ("a", "b")
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


def test_readme_example_parses_and_uses_every_encoding():
    readme = (ROOT / "README.md").read_text()
    example = readme.split("## Workspace documents", 1)[1].split("```json\n", 1)[1]
    example = example.split("```", 1)[0]
    ws = parse_workspace(example)
    assert not ws.warnings
    used = {spec["encoding"] for spec in json.loads(example)["relations"].values()}
    # the encodings the parser accepts: the strings it compares `encoding` with
    tree = ast.parse((ROOT / "src" / "proxikit" / "workspace.py").read_text())
    accepted = {
        node.comparators[0].value
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        and isinstance(node.left, ast.Name)
        and node.left.id == "encoding"
        and isinstance(node.comparators[0], ast.Constant)
    }
    assert accepted == {"discrete", "coarse", "metric", "explicit", "descriptive", "subspace"}
    assert used == accepted
    assert set(ws.relations) == set(json.loads(example)["relations"])


@pytest.mark.parametrize(
    "document, location, message",
    [
        ({"space": {"labels": ["a", "a"]}}, "space.labels", "carrier labels must be distinct"),
        (
            {"space": {"labels": ["a", "b"]},
             "relations": {"m": {"encoding": "metric", "matrix": [[0, 1], [2, 0]]}}},
            "relations.m.matrix",
            "not symmetric: d[0][1]=1 != d[1][0]=2",
        ),
        (
            {"space": {"labels": ["a", "b"]},
             "relations": {"d": {"encoding": "discrete"},
                           "s": {"encoding": "subspace", "parent": "d", "subset": 0}}},
            "relations.s.subset",
            "subspace carrier must be nonempty",
        ),
        (
            {"space": {"labels": ["a", "b", "c"]},
             "group": {"cayley": [[1, 0, 2], [0, 1, 2], [2, 2, 2]]}},
            "group.cayley",
            "cayley row 2 is not a permutation",
        ),
        (
            {"space": {"labels": ["a", "b"]}, "maps": {"f": {"images": [0, 2]}}},
            "maps.f.images",
            "image of element 1 out of range: 2",
        ),
        (
            {"space": {"labels": ["a", "b"]}, "partition": {"blocks": [[0, 1], [1]]}},
            "partition.blocks",
            "partition block 1 overlaps an earlier block",
        ),
    ],
)
def test_library_refusals_name_the_document_field(document, location, message):
    # each field passes the parser's own checks and is refused by the
    # library constructor, whose message the parser keeps
    with pytest.raises(WorkspaceError) as raised:
        parse_workspace(json.dumps(document))
    assert raised.value.location == location
    assert str(raised.value) == f"{location}: {message}"

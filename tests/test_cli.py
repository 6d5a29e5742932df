import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from proxikit import parse_workspace, run_command
from proxikit.cli import VERBS, build_parser, main, parse_args
from proxikit.workspace import WorkspaceError

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
MANIFEST = json.loads((FIXTURES / "manifest.json").read_text())


def run_entry(entry):
    ws = None
    if entry["document"]:
        ws = parse_workspace((FIXTURES / entry["document"]).read_text())
    return run_command(entry["verb"], ws, entry["flags"])


@pytest.mark.parametrize("entry", MANIFEST, ids=lambda e: e["name"])
def test_fixture_matches_golden(entry):
    result = run_entry(entry)
    golden = (FIXTURES / entry["golden"]).read_text()
    if entry["format"] == "json":
        rendered = json.dumps(result.payload, sort_keys=True, indent=2) + "\n"
    else:
        rendered = result.text + "\n"
    assert rendered == golden
    assert result.exit_code == entry["exit"]


@pytest.mark.parametrize("entry", MANIFEST, ids=lambda e: e["name"])
def test_reports_byte_identical_across_runs(entry):
    first = run_entry(entry)
    second = run_entry(entry)
    assert first.text == second.text
    assert json.dumps(first.payload, sort_keys=True) == json.dumps(
        second.payload, sort_keys=True
    )


@pytest.mark.parametrize("entry", MANIFEST, ids=lambda e: e["name"])
def test_witnesses_exactly_on_failures(entry):
    result = run_entry(entry)
    has_witness = bool(result.payload.get("witnesses")) or bool(
        result.payload.get("counterexamples")
    )
    if result.exit_code == 1:
        assert has_witness
    if result.exit_code == 0:
        assert not has_witness


def test_fuzz_failure_carries_serialized_counterexamples():
    result = run_command("fuzz", None, {"theorem": "every-cech-is-lodato"})
    assert result.exit_code == 1
    assert result.payload["counterexamples"]


def test_scan_cap_is_input_error_without_override():
    # {a} near {a} only: not Cech, so check-axioms reads the table
    document = {
        "space": {"labels": list("abcdefgh")},
        "relations": {"r": {"encoding": "explicit", "near": [[1, 1]]}},
    }
    ws = parse_workspace(json.dumps(document))
    with pytest.raises(ValueError, match="L1-L4 table scan .* pass max_size=8"):
        run_command("check-axioms", ws, {"rel": "r"})
    ran = run_command("check-axioms", ws, {"rel": "r", "max_n": 8})
    assert ran.exit_code == 1


def test_unknown_verb_rejected():
    with pytest.raises(WorkspaceError, match="unknown verb"):
        run_command("frobnicate", None, {})


def test_missing_section_is_input_error():
    ws = parse_workspace('{"space": {"labels": ["a", "b"]}}')
    with pytest.raises(WorkspaceError, match="group"):
        run_command("group-check", ws, {})


def test_main_exit_codes(capsys):
    doc = str(FIXTURES / "two_points.json")
    assert main(["check-axioms", doc, "--rel", "d"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[:2] == ["L1 PASS", "L2 PASS"]
    assert (
        main(["iso-theorems", str(FIXTURES / "z2_first_iso.json"), "--which", "first",
              "--rel", "d", "--rel2", "c", "--map", "id"])
        == 1
    )
    capsys.readouterr()
    assert main(["check-axioms", doc, "--rel", "zzz"]) == 2
    err = capsys.readouterr().err
    assert "unknown relation" in err


@pytest.mark.parametrize(
    "relation, location",
    [
        ({"encoding": "metric", "matrix": [1, 2]}, "relations.d.matrix[0]"),
        ({"encoding": "metric", "matrix": [[0, "x"], ["x", 0]]}, "relations.d.matrix[0][1]"),
        ({"encoding": "metric", "matrix": [[0, None], [None, 0]]}, "relations.d.matrix[0][1]"),
        ({"encoding": "metric", "matrix": [[0, True], [True, 0]]}, "relations.d.matrix[0][1]"),
        ({"encoding": "product", "factors": [["e"], "e"]}, "relations.d.factors"),
    ],
)
def test_malformed_relation_fields_exit_2_naming_the_field(relation, location, tmp_path, capsys):
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({
        "space": {"labels": ["a", "b"]},
        "relations": {"d": relation, "e": {"encoding": "discrete"}},
    }))
    assert main(["check-axioms", str(doc), "--rel", "d"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {location}: ")
    assert "Traceback" not in err


def test_main_reads_stdin(tmp_path, monkeypatch):
    result = subprocess.run(
        [sys.executable, "-m", "proxikit.cli", "check-axioms", "-", "--rel", "d"],
        input=(FIXTURES / "two_points.json").read_text(),
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "L5 PASS" in result.stdout


def test_console_script_json_format():
    result = subprocess.run(
        [
            sys.executable, "-m", "proxikit.cli",
            "check-axioms", str(FIXTURES / "two_points.json"),
            "--rel", "d", "--format", "json",
        ],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["ok"] is True and payload["verdicts"]["L5"] is True


def test_enumerate_verb():
    result = run_command("enumerate", None, {"n": 2, "axiom_class": "lodato"})
    assert result.exit_code == 0
    assert result.payload["count"] == 2


def test_fuzz_verb_scope_override():
    result = run_command(
        "fuzz", None,
        {"theorem": "every-cech-is-lodato", "max_order": 2, "classes": "cech"},
    )
    assert result.exit_code == 0  # no counterexamples below three points
    assert result.payload["instances"] == 3
    full = run_command("fuzz", None, {"theorem": "every-cech-is-lodato"})
    assert full.exit_code == 1
    assert len(full.payload["counterexamples"]) == 3


@pytest.mark.parametrize(
    "flag, value",
    [("--max-order", "0"), ("--max-order", "-1"), ("--classes", ""), ("--classes", "cech,")],
)
def test_fuzz_rejects_empty_scope_flags(flag, value, capsys):
    code = main(["fuzz", "--theorem", "every-cech-is-lodato", flag, value])
    assert code == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--theorem", "every-cech-is-lodato", "--classes", "foo"], "'foo'"),
        (["--theorem", "untrue-claim"], "known ids"),
    ],
)
def test_fuzz_rejects_unknown_ids(flags, message, capsys):
    assert main(["fuzz", *flags]) == 2
    assert message in capsys.readouterr().err


def test_census_at_n4_counts_and_at_n5_names_the_enumeration_cap(capsys):
    assert main(["census", "--n", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:4] == ["cech 64", "efremovic 15", "lodato 15", "lodato_and_ef 15"]
    assert main(["census", "--n", "5"]) == 2
    err = capsys.readouterr().err
    assert "capped at n <= 4" in err and "1024 candidate point relations" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["enumerate", "--n", "5"], "1024 candidate point relations"),
        (["enumerate", "--n", "9", "--class", "lodato"], "Bell(9) = 21147 set partitions"),
        (["enumerate", "--n", "9", "--class", "efremovic"], "Bell(9) = 21147 set partitions"),
    ],
)
def test_enumeration_caps_name_the_class_that_would_run(argv, message, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "axiom scan" not in err


def test_fuzz_over_partition_classes_runs_above_the_cech_cap(capsys):
    argv = ["fuzz", "--theorem", "every-cech-is-lodato", "--classes", "lodato", "--max-order", "5"]
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines() == ["instances 75", "counterexamples 0"]


@pytest.mark.parametrize("source", ["cech", "lodato"])
def test_fuzz_over_verified_structures_runs_to_the_catalog_order(source, capsys):
    argv = ["fuzz", "--theorem", "translations-are-proximal-isomorphisms", "--classes", source,
            "--max-order", "8"]
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines() == ["instances 64", "counterexamples 0"]


def test_fuzz_over_every_cech_relation_keeps_the_enumeration_cap(capsys):
    argv = ["fuzz", "--theorem", "multiplication-continuity-gives-inversion", "--classes", "cech",
            "--max-order", "5"]
    assert main(argv) == 2
    assert "capped at n <= 4" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-3"])
def test_max_n_below_one_is_rejected(value, capsys):
    probes = str(FIXTURES / "sample_probes.json")
    assert main(["descriptive-check", probes, "--probes", "q", "--max-n", value]) == 2
    assert f"--max-n must be at least 1, got {value}" in capsys.readouterr().err
    assert main(["group-check", str(FIXTURES / "z3_group.json"), "--max-n", value]) == 2
    assert f"--max-n must be at least 1, got {value}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--n", "2"],
        ["fuzz", "--theorem", "every-cech-is-lodato"],
        ["census", "--n", "2"],
    ],
)
def test_document_free_verbs_take_no_max_n(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--max-n", "99"])
    assert exc.value.code == 2
    assert "--max-n" in capsys.readouterr().err


def test_quotient_max_n_raises_the_pullback_cap(tmp_path, capsys):
    # the empty set near itself: not Cech, so the quotient scans the table;
    # singletons in reverse order are not the identity pullback
    document = {
        "space": {"labels": list("abcdefgh")},
        "relations": {"e": {"encoding": "explicit", "near": [[0, 0]]}},
        "partition": {"blocks": [[i] for i in reversed(range(8))]},
    }
    path = tmp_path / "wide_quotient.json"
    path.write_text(json.dumps(document))
    assert main(["quotient", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: exhaustive pullback table scan on a 8-element carrier exceeds"
        " the cap 7; pass max_size=8 to run it anyway\n"
    )
    assert main(["quotient", str(path), "--max-n", "8", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["carrier"] == list("hgfedcba") and payload["rows"] == [1] + [0] * 255
    assert main(["quotient", str(FIXTURES / "z4_quotient.json"), "--max-n", "99"]) == 0


def test_mapping_space_takes_no_max_n(capsys):
    # descriptive relations are Cech, so the map-set test reads no table
    argv = ["mapping-space", str(FIXTURES / "mapping_space.json"), "--set1", "id", "--set2", "id"]
    assert main(argv) == 0
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--max-n", "99"])
    assert exc.value.code == 2
    assert "--max-n" in capsys.readouterr().err


def test_topology_checks_kuratowski_once(monkeypatch, capsys):
    from proxikit import axioms, cli

    calls = []
    original = axioms.check_kuratowski

    def counted(rel, **kwargs):
        calls.append(rel)
        return original(rel, **kwargs)

    monkeypatch.setattr(axioms, "check_kuratowski", counted)
    monkeypatch.setattr(cli, "check_kuratowski", counted)
    assert main(["topology", str(FIXTURES / "two_points.json"), "--rel", "d"]) == 0
    assert len(calls) == 1


def test_iso_theorems_on_a_group_above_max_n_names_the_cap(tmp_path, capsys):
    n = 8
    document = {
        "space": {"labels": list("abcdefgh")},
        # only {a} near {a}: not Cech, so every pcont check on it reads the table
        "relations": {"x": {"encoding": "explicit", "near": [[1, 1]]}, "c": {"encoding": "coarse"}},
        "group": {"cayley": [[(i + j) % n for j in range(n)] for i in range(n)], "identity": 0},
        "maps": {"id": {"images": list(range(n))}},
    }
    path = tmp_path / "z8.json"
    path.write_text(json.dumps(document))
    # the inverse of id: coarse -> x is not pcont
    argv = ["iso-theorems", str(path), "--which", "first", "--rel", "x", "--rel2", "c"]
    assert main([*argv, "--max-n", "7"]) == 2
    assert "pcont table scan on a 8-element carrier exceeds the cap 7" in capsys.readouterr().err
    assert main([*argv, "--max-n", "8"]) == 1
    assert "proximal inverse_pcont FAIL" in capsys.readouterr().out


def test_iso_theorems_labels_each_witness_on_its_own_carrier(tmp_path, capsys):
    # V4 with c = ab; the zero-distance classes are the cosets of <c>.  With
    # H = <a> and N = <b> the canonical map H/(H cap N) -> HN/N is not a
    # proximal isomorphism, and its inverse_pcont witness lies in HN/N.
    document = {
        "space": {"labels": ["e", "a", "b", "c"]},
        "relations": {"m": {"encoding": "metric", "matrix": [
            [0, 1, 1, 0], [1, 0, 0, 1], [1, 0, 0, 1], [0, 1, 1, 0],
        ]}},
        "group": {"cayley": [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]],
                  "identity": 0},
    }
    path = tmp_path / "v4.json"
    path.write_text(json.dumps(document))
    argv = ["iso-theorems", str(path), "--which", "second", "--subset", "3", "--normal", "5"]
    assert main(argv) == 1
    out = capsys.readouterr().out
    assert "proximal inverse_pcont FAIL witness sets=({e|b}, {a|c}) masks=(1, 2)" in out
    assert main([*argv, "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["witnesses"] == {"inverse_pcont": {"masks": [1, 2], "labels": [["e|b"], ["a|c"]]}}


def test_group_check_on_order_twelve_runs_without_max_n(tmp_path, capsys):
    n = 12
    document = {
        "space": {"labels": [f"x{i}" for i in range(n)]},
        "relations": {"d": {"encoding": "discrete"}},
        "group": {"cayley": [[(i + j) % n for j in range(n)] for i in range(n)], "identity": 0},
    }
    path = tmp_path / "z12.json"
    path.write_text(json.dumps(document))
    assert main(["group-check", str(path)]) == 0
    assert main(["translations", str(path)]) == 0


def test_topology_on_a_twelve_point_cech_document_runs_without_max_n(tmp_path, capsys):
    document = {
        "space": {"labels": [f"x{i}" for i in range(12)]},
        "relations": {"d": {"encoding": "discrete"}},
    }
    path = tmp_path / "twelve.json"
    path.write_text(json.dumps(document))
    assert main(["topology", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[-2:] == ["kuratowski PASS", "topology PASS"]


def test_python_dash_m_runs_the_cli():
    result = subprocess.run(
        [
            sys.executable, "-m", "proxikit",
            "check-axioms", str(FIXTURES / "two_points.json"), "--rel", "d",
        ],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout == (FIXTURES / "golden" / "check_axioms_two_points.txt").read_text()


def test_closing_the_pipe_early_ends_without_a_traceback():
    # the sweep prints about 13 MB, far more than a pipe holds, so the CLI is
    # still writing when the reader closes its end
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "proxikit",
            "fuzz", "--theorem", "second-isomorphism-theorem", "--classes", "lodato",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    assert proc.stdout.readline() == "instances 5551\n"
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait() == 1
    assert "Traceback" not in err, err


def test_pcont_verb_iso_flag():
    ws = parse_workspace((FIXTURES / "z2_first_iso.json").read_text())
    result = run_command("pcont", ws, {"rel": "d", "rel2": "c", "map": "id", "iso": True})
    assert result.exit_code == 1
    assert result.payload["verdicts"]["inverse_pcont"] is False


def test_subgroup_and_translations_verbs():
    ws = parse_workspace((FIXTURES / "z3_group.json").read_text())
    subgroup = run_command("subgroup", ws, {"rel": "d", "subset": 1})
    assert subgroup.exit_code == 0
    translations = run_command("translations", ws, {"rel": "d"})
    assert translations.exit_code == 0
    assert "translation a: left PASS, right PASS" in translations.text


def test_product_verb_self_product():
    ws = parse_workspace((FIXTURES / "z2_first_iso.json").read_text())
    result = run_command("product", ws, {"rel": "d"})
    assert result.exit_code == 0


def test_hom_check_verb_with_criterion():
    ws = parse_workspace((FIXTURES / "z2_first_iso.json").read_text())
    result = run_command(
        "hom-check", ws, {"rel": "d", "rel2": "c", "map": "id", "criterion": True}
    )
    assert result.exit_code == 0
    assert result.payload["criterion"]["implication_ok"] is True


def test_quotient_verb_with_normal_flag():
    ws = parse_workspace((FIXTURES / "z4_quotient.json").read_text())
    result = run_command("quotient", ws, {"rel": "d", "normal": 0b0101})
    assert result.exit_code == 0
    assert result.payload["carrier"] == ["a|c", "b|d"]


def test_iso_theorems_non_surjective_map_reports_witness():
    text = """{
      "space": {"labels": ["a", "b"]},
      "relations": {"d": {"encoding": "discrete"}},
      "group": {"cayley": [[0, 1], [1, 0]], "identity": 0},
      "maps": {"const": {"images": [0, 0]}}
    }"""
    ws = parse_workspace(text)
    result = run_command("iso-theorems", ws, {"which": "first", "rel": "d", "map": "const"})
    assert result.exit_code == 1
    assert "surjective" in result.payload["witnesses"]
    assert "surjective FAIL witness" in result.text


def test_product_relation_rejected_by_table_verbs():
    text = """{
      "space": {"labels": ["a", "b"]},
      "relations": {
        "d": {"encoding": "discrete"},
        "pr": {"encoding": "product", "factors": ["d", "d"]}
      }
    }"""
    ws = parse_workspace(text)
    with pytest.raises(WorkspaceError, match="product relation"):
        run_command("check-axioms", ws, {"rel": "pr"})


@pytest.mark.parametrize("verb", ["group-check", "subgroup", "product"])
def test_unknown_class_is_a_flags_error(verb):
    ws = parse_workspace((FIXTURES / "z2_first_iso.json").read_text())
    message = r"--class must be one of \['cech', 'efremovic', 'lodato'\]"
    with pytest.raises(WorkspaceError, match=message):
        run_command(verb, ws, {"rel": "d", "subset": 1, "axiom_class": "foo"})


def test_readme_lists_the_verb_table_in_order():
    readme = (FIXTURES.parent / "README.md").read_text()
    listed = readme.split("\nVerbs: ", 1)[1].split(".\n", 1)[0]
    assert re.findall(r"`([a-z-]+)`", listed) == list(VERBS)


@pytest.mark.parametrize("verb", list(VERBS))
def test_every_verb_has_help(verb, capsys):
    with pytest.raises(SystemExit) as exc:
        main([verb, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: proxikit {verb} ")


@pytest.mark.parametrize("verb", [v for v, spec in VERBS.items() if spec.document])
def test_document_verbs_need_a_document(verb):
    with pytest.raises(WorkspaceError, match="needs a workspace document"):
        run_command(verb, None, {})


def test_quotient_by_a_normal_subgroup_reports_its_cayley_table():
    ws = parse_workspace((FIXTURES / "z4_quotient.json").read_text())
    result = run_command("quotient", ws, {"rel": "d", "normal": 0b0101})
    assert result.text.splitlines() == ["carrier: a|c b|d", "cayley: 0,1 1,0", "rows: 0 10 12 14"]
    assert result.payload["cayley"] == [[0, 1], [1, 0]]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["subgroup", str(FIXTURES / "z3_group.json")], "--subset"),
        (["enumerate"], "--n"),
        (["census"], "--n"),
        (["fuzz"], "--theorem"),
    ],
)
def test_the_parser_requires_the_required_flags(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"the following arguments are required: {flag}" in capsys.readouterr().err


# --- one-verb parse ---------------------------------------------------------

DOC = "fixtures/z3_group.json"  # parsed, never read
CLI_OPTION = {"axiom_class": "--class", "max_n": "--max-n"}


def manifest_argv(entry):
    argv = [entry["verb"]] + (["fixtures/" + entry["document"]] if entry["document"] else [])
    for key, value in entry["flags"].items():
        option = CLI_OPTION.get(key, "--" + key.replace("_", "-"))
        argv += [option] if value is True else [option, str(value)]
    return argv + ["--format", entry["format"]]


VERB_SHAPES = [
    ["-h"],
    ["--he"],
    [],
    ["--bogus"],
    [DOC, "--format", "xml"],
    [DOC, "--format=json"],
    ["--", DOC],
    [DOC, "--n=2"],
    [DOC, "--cla", "cech"],
    [DOC, "--cla", "foo"],
    [DOC, "extra"],
    [DOC, "--max-n", "x"],
]
ARGVS = [
    *([verb, *shape] for verb in VERBS for shape in VERB_SHAPES),
    *(["--format", "json", verb] for verb in VERBS),
    [],
    ["-h"],
    ["--bogus"],
    ["nope"],
    ["nope", DOC],
    *(manifest_argv(entry) for entry in MANIFEST),
]


def parse_outcome(parse, argv, capsys):
    try:
        outcome = list(vars(parse(list(argv))).items())
    except SystemExit as exc:
        outcome = ("exit", exc.code)
    return outcome, capsys.readouterr()


@pytest.mark.parametrize("argv", ARGVS, ids=lambda argv: " ".join(argv) or "no-args")
def test_main_parses_like_the_full_parser(argv, capsys):
    # the full parser is the reference: same namespace (keys in order), or
    # the same exit code, stdout and stderr
    full = parse_outcome(build_parser().parse_args, argv, capsys)
    assert parse_outcome(parse_args, argv, capsys) == full


def test_main_builds_only_the_subparser_of_its_verb(monkeypatch, capsys):
    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def counted(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
    assert main(["census", "--n", "2"]) == 0
    assert built == ["census"]
    monkeypatch.setattr(sys, "argv", ["proxikit", "census", "--n", "2"])
    assert main() == 0
    assert built == ["census"] * 2
    built.clear()
    with pytest.raises(SystemExit) as exc:
        main(["-h"])
    assert exc.value.code == 0
    assert built == list(VERBS)


@pytest.mark.parametrize(
    "argv, message",
    [
        ([], "error: the following arguments are required: verb\n"),
        (["nope"], "error: argument verb: invalid choice: 'nope' (choose from 'check-axioms',"),
    ],
    ids=["no-verb", "unknown-verb"],
)
def test_verb_errors_name_the_verb_argument(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_map_verbs_on_a_two_map_document_need_map(tmp_path, capsys):
    document = {
        "space": {"labels": ["a", "b", "c"]},
        "relations": {"m": {"encoding": "discrete"}},
        "group": {"cayley": [[(i + j) % 3 for j in range(3)] for i in range(3)], "identity": 0},
        "maps": {"shift": {"images": [1, 2, 0]}, "swap": {"images": [0, 2, 1]}},
    }
    path = tmp_path / "two_maps.json"
    path.write_text(json.dumps(document))
    for argv in (
        ["pcont", str(path), "--rel", "m"],
        ["hom-check", str(path), "--rel", "m"],
        ["iso-theorems", str(path), "--which", "first", "--rel", "m"],
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: maps: document has 2 maps; pass --map NAME\n"
    assert main(["pcont", str(path), "--rel", "m", "--map", "swap", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["map"] == "swap"
    del document["maps"]
    path.write_text(json.dumps(document))
    assert main(["pcont", str(path), "--rel", "m", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["map"] == "id"

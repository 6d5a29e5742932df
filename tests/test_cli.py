import argparse
import io
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from proxikit import parse_workspace, run_command
from proxikit.cli import VERBS, Verb, build_parser, main, parse_args
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


def check_envelope(verb, result):
    """Payload ``verb`` is the verb, ``ok`` is the exit verdict, and a
    witness is reported exactly on a failure (fuzz lists counterexamples)."""
    payload = result.payload
    assert payload["verb"] == verb
    assert payload["ok"] is (result.exit_code == 0)
    has_witness = bool(payload.get("witnesses")) or bool(payload.get("counterexamples"))
    assert has_witness is (result.exit_code == 1)
    assert payload.get("witnesses", True) != {}


@pytest.mark.parametrize("entry", MANIFEST, ids=lambda e: e["name"])
def test_witnesses_exactly_on_failures(entry):
    check_envelope(entry["verb"], run_entry(entry))


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


def test_main_reads_a_document_from_stdin_in_process(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO((FIXTURES / "two_points.json").read_text()))
    assert main(["check-axioms", "-", "--rel", "d"]) == 0
    assert "L5 PASS" in capsys.readouterr().out


def test_main_refuses_an_unreadable_document(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert main(["check-axioms", str(missing), "--rel", "d"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot read {missing}: ")


def test_main_prints_document_warnings_on_stderr(tmp_path, capsys):
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({
        "space": {"labels": ["a", "b"]},
        "relations": {"x": {"encoding": "explicit", "near": [[1, 2], [1, 1], [2, 2], [3, 3]]}},
    }))
    main(["check-axioms", str(doc), "--rel", "x"])
    captured = capsys.readouterr()
    assert captured.err == (
        "warning: relations.x: asymmetric near-pair list; symmetric closure applied\n"
    )
    assert captured.out.startswith("L1 ")


def test_subgroup_refuses_a_subset_mask_out_of_range(capsys):
    assert main(["subgroup", str(FIXTURES / "z3_group.json"), "--rel", "d", "--subset", "99"]) == 2
    assert capsys.readouterr().err == "error: flags: mask 99 out of range for carrier of size 3\n"


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


def z8_document(tmp_path):
    """Z8 with the relation x, only {a} near {a}: not even a proximity (L3
    fails) and not Cech, so every check that reads it scans the table."""
    n = 8
    document = {
        "space": {"labels": list("abcdefgh")},
        "relations": {"x": {"encoding": "explicit", "near": [[1, 1]]}, "c": {"encoding": "coarse"}},
        "group": {"cayley": [[(i + j) % n for j in range(n)] for i in range(n)], "identity": 0},
        "maps": {"id": {"images": list(range(n))}},
        "probes": {"q": {"arity": 1, "values": [[i] for i in range(n)]}},
    }
    path = tmp_path / "z8.json"
    path.write_text(json.dumps(document))
    return str(path)


def test_iso_theorems_on_a_group_above_max_n_names_the_cap(tmp_path, capsys):
    # x is no proximal group, so the harnesses refuse it before any scan
    path = z8_document(tmp_path)
    argv = ["iso-theorems", path, "--which", "first", "--rel", "x", "--rel2", "c"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: domain structure is not a verified proximal group\n"
    argv2 = ["iso-theorems", path, "--which", "second", "--rel", "x", "--subset", "255",
             "--normal", "1"]
    assert main(argv2) == 2
    assert capsys.readouterr().err == "error: input is not a verified proximal group\n"
    for args in (argv, argv2):
        with pytest.raises(SystemExit) as exc:
            main([*args, "--max-n", "8"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --max-n 8" in capsys.readouterr().err


# Per verb that takes --max-n, flags that make it read x on the Z8 document.
MAX_N_READS = {
    "check-axioms": ["--rel", "x"],
    "topology": ["--rel", "x"],
    "pcont": ["--rel", "x"],
    "group-check": ["--rel", "x"],
    "translations": ["--rel", "x"],
    "subgroup": ["--rel", "x", "--subset", "255"],
    "hom-check": ["--rel", "x"],
    "quotient": ["--rel", "x", "--normal", "1"],
    # a descriptive relation is Cech, so no read is capped (ROADMAP item 9)
    "descriptive-check": ["--probes", "q"],
}
CAPPED_READ = re.compile(
    r"^error: exhaustive (L1-L4 table|closed-family pair|pcont table|pullback table) scan"
    r" on a 8-element carrier exceeds the cap 7; pass max_size=8 to run it anyway\n$"
)


def test_max_n_is_taken_exactly_by_the_verbs_with_a_capped_read():
    assert sorted(MAX_N_READS) == sorted(v for v, spec in VERBS.items() if spec.max_n)


@pytest.mark.parametrize("verb", list(VERBS))
def test_max_n_raises_a_cap_that_its_verb_can_reach(verb, tmp_path, capsys):
    path = z8_document(tmp_path)
    spec = VERBS[verb]
    if not spec.max_n:
        required = [arg for flag in spec.required for arg in (flag, "1")]
        with pytest.raises(SystemExit) as exc:
            main([verb, *([path] if spec.document else []), *required, "--max-n", "8"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --max-n 8" in capsys.readouterr().err
        return
    argv = [verb, path, *MAX_N_READS[verb]]
    if verb == "descriptive-check":
        assert main(argv) == 0 and main([*argv, "--max-n", "8"]) == 0
        return
    assert main(argv) == 2
    assert CAPPED_READ.match(capsys.readouterr().err)
    assert main([*argv, "--max-n", "8"]) in (0, 1)
    assert capsys.readouterr().err == ""


def test_iso_theorems_refuses_a_cech_relation_that_is_no_coset_relation(tmp_path, capsys):
    # a -- b -- c on Z3: Cech, but P[e] = {a, b} is no subgroup
    points = [0b011, 0b111, 0b110]
    near = [[a, b] for a in range(8) for b in range(8)
            if any(points[i] & b for i in range(3) if a >> i & 1)]
    document = {
        "space": {"labels": ["a", "b", "c"]},
        "relations": {"p": {"encoding": "explicit", "near": near}, "d": {"encoding": "discrete"}},
        "group": {"cayley": [[0, 1, 2], [1, 2, 0], [2, 0, 1]], "identity": 0},
        "maps": {"id": {"images": [0, 1, 2]}},
    }
    path = tmp_path / "z3_path.json"
    path.write_text(json.dumps(document))
    cases = [
        (["--which", "first", "--rel", "p"], "domain structure"),
        (["--which", "first", "--rel", "d", "--rel2", "p"], "codomain structure"),
        (["--which", "second", "--rel", "p", "--subset", "7", "--normal", "1"], "input"),
        (["--which", "third", "--rel", "p", "--normal", "1", "--normal2", "7"], "input"),
    ]
    for flags, side in cases:
        assert main(["iso-theorems", str(path), *flags]) == 2
        assert capsys.readouterr().err == f"error: {side} is not a verified proximal group\n"


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


def test_iso_theorems_third_runs_to_a_report(capsys):
    # Z4, discrete, N = {a} inside K = {a, c}: (G/N)/(K/N) -> G/K passes
    argv = ["iso-theorems", str(FIXTURES / "z4_quotient.json"), "--which", "third",
            "--rel", "d", "--normal", "1", "--normal2", "5"]
    assert main(argv) == 0
    assert capsys.readouterr().out == (
        "surjective PASS\n"
        "group-isomorphism PASS\n"
        "proximal bijective PASS\n"
        "proximal pcont PASS\n"
        "proximal inverse_pcont PASS\n"
    )
    assert main([*argv, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "verb": "iso-theorems", "ok": True, "which": "third", "relation": "d",
        "normal_mask": 1, "containing_mask": 5, "surjective": True,
        "group_isomorphism": True,
        "proximal": {"bijective": True, "pcont": True, "inverse_pcont": True},
    }


def test_iso_theorems_refuses_a_map_that_is_no_homomorphism(tmp_path, capsys):
    # the swap of Z2 sends the identity to b
    document = json.loads((FIXTURES / "z2_first_iso.json").read_text())
    document["maps"]["swap"] = {"images": [1, 0]}
    path = tmp_path / "swap.json"
    path.write_text(json.dumps(document))
    argv = ["iso-theorems", str(path), "--which", "first", "--rel", "d", "--map", "swap"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: map is not a group homomorphism at (0, 0)\n"



def test_iso_theorems_first_names_the_missed_point_as_the_bijective_witness(tmp_path, capsys):
    # the constant map of Z2 misses b, so no canonical map exists: bijective
    # fails with b's singleton on the codomain, as surjective does
    document = json.loads((FIXTURES / "z2_first_iso.json").read_text())
    document["maps"]["const"] = {"images": [0, 0]}
    path = tmp_path / "const.json"
    path.write_text(json.dumps(document))
    argv = ["iso-theorems", str(path), "--which", "first", "--rel", "d", "--map", "const"]
    assert main(argv) == 1
    assert capsys.readouterr().out == (
        "surjective FAIL witness sets=({b}) masks=(2)\n"
        "group-isomorphism FAIL\n"
        "proximal bijective FAIL witness sets=({b}) masks=(2)\n"
    )
    assert main([*argv, "--format", "json"]) == 1
    witness = '{\n      "labels": [\n        [\n          "b"\n        ]\n      ],\n' \
        '      "masks": [\n        2\n      ]\n    }'
    assert capsys.readouterr().out == (
        '{\n  "group_isomorphism": false,\n  "map": "const",\n  "ok": false,\n'
        '  "proximal": {\n    "bijective": false\n  },\n  "relation": "d",\n'
        '  "relation2": "d",\n  "surjective": false,\n  "verb": "iso-theorems",\n'
        '  "which": "first",\n  "witnesses": {\n'
        f'    "bijective": {witness},\n    "surjective": {witness}\n  }}\n}}\n'
    )

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


@pytest.mark.parametrize("distance", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_distances_exit_2_naming_the_entry(distance, tmp_path, capsys):
    # json.loads accepts these three literals; they are not distances
    doc = tmp_path / "doc.json"
    doc.write_text(
        '{"space": {"labels": ["a", "b"]}, "relations": {"m": {"encoding": "metric",'
        f' "matrix": [[0, {distance}], [{distance}, 0]]}}}}}}'
    )
    assert main(["check-axioms", str(doc)]) == 2
    err = capsys.readouterr().err
    assert err == "error: relations.m.matrix[0][1]: distances must be finite numbers\n"


def test_bool_probe_arity_exits_2_naming_the_field(tmp_path, capsys):
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({
        "space": {"labels": ["a", "b"]},
        "probes": {"q": {"arity": True, "values": [[0], [1]]}},
    }))
    assert main(["descriptive-check", str(doc), "--probes", "q"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: probes.q.arity: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("identity", [False, 0.0])
def test_non_int_group_identity_exits_2_naming_the_field(identity, tmp_path, capsys):
    # False == 0 and 0.0 == 0, so only the type check refuses them
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({
        "space": {"labels": ["a", "b"]},
        "relations": {"d": {"encoding": "discrete"}},
        "group": {"cayley": [[0, 1], [1, 0]], "identity": identity},
    }))
    assert main(["group-check", str(doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: group.identity: must be an element index\n"


def test_product_is_an_unknown_encoding(tmp_path, capsys):
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({
        "space": {"labels": ["a", "b"]},
        "relations": {
            "d": {"encoding": "discrete"},
            "pr": {"encoding": "product", "factors": ["d", "d"]},
        },
    }))
    assert main(["check-axioms", str(doc), "--rel", "d"]) == 2
    err = capsys.readouterr().err
    assert err == "error: relations.pr.encoding: unknown encoding 'product'\n"


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


def test_hom_check_criterion_prints_a_failing_hypothesis(capsys):
    # coarse -> discrete: the identity is not pcont, and the hypothesis
    # fails with it, so the implication holds vacuously
    argv = ["hom-check", str(FIXTURES / "z2_first_iso.json"),
            "--rel", "c", "--rel2", "d", "--map", "id", "--criterion"]
    assert main(argv) == 1
    assert capsys.readouterr().out.splitlines() == [
        "group_homomorphism PASS",
        "pcont FAIL witness sets=({a}, {b}) masks=(1, 2)",
        "criterion hypothesis FAIL",
        "criterion conclusion FAIL",
        "criterion implication PASS",
    ]
    assert main([*argv, "--format", "json"]) == 1
    payload = {
        "criterion": {"conclusion": False, "hypothesis": False, "implication_ok": True},
        "map": "id", "ok": False, "relation": "c", "relation2": "d", "verb": "hom-check",
        "verdicts": {"group_homomorphism": True, "pcont": False},
        "witnesses": {"pcont": {"labels": [["a"], ["b"]], "masks": [1, 2]}},
    }
    assert capsys.readouterr().out == json.dumps(payload, sort_keys=True, indent=2) + "\n"


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


@pytest.mark.parametrize("verb", ["group-check", "subgroup", "product"])
def test_unknown_class_is_a_flags_error(verb, capsys):
    # the proximal-group verdict is the same under every class, so these
    # verbs take no --class; check-axioms still checks the one it is given
    document = FIXTURES / "z2_first_iso.json"
    subset = ["--subset", "1"] if verb == "subgroup" else []
    with pytest.raises(SystemExit) as exc:
        main([verb, str(document), "--rel", "d", *subset, "--class", "lodato"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --class lodato" in capsys.readouterr().err
    ws = parse_workspace(document.read_text())
    message = r"--class must be one of \['cech', 'efremovic', 'kuratowski', 'lodato'\]"
    with pytest.raises(WorkspaceError, match=message):
        run_command("check-axioms", ws, {"rel": "d", "axiom_class": "foo"})


# The README's example document: ``s`` is the subspace of ``d`` on {a, b}.
SUBSPACE_DOCUMENT = {
    "space": {"labels": ["a", "b", "c", "d"]},
    "relations": {
        "d": {"encoding": "discrete"},
        "s": {"encoding": "subspace", "parent": "d", "subset": 3},
    },
    "group": {"cayley": [[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2]], "identity": 0},
    "maps": {"id": {"images": [0, 1, 2, 3]}},
    "partition": {"blocks": [[0, 2], [1, 3]]},
}


@pytest.mark.parametrize(
    "argv",
    [
        ["pcont", "--rel", "s"],
        ["group-check", "--rel", "s"],
        ["translations", "--rel", "s"],
        ["subgroup", "--rel", "s", "--subset", "5"],
        ["product", "--rel", "s"],
        ["hom-check", "--rel", "s"],
        ["quotient", "--rel", "s"],
        ["quotient", "--rel", "s", "--normal", "5"],
        ["iso-theorems", "--which", "first", "--rel", "s"],
        ["iso-theorems", "--which", "second", "--rel", "s", "--subset", "5", "--normal", "5"],
        ["iso-theorems", "--which", "third", "--rel", "s", "--normal", "5", "--normal2", "15"],
        ["pcont", "--rel", "d", "--rel2", "s"],
        ["hom-check", "--rel", "d", "--rel2", "s"],
        ["hom-check", "--rel", "d", "--rel2", "s", "--criterion"],
        ["product", "--rel", "d", "--rel2", "s"],
        ["iso-theorems", "--which", "first", "--rel", "d", "--rel2", "s"],
    ],
    ids=" ".join,
)
def test_a_relation_off_the_document_carrier_exits_2_naming_it(argv, tmp_path, capsys):
    # these verbs read the relation with the document's group, partition,
    # masks or maps, which all live on the four-point carrier
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps(SUBSPACE_DOCUMENT))
    assert main([argv[0], str(doc), *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: relations.s: relation is on a carrier of size 2,"
        " but this verb reads it with the document carrier of size 4\n"
    )


@pytest.mark.parametrize("verb", ["check-axioms", "topology"])
def test_verbs_that_read_a_relation_alone_take_a_subspace_relation(verb, tmp_path, capsys):
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps(SUBSPACE_DOCUMENT))
    assert main([verb, str(doc), "--rel", "s"]) == 0
    assert capsys.readouterr().err == ""


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


@pytest.mark.parametrize(
    "verb, document, flags, message",
    [
        ("iso-theorems", "z3_group.json", {"which": "fourth", "rel": "d"},
         "--which must be first, second, or third"),
        ("enumerate", None, {}, "enumerate needs --n SIZE"),
        ("census", None, {}, "census needs --n SIZE"),
        ("fuzz", None, {}, "fuzz needs --theorem ID; known ids: "),
    ],
)
def test_run_command_refuses_what_the_parser_stops(verb, document, flags, message):
    # argparse stops these inputs in main, so only a library caller meets them
    ws = parse_workspace((FIXTURES / document).read_text()) if document else None
    with pytest.raises(WorkspaceError, match=f"^flags: {re.escape(message)}") as raised:
        run_command(verb, ws, flags)
    assert raised.value.location == "flags"


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


# --- the report envelope and named inputs ----------------------------------


def test_default_flag_reports_carry_their_verb_verdict_and_witnesses():
    # every document verb with no flags on every fixture document that it
    # gives a report for
    reports = 0
    for path in sorted(FIXTURES.glob("*.json")):
        if path.name == "manifest.json":
            continue
        ws = parse_workspace(path.read_text())
        for verb, spec in VERBS.items():
            if spec.document:
                try:
                    result = run_command(verb, ws, {})
                except (WorkspaceError, ValueError):
                    continue
                check_envelope(verb, result)
                reports += 1
    assert reports > 0


@pytest.mark.parametrize(
    "witnesses, ok", [({}, True), ({}, False), ({"w": {"masks": [1], "labels": [["a"]]}}, False)]
)
def test_run_command_attaches_witnesses_only_when_the_handler_found_any(
    witnesses, ok, monkeypatch
):
    def handler(ws, flags):
        return {"x": 1}, ["line 1", "line 2"], witnesses, ok

    monkeypatch.setitem(VERBS, "census", Verb(handler, document=False))
    result = run_command("census", None, {})
    expected = {"verb": "census", "x": 1, "ok": ok}
    if witnesses:
        expected["witnesses"] = witnesses
    assert result.payload == expected
    assert result.text == "line 1\nline 2"
    assert result.exit_code == (0 if ok else 1)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["group-check", "z3_group.json", "--rel", ""], "relations: unknown relation ''"),
        (["pcont", "two_points.json", "--rel", "d", "--rel2", ""], "relations: unknown relation ''"),
        (["pcont", "z2_first_iso.json", "--rel", "d", "--map", ""], "maps: unknown map ''"),
        (["descriptive-check", "sample_probes.json", "--probes", ""],
         "probes: unknown probe table ''"),
        (["mapping-space", "mapping_space.json", "--probes2", "", "--set1", "id", "--set2", "id"],
         "probes: unknown probe table ''"),
        (["mapping-space", "mapping_space.json", "--set1", "id,", "--set2", "id"],
         "maps: unknown map ''"),
    ],
    ids=["rel", "rel2", "map", "probes", "probes2", "set1"],
)
def test_an_empty_name_is_an_unknown_name(argv, message, capsys):
    # an empty name is looked up like any other name, never replaced by a default
    argv = [argv[0], str(FIXTURES / argv[1]), *argv[2:]]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("verb", list(VERBS))
def test_run_command_refuses_a_flag_its_verb_does_not_declare(verb):
    with pytest.raises(WorkspaceError, match=f"^flags: {verb} takes no flag 'bogus'$") as exc:
        run_command(verb, None, {"bogus": 1})
    assert exc.value.location == "flags"


@pytest.mark.parametrize(
    "verb, document, flags, key",
    [
        ("product", "z3_group.json", {"rel": "d", "max_n": 9}, "max_n"),
        ("iso-theorems", "z3_group.json",
         {"which": "second", "rel": "d", "subset": 7, "normal": 1, "max_n": 9}, "max_n"),
        ("group-check", "z3_group.json", {"rel": "d", "axiom_class": "lodato"}, "axiom_class"),
        ("census", None, {"n": 2, "max_n": 9}, "max_n"),
    ],
)
def test_run_command_refuses_a_retired_flag(verb, document, flags, key):
    ws = parse_workspace((FIXTURES / document).read_text()) if document else None
    declared = {k: v for k, v in flags.items() if k != key}
    assert run_command(verb, ws, declared).exit_code == 0
    with pytest.raises(WorkspaceError, match=f"^flags: {verb} takes no flag '{key}'$"):
        run_command(verb, ws, flags)

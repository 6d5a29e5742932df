"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line (run with ``pytest -s``) and
enforces the stated runtime budget where one applies.
"""
import json
import random
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from proxikit import (
    FuzzScope,
    ProximityRelation,
    all_groups_up_to,
    check_efremovic,
    check_kuratowski,
    check_lodato,
    check_descriptive_lodato,
    cyclic_group,
    default_space,
    enumerate_relations,
    first_iso_harness,
    fuzz_theorem,
    hausdorff_check,
    check_proximal_group,
    identity_map,
    invertible_subsets,
    make_coarse_proximity,
    make_discrete_proximity,
    mine_separating_examples,
    naive_oracle,
    parse_workspace,
    probe_table,
    run_command,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@contextmanager
def criterion(number, name, budget=None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {name}: FAIL")
        raise
    elapsed = time.monotonic() - start
    if budget is not None and elapsed > budget:
        print(f"ACCEPTANCE {number:02d} {name}: FAIL (over budget: {elapsed:.1f}s > {budget}s)")
        raise AssertionError(f"runtime budget exceeded: {elapsed:.1f}s > {budget}s")
    print(f"ACCEPTANCE {number:02d} {name}: PASS ({elapsed:.1f}s)")


def test_criterion_01_axiom_ladder():
    with criterion(1, "axiom ladder", budget=60):
        for n in range(1, 5):
            rel = make_discrete_proximity(default_space(n))
            lodato = check_lodato(rel)
            ef = check_efremovic(rel)
            assert lodato.ok, f"discrete L1-L5 failed at n={n}"
            assert ef.ok, f"discrete EF failed at n={n}"
        rng = random.Random(445566)
        for i in range(1000):
            n = rng.randint(1, 4)
            arity = rng.randint(1, 3)
            values = [
                [rng.randint(0, 3) for _ in range(arity)] for _ in range(n)
            ]
            probes = probe_table(default_space(n), values)
            report = check_descriptive_lodato(probes)
            assert report.ok, f"DL failure on table #{i}: {values}"


def test_criterion_02_oracle_agreement():
    with criterion(2, "oracle agreement", budget=120):
        axioms = ("L1", "L2", "L3", "L4", "L5", "EF", "K1", "K2", "K3", "K4")
        for klass in ("cech", "lodato", "efremovic"):
            for rel in enumerate_relations(2, klass):
                lodato = check_lodato(rel)
                ef = check_efremovic(rel)
                kur = check_kuratowski(rel)
                verdicts = {**lodato.verdicts, **ef.verdicts, **kur.verdicts}
                for axiom in axioms:
                    assert verdicts[axiom] == naive_oracle(rel, axiom)
        rng = random.Random(303808)
        space = default_space(3)
        for i in range(10_000):
            rows = [rng.getrandbits(8) for _ in range(8)]
            shape = i % 3
            if shape >= 1:  # symmetrize and keep the empty subset far
                for a in range(8):
                    for b in range(8):
                        if (rows[a] >> b) & 1:
                            rows[b] |= 1 << a
                rows[0] = 0
                for a in range(8):
                    rows[a] &= ~1
            if shape == 2:  # force intersecting pairs near
                for a in range(8):
                    for b in range(8):
                        if a & b:
                            rows[a] |= 1 << b
            rel = ProximityRelation(space, tuple(rows))
            lodato = check_lodato(rel)
            ef = check_efremovic(rel)
            kur = check_kuratowski(rel)
            verdicts = {**lodato.verdicts, **ef.verdicts, **kur.verdicts}
            for axiom in axioms:
                assert verdicts[axiom] == naive_oracle(rel, axiom), (i, axiom)


def test_criterion_03_translation_sweep():
    with criterion(3, "translations are proximal isomorphisms"):
        enumerated = fuzz_theorem(
            "translations-are-proximal-isomorphisms", FuzzScope(4, ("cech",))
        )
        assert enumerated.instances > 0
        assert not enumerated.counterexamples
        base = fuzz_theorem(
            "translations-are-proximal-isomorphisms",
            FuzzScope(6, ("discrete", "coarse")),
        )
        assert base.instances == 16  # 8 groups of order <= 6, two relations each
        assert not base.counterexamples


def test_criterion_04_subgroup_and_product_inheritance():
    with criterion(4, "subgroup and product inheritance"):
        for scope in (FuzzScope(4, ("cech",)), FuzzScope(6, ("discrete", "coarse"))):
            subgroups = fuzz_theorem("subgroups-inherit-proximal-group", scope)
            assert subgroups.instances > 0
            assert not subgroups.counterexamples
            products = fuzz_theorem("products-inherit-proximal-group", scope)
            assert products.instances > 0
            assert not products.counterexamples


def test_criterion_05_first_iso_reproduction():
    with criterion(5, "first isomorphism failure reproduced"):
        for order in range(2, 7):
            g = cyclic_group(order)
            report = first_iso_harness(
                identity_map(g.space),
                g,
                make_discrete_proximity(g.space),
                g,
                make_coarse_proximity(g.space),
            )
            assert report.surjective and report.group_isomorphism
            assert report.proximal.verdicts["bijective"]
            assert report.proximal.verdicts["pcont"]
            assert not report.proximal.verdicts["inverse_pcont"]
            assert report.proximal.witnesses["inverse_pcont"] == (1, 2), order
            labels = tuple(
                g.space.label_set(w)
                for w in report.proximal.witnesses["inverse_pcont"]
            )
            assert labels == (("a",), ("b",))


def test_criterion_06_third_iso_sweep():
    with criterion(6, "third isomorphism holds at order <= 8", budget=300):
        outcome = fuzz_theorem(
            "third-isomorphism-theorem", FuzzScope(8, ("discrete", "coarse"))
        )
        assert outcome.instances > 0
        assert not outcome.counterexamples


def test_criterion_07_t1_equals_identity_closure():
    with criterion(7, "T1 iff identity closed"):
        checked = 0
        for _, g in all_groups_up_to(4):
            pools = list(enumerate_relations(g.order, "cech"))
            pools.append(make_discrete_proximity(g.space))
            pools.append(make_coarse_proximity(g.space))
            for rel in pools:
                rel = ProximityRelation(g.space, rel.rows, rel.provenance)
                if not check_proximal_group(g, rel).ok:
                    continue
                report = hausdorff_check(g, rel)
                assert report.readings_agree
                checked += 1
        assert checked > 0


def test_criterion_08_invertible_subsets_are_singletons():
    with criterion(8, "invertible subsets are exactly singletons"):
        for name, g in all_groups_up_to(8):
            expected = tuple(1 << i for i in range(g.order))
            assert invertible_subsets(g) == expected, name


def test_criterion_09_census_determinism():
    with criterion(9, "census determinism"):
        def dump(census):
            return json.dumps(census.to_payload(), sort_keys=True, indent=2)

        assert dump(mine_separating_examples(2)) == dump(mine_separating_examples(2))
        deeper = mine_separating_examples(3)
        assert dump(deeper) == dump(mine_separating_examples(3))
        for exemplar, axiom in (
            (deeper.cech_not_lodato, "L5"),
            (deeper.cech_not_ef, "EF"),
        ):
            assert all(
                naive_oracle(exemplar, ax) for ax in ("L1", "L2", "L3", "L4")
            )
            assert not naive_oracle(exemplar, axiom)


def test_criterion_10_cli_round_trip():
    with criterion(10, "CLI golden round trip"):
        manifest = json.loads((FIXTURES / "manifest.json").read_text())
        assert manifest
        for entry in manifest:
            ws = None
            if entry["document"]:
                ws = parse_workspace((FIXTURES / entry["document"]).read_text())
            result = run_command(entry["verb"], ws, entry["flags"])
            golden = (FIXTURES / entry["golden"]).read_text()
            if entry["format"] == "json":
                rendered = json.dumps(result.payload, sort_keys=True, indent=2) + "\n"
            else:
                rendered = result.text + "\n"
            assert rendered == golden, entry["name"]
            assert result.exit_code == entry["exit"], entry["name"]

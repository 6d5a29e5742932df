import gc
import hashlib
import json
import random
import subprocess
import sys
import tracemalloc
from itertools import combinations, islice, product
from pathlib import Path
from typing import Iterator

import pytest

import proxikit
from proxikit import (
    ProximityRelation,
    SpaceMap,
    all_groups_up_to,
    check_cech,
    check_efremovic,
    check_kuratowski,
    check_lodato,
    check_proximal_group,
    check_transitivity_property,
    default_space,
    enumerate_relations,
    fuzz_theorem,
    make_coarse_proximity,
    mine_separating_examples,
    naive_oracle,
    relation_from_point_pairs,
    replay_counterexample,
    witness_violates,
)
from proxikit import enumeration, groups, harnesses, maps
from proxikit.groups import homomorphism_violation
from proxikit.enumeration import (
    THEOREMS,
    VIOLATIONS,
    FuzzScope,
    _structures,
    instance_from_payload,
    instance_payload,
    relation_from_payload,
    relation_payload,
)


# --- generators -----------------------------------------------------------------

# Two cross-check generators, independent of the point-relation enumeration:
# branching over free subset pairs with forced entries (tiny carriers), and
# raw brute force over all tables (n <= 2).

BRANCHING_CAP = 3
BRUTE_FORCE_CAP = 2


def branching_cech_relations(n: int) -> Iterator[ProximityRelation]:
    """Cross-check generator: force empty/intersecting entries, branch on the
    free disjoint subset pairs (upper triangle only), filter by the naive
    oracle.  Exponential in the number of free pairs; tiny carriers only.
    """
    if n > BRANCHING_CAP:
        free = sum(
            1
            for a in range(1, 1 << n)
            for b in range(a + 1, 1 << n)
            if not a & b
        )
        raise ValueError(
            f"branching generator capped at n <= {BRANCHING_CAP}: size {n} has"
            f" {free} free subset pairs, {2 ** free} candidates"
        )
    space = default_space(n)
    m = 1 << n
    base_rows = [0] * m
    for a in range(m):
        for b in range(m):
            if a & b:
                base_rows[a] |= 1 << b
    free_pairs = [
        (a, b) for a in range(1, m) for b in range(a + 1, m) if not a & b
    ]
    for assignment in range(1 << len(free_pairs)):
        rows = list(base_rows)
        for idx, (a, b) in enumerate(free_pairs):
            if (assignment >> idx) & 1:
                rows[a] |= 1 << b
                rows[b] |= 1 << a
        rel = ProximityRelation(space, tuple(rows), "explicit")
        if all(naive_oracle(rel, ax) for ax in ("L1", "L2", "L3", "L4")):
            yield rel


def brute_force_tables(n: int) -> Iterator[ProximityRelation]:
    """All (2^n x 2^n) tables whatsoever; n <= 2 keeps this at 65536 tables."""
    if n > BRUTE_FORCE_CAP:
        raise ValueError(
            f"brute force capped at n <= {BRUTE_FORCE_CAP}: size {n} means"
            f" 2^{(1 << n) * (1 << n)} tables"
        )
    space = default_space(n)
    m = 1 << n
    row_mask = (1 << m) - 1
    for code in range(1 << (m * m)):
        rows = tuple((code >> (a * m)) & row_mask for a in range(m))
        yield ProximityRelation(space, rows, "explicit")


def test_single_cech_relation_on_one_point():
    rels = list(enumerate_relations(1, "cech"))
    assert len(rels) == 1
    rel = rels[0]
    assert rel.near(1, 1)
    assert not rel.near(0, 0) and not rel.near(0, 1) and not rel.near(1, 0)


def test_enumeration_counts():
    assert len(list(enumerate_relations(2, "cech"))) == 2
    assert len(list(enumerate_relations(3, "cech"))) == 8
    assert len(list(enumerate_relations(3, "lodato"))) == 5
    assert len(list(enumerate_relations(3, "efremovic"))) == 5
    assert len(list(enumerate_relations(4, "cech"))) == 64
    assert len(list(enumerate_relations(4, "lodato"))) == 15  # partitions of 4 points


def test_every_emitted_relation_passes_its_class():
    for n in (1, 2, 3):
        for rel in enumerate_relations(n, "cech"):
            assert check_cech(rel).ok
        for rel in enumerate_relations(n, "lodato"):
            assert check_lodato(rel).ok
        for rel in enumerate_relations(n, "efremovic"):
            assert check_efremovic(rel).ok


def test_no_duplicates_and_deterministic_order():
    runs = [tuple(r.rows for r in enumerate_relations(3, "cech")) for _ in range(2)]
    assert runs[0] == runs[1]
    assert len(set(runs[0])) == len(runs[0])


CLASS_CHECKS = {"cech": check_cech, "lodato": check_lodato, "efremovic": check_efremovic}


def every_graph_passing(n, check):
    """Oracle: every reflexive symmetric point relation in pair-code order,
    extended to subsets and kept when the class checker passes it."""
    space = default_space(n)
    pairs = list(combinations(range(n), 2))
    for code in range(1 << len(pairs)):
        rows = [1 << i for i in range(n)]
        for k, (i, j) in enumerate(pairs):
            if (code >> k) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
        rel = relation_from_point_pairs(space, rows, "explicit")
        if check(rel).ok:
            yield rel


@pytest.mark.parametrize(
    "axiom_class, n",
    [("cech", n) for n in range(1, 5)]
    + [(cls, n) for cls in ("lodato", "efremovic") for n in range(1, 6)],
)
def test_generated_classes_match_the_filtered_graphs(axiom_class, n):
    expected = [
        (r.rows, r.point_graph, r.provenance)
        for r in every_graph_passing(n, CLASS_CHECKS[axiom_class])
    ]
    generated = [(r.rows, r.point_graph, r.provenance) for r in enumerate_relations(n, axiom_class)]
    assert generated == expected


def test_partition_classes_have_bell_many_transitive_members():
    bell = [1, 2, 5, 15, 52, 203, 877, 4140]
    for n in range(1, 9):
        rels = list(enumerate_relations(n, "lodato"))
        assert len(rels) == bell[n - 1]
        for rel in rels:
            points = rel.point_graph
            assert all(points[j] == points[i] for i in range(n) for j in range(n) if (points[i] >> j) & 1)
        if n <= 6:
            assert [r.rows for r in enumerate_relations(n, "efremovic")] == [r.rows for r in rels]


def test_sweep_relations_carry_their_point_graph():
    space = default_space(4)
    relations = [rel for _, rel in enumeration._relations_for(space, ("cech",))]
    expected = list(enumerate_relations(4, "cech"))
    assert len(relations) == len(expected) == 64
    for rel, reference in zip(relations, expected):
        assert rel.space == space and rel.provenance == "explicit"
        assert rel.rows == reference.rows
        # recorded when the relation was built, not recomputed from the table
        assert "point_graph" in vars(rel)
        assert rel.point_graph == ProximityRelation(space, rel.rows).point_graph


def test_enumeration_cap_states_bound():
    with pytest.raises(ValueError, match="1024 candidate"):
        list(enumerate_relations(5, "cech"))



def test_enumeration_refuses_an_unknown_class():
    with pytest.raises(
        ValueError,
        match=r"^relation class must be one of \('cech', 'lodato', 'efremovic'\), got 'kuratowski'$",
    ):
        list(enumerate_relations(2, "kuratowski"))

def test_brute_force_matches_fast_path_at_n2():
    slow = sorted(
        rel.rows
        for rel in brute_force_tables(2)
        if all(naive_oracle(rel, ax) for ax in ("L1", "L2", "L3", "L4"))
    )
    fast = sorted(r.rows for r in enumerate_relations(2, "cech"))
    assert slow == fast


def test_branching_generator_matches_fast_path():
    for n in (1, 2, 3):
        branch = sorted(r.rows for r in branching_cech_relations(n))
        fast = sorted(r.rows for r in enumerate_relations(n, "cech"))
        assert branch == fast


def test_branching_cap_states_bound():
    with pytest.raises(ValueError, match="candidates"):
        list(branching_cech_relations(4))


# --- naive oracle ------------------------------------------------------------------


def test_oracle_rejects_unknown_axiom():
    rel = next(iter(enumerate_relations(1, "cech")))
    with pytest.raises(ValueError, match="unknown axiom"):
        naive_oracle(rel, "L9")


def test_oracle_rejects_descriptive_axiom_ids():
    # descriptive ids are aliased for witnesses only; DL3 has no alias at all
    rel = next(iter(enumerate_relations(1, "cech")))
    for axiom in ("DL1", "DL2", "DL3", "DL4", "DL5", "DEF"):
        with pytest.raises(ValueError, match="unknown axiom"):
            naive_oracle(rel, axiom)
    with pytest.raises(ValueError, match="unknown axiom"):
        witness_violates(rel, "DL3", (1, 1))


def test_witness_violates_rejects_a_witness_of_the_wrong_length():
    rel = next(iter(enumerate_relations(2, "cech")))
    aliases = {"DL1": "L1", "DL2": "L2", "DL4": "L4", "DL5": "L5", "DEF": "EF"}
    for axiom in (*VIOLATIONS, *aliases):
        arity = VIOLATIONS[aliases.get(axiom, axiom)][0]
        assert arity in (1, 2, 3)
        for length in (arity - 1, arity + 1):
            with pytest.raises(ValueError, match=f"has {arity} masks"):
                witness_violates(rel, axiom, (1,) * length)
        witness_violates(rel, axiom, (1,) * arity)


def test_k1_is_witnessed_by_the_empty_set_alone():
    # {a} near the empty set, so cl(empty) = {a}: K1 fails, and only the
    # empty set (mask 0) witnesses it
    rel = ProximityRelation(default_space(2), (0b0010, 0b0011, 0b0100, 0b1000))
    assert not naive_oracle(rel, "K1")
    assert check_kuratowski(rel).witnesses["K1"] == (0,)
    assert witness_violates(rel, "K1", (0,))
    for mask in (1, 2, 3):
        assert not witness_violates(rel, "K1", (mask,))


def test_violation_table_has_exactly_the_checker_verdict_keys():
    # every verdict key the relation checkers emit, passing or failing,
    # is an axiom the oracle can certify, and the table has no other key
    rng = random.Random(7)
    space = default_space(2)
    relations = [*enumerate_relations(2, "cech")] + [
        ProximityRelation(space, tuple(rng.getrandbits(4) for _ in range(4))) for _ in range(20)
    ]
    keys = set()
    for rel in relations:
        for report in (
            check_lodato(rel),
            check_efremovic(rel),
            check_kuratowski(rel),
            check_transitivity_property(rel),
        ):
            keys |= set(report.verdicts)
    assert keys == set(VIOLATIONS)


def test_oracle_agreement_on_random_tables():
    rng = random.Random(1729)
    space3 = default_space(3)
    for _ in range(1000):
        n = rng.randint(1, 3)
        space = default_space(n)
        m = 1 << n
        rel = ProximityRelation(space, tuple(rng.getrandbits(m) for _ in range(m)))
        lodato = check_lodato(rel)
        ef = check_efremovic(rel)
        for axiom in ("L1", "L2", "L3", "L4", "L5"):
            assert lodato.verdicts[axiom] == naive_oracle(rel, axiom)
        assert ef.verdicts["EF"] == naive_oracle(rel, "EF")
    del space3


def test_oracle_agreement_on_enumerated_lodato_n2():
    for rel in enumerate_relations(2, "lodato"):
        for axiom in ("L1", "L2", "L3", "L4", "L5", "EF", "K1", "K2", "K3", "K4"):
            assert naive_oracle(rel, axiom)


def test_corrupted_witness_rejected():
    census = mine_separating_examples(3)
    rel = census.cech_not_lodato
    report = check_lodato(rel)
    witness = report.witnesses["L5"]
    assert witness_violates(rel, "L5", witness)
    # repair the violation: make the conclusion pair near
    a, b, c = witness
    rows = list(rel.rows)
    rows[a] |= 1 << c
    rows[c] |= 1 << a
    repaired = ProximityRelation(rel.space, tuple(rows))
    assert not witness_violates(repaired, "L5", witness)


def test_mutated_table_bits_change_oracle_verdicts():
    rng = random.Random(99)
    census = mine_separating_examples(3)
    rel = census.cech_not_ef
    witness = check_efremovic(rel).witnesses["EF"]
    assert witness_violates(rel, "EF", witness)
    # flipping the witness pair to near destroys the violation
    a, b = witness
    rows = list(rel.rows)
    rows[a] |= 1 << b
    rows[b] |= 1 << a
    assert not witness_violates(ProximityRelation(rel.space, tuple(rows)), "EF", witness)
    del rng


# --- census ---------------------------------------------------------------------


def test_census_n1_no_exemplars():
    census = mine_separating_examples(1)
    assert census.counts == {
        "cech": 1, "lodato": 1, "efremovic": 1, "lodato_and_ef": 1
    }
    assert census.cech_not_lodato is None and census.cech_not_ef is None


def test_census_n2_counts_match_brute_force():
    census = mine_separating_examples(2)
    brute_cech = brute_lodato = brute_ef = 0
    for rel in brute_force_tables(2):
        if not all(naive_oracle(rel, ax) for ax in ("L1", "L2", "L3", "L4")):
            continue
        brute_cech += 1
        brute_lodato += naive_oracle(rel, "L5")
        brute_ef += naive_oracle(rel, "EF")
    assert census.counts["cech"] == brute_cech == 2
    assert census.counts["lodato"] == brute_lodato == 2
    assert census.counts["efremovic"] == brute_ef == 2
    assert census.cech_not_lodato is None and census.cech_not_ef is None


def test_census_n3_exemplars_verified_and_minimal():
    census = mine_separating_examples(3)
    assert census.counts == {
        "cech": 8, "lodato": 5, "efremovic": 5, "lodato_and_ef": 5
    }
    for exemplar, axiom in (
        (census.cech_not_lodato, "L5"),
        (census.cech_not_ef, "EF"),
    ):
        assert all(naive_oracle(exemplar, ax) for ax in ("L1", "L2", "L3", "L4"))
        assert not naive_oracle(exemplar, axiom)
        # exhaustive minimality: no class member breaking the axiom has a
        # smaller near-pair count, and ties resolve lexicographically
        key = (exemplar.near_pair_count(), exemplar.rows)
        for rel in enumerate_relations(3, "cech"):
            if not naive_oracle(rel, axiom):
                assert key <= (rel.near_pair_count(), rel.rows)


def test_census_determinism():
    def dump(census):
        return json.dumps(census.to_payload(), sort_keys=True, indent=2)

    assert dump(mine_separating_examples(2)) == dump(mine_separating_examples(2))
    c = dump(mine_separating_examples(3))
    assert c == dump(mine_separating_examples(3))
    assert json.loads(c)["counts"]["cech"] == 8


# --- fuzzer ----------------------------------------------------------------------


def test_unknown_theorem_rejected_with_known_list():
    with pytest.raises(ValueError, match="known ids"):
        fuzz_theorem("untrue-claim")
    with pytest.raises(ValueError, match="known ids"):
        replay_counterexample("untrue-claim", {})


@pytest.mark.parametrize(
    "max_order, classes, field",
    [
        (0, ("cech",), "max_order"),
        (-1, ("cech",), "max_order"),
        (3, (), "relation_classes"),
        (3, ("",), "relation_classes"),
    ],
)
def test_fuzz_scope_rejects_empty_sweeps(max_order, classes, field):
    with pytest.raises(ValueError, match=field):
        FuzzScope(max_order, classes)


def test_pseudo_theorem_counterexamples_found_and_replayed():
    outcome = fuzz_theorem("every-cech-is-lodato")
    assert outcome.instances == 11  # 1 + 2 + 8 relations at n = 1, 2, 3
    assert len(outcome.counterexamples) == 3  # the non-transitive tolerances
    for instance in outcome.counterexamples:
        assert replay_counterexample("every-cech-is-lodato", instance)
        rel = relation_from_payload(instance["relation"])
        assert check_cech(rel).ok and not check_lodato(rel).ok
        assert not naive_oracle(rel, "L5")


def test_expected_true_theorems_hold_at_default_scope():
    for theorem in (
        "translations-are-proximal-isomorphisms",
        "subgroups-inherit-proximal-group",
        "multiplication-continuity-gives-inversion",
        "translations-and-transitivity-give-proximal-group",
        "translations-and-pointwise-lodato-give-proximal-group",
        "t1-equals-identity-closure",
        "hom-criterion-implies-pcont",
        "second-isomorphism-theorem",
        "third-isomorphism-theorem",
        "products-inherit-proximal-group",
    ):
        outcome = fuzz_theorem(theorem)
        assert outcome.instances > 0
        assert not outcome.counterexamples, theorem


# (instances, counterexamples) of every theorem at its default scope
DEFAULT_SCOPE_COUNTS = {
    "translations-are-proximal-isomorphisms": (13, 0),
    "subgroups-inherit-proximal-group": (43, 0),
    "products-inherit-proximal-group": (40, 0),
    "first-isomorphism-theorem": (21, 3),
    "second-isomorphism-theorem": (1034, 0),
    "third-isomorphism-theorem": (368, 0),
    "hom-criterion-implies-pcont": (240, 0),
    "multiplication-continuity-gives-inversion": (11, 0),
    "translations-and-transitivity-give-proximal-group": (11, 0),
    "translations-and-pointwise-lodato-give-proximal-group": (11, 0),
    "t1-equals-identity-closure": (13, 0),
    "every-cech-is-lodato": (11, 3),
}


def test_default_scope_sweep_counts():
    counts = {}
    for theorem in THEOREMS:
        outcome = fuzz_theorem(theorem)
        counts[theorem] = (outcome.instances, len(outcome.counterexamples))
    assert counts == DEFAULT_SCOPE_COUNTS


# sha256 of every default-scope sweep's counterexample list as sort_keys JSON
NO_COUNTEREXAMPLES = hashlib.sha256(b"[]").hexdigest()
DEFAULT_SCOPE_DIGESTS = {
    "translations-are-proximal-isomorphisms": NO_COUNTEREXAMPLES,
    "subgroups-inherit-proximal-group": NO_COUNTEREXAMPLES,
    "products-inherit-proximal-group": NO_COUNTEREXAMPLES,
    "first-isomorphism-theorem": "cd61970010826bd84c349d674fe4cdd80695308bd2ab9b8dfa1ee548c0c3e960",
    "second-isomorphism-theorem": NO_COUNTEREXAMPLES,
    "third-isomorphism-theorem": NO_COUNTEREXAMPLES,
    "hom-criterion-implies-pcont": NO_COUNTEREXAMPLES,
    "multiplication-continuity-gives-inversion": NO_COUNTEREXAMPLES,
    "translations-and-transitivity-give-proximal-group": NO_COUNTEREXAMPLES,
    "translations-and-pointwise-lodato-give-proximal-group": NO_COUNTEREXAMPLES,
    "t1-equals-identity-closure": NO_COUNTEREXAMPLES,
    "every-cech-is-lodato": "689ad630511ddad67247c3d1224cd8a49b9c112c08137042bd67390736bdb39e",
}


def test_default_scope_counterexample_bytes():
    digests = {}
    for theorem in THEOREMS:
        text = json.dumps(fuzz_theorem(theorem).counterexamples, sort_keys=True)
        digests[theorem] = hashlib.sha256(text.encode()).hexdigest()
    assert digests == DEFAULT_SCOPE_DIGESTS


def _filtered_structures(scope: FuzzScope) -> Iterator[dict]:
    """The structures in scope that pass the proximal-group check, found by
    checking every one: the reference for :func:`_verified_structures`."""
    for s in _structures(scope):
        g = s["group"][1]
        if check_proximal_group(g, s["relation"]).ok:
            yield s


def _structure_fields(s):
    rel = s["relation"]
    return s["group"][0], s["relation_class"], rel.space.labels, rel.rows, rel.provenance


@pytest.mark.parametrize(
    "scope",
    [
        FuzzScope(4, ("cech",)),
        FuzzScope(6, ("lodato", "efremovic")),
        FuzzScope(8, ("discrete", "coarse")),
    ],
)
def test_verified_structures_are_the_filtered_structures(scope):
    verified = [_structure_fields(s) for s in enumeration._verified_structures(scope)]
    filtered = [_structure_fields(s) for s in _filtered_structures(scope)]
    assert verified == filtered


def test_every_sweep_source_is_cech():
    # the sweep verdicts pass no max_size: a Cech table reaches no capped read
    scopes = {entry.scope for entry in THEOREMS.values()} | {FuzzScope(8, ("discrete", "coarse"))}
    for scope in scopes:
        for _, g in all_groups_up_to(scope.max_order):
            for _, rel in enumeration._relations_for(g.space, scope.relation_classes):
                assert rel.point_graph is not None
        for s in enumeration._verified_structures(scope):
            assert s["relation"].point_graph is not None
        for i in enumeration._carrier_relations(scope):
            assert i["relation"].point_graph is not None


def _relation_fields(rel: ProximityRelation) -> tuple:
    return rel.space.labels, rel.rows, rel.provenance, rel.point_graph


def test_verified_relations_are_kept_and_equal_a_fresh_build():
    classes = ("discrete", "coarse", *enumeration.RELATION_CLASSES)
    for gname, g in all_groups_up_to(8):
        fresh_g = groups.FiniteGroup(g.space, g.cayley, g.identity, g.inverse)
        for cls in classes:
            kept = list(enumeration._verified_relations(g, (cls,)))
            fresh = list(enumeration._verified_relations(fresh_g, (cls,)))
            assert [(name, _relation_fields(rel)) for name, rel in kept] == [
                (name, _relation_fields(rel)) for name, rel in fresh
            ], (gname, cls)
            again = enumeration._verified_relations(g, (cls,))
            assert all(b is a for (_, a), (_, b) in zip(kept, again, strict=True))
        # several classes: each class's pairs, in the order asked for
        mixed = list(enumeration._verified_relations(g, ("coarse", "cech", "discrete")))
        assert mixed == [
            pair for cls in ("coarse", "cech", "discrete")
            for pair in enumeration._verified_relations(g, (cls,))
        ]


def test_repeated_default_sweeps_keep_no_new_memory():
    # the first pass fills the memos of the catalog; a second pass finds
    # every relation and pullback there and keeps nothing new
    for theorem in THEOREMS:
        fuzz_theorem(theorem)
    gc.collect()
    tracemalloc.start()
    try:
        for theorem in THEOREMS:
            fuzz_theorem(theorem)
        gc.collect()
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept <= 4096


def test_warm_iso_sweeps_build_no_report(monkeypatch):
    # the isomorphism sweeps read only a harness's ok, decided on the point
    # relations: once their memos are filled they build no part of a
    # report, no side group, no canonical map and no pcont or isomorphism
    # witness; a forced read of proximal builds them once
    sweeps = ("first-isomorphism-theorem", "second-isomorphism-theorem",
              "third-isomorphism-theorem")
    for theorem in sweeps:
        fuzz_theorem(theorem)
    calls = []
    for module, name in ((maps, "check_pcont"), (maps, "pcont_point_witness"),
                         (maps, "check_proximal_isomorphism"),
                         (groups, "subgroup_group"), (groups, "quotient_group")):
        real = getattr(module, name)

        def spy(*args, name=name, real=real, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        # wherever the name was imported, so that no call route escapes
        for holder in (maps, harnesses, groups, enumeration):
            if getattr(holder, name, None) is real:
                monkeypatch.setattr(holder, name, spy)
    real_init = SpaceMap.__post_init__

    def naming_init(self):
        calls.append(f"SpaceMap {self.name}")
        real_init(self)

    monkeypatch.setattr(SpaceMap, "__post_init__", naming_init)
    outcomes = []
    for theorem in sweeps:
        calls.clear()
        outcomes.append(fuzz_theorem(theorem))
        if theorem.startswith("first"):
            # its instances are maps, each checked by check_pcont in the
            # sweep and again in the harness, and no witness beyond those
            assert set(calls) == {"check_pcont", "pcont_point_witness", "SpaceMap hom"}
            assert calls.count("pcont_point_witness") == calls.count("check_pcont")
        else:
            assert calls == []
    assert [(o.instances, len(o.counterexamples)) for o in outcomes] == [(21, 3), (1034, 0), (368, 0)]
    # S3 over A3: (G/{e})/(A3/{e}) -> G/A3
    s3 = dict(all_groups_up_to(6))["S3"]
    report = harnesses.third_iso_harness(s3, make_coarse_proximity(s3.space), 0b000001, 0b000111)
    calls.clear()
    for _ in range(2):
        assert report.proximal.ok and report.canonical.images == (0, 1)
    assert calls.count("SpaceMap canonical") == calls.count("SpaceMap canonical^-1") == 1
    assert calls.count("pcont_point_witness") == 2


def test_verified_cech_structures_pass_the_enumeration_cap():
    # one coset relation per normal subgroup of each catalog group of order <= 8
    outcome = fuzz_theorem("translations-are-proximal-isomorphisms", FuzzScope(8, ("cech",)))
    assert (outcome.instances, len(outcome.counterexamples)) == (64, 0)


# (instances, counterexamples) of the isomorphism sweeps over verified Cech structures
CECH_ORDER_4_ISO_COUNTS = {
    "first-isomorphism-theorem": (132, 59),
    "second-isomorphism-theorem": (169, 6),
    "third-isomorphism-theorem": (91, 0),
}


@pytest.mark.parametrize("theorem", list(CECH_ORDER_4_ISO_COUNTS))
def test_isomorphism_sweeps_draw_only_verified_structures(theorem):
    outcome = fuzz_theorem(theorem, FuzzScope(4, ("cech",)))
    assert (outcome.instances, len(outcome.counterexamples)) == CECH_ORDER_4_ISO_COUNTS[theorem]
    for instance in outcome.counterexamples:
        assert replay_counterexample(theorem, instance)
        live = instance_from_payload(instance)
        for group_key, relation_key in (("group", "relation"), ("group2", "relation2")):
            if group_key in live:
                assert groups.check_proximal_group(live[group_key][1], live[relation_key]).ok
    if theorem == "second-isomorphism-theorem":
        sources = {(i["group"]["name"], i["relation_class"]) for i in outcome.counterexamples}
        assert sources == {("V4", "cech[12]"), ("V4", "cech[18]"), ("V4", "cech[33]")}


def test_second_isomorphism_sweep_over_partitions_is_finite():
    outcome = fuzz_theorem("second-isomorphism-theorem", FuzzScope(8, ("lodato",)))
    assert (outcome.instances, len(outcome.counterexamples)) == (5551, 650)


_COUNT_HOM_CRITERION_VERIFICATIONS = """
import sys
sys.path.insert(0, {src!r})
from proxikit import fuzz_theorem, groups

calls = []
check = groups._coset_mu1

def spy(*args, **kwargs):
    calls.append(args)
    return check(*args, **kwargs)

groups._coset_mu1 = spy
for _ in range(2):
    before = len(calls)
    outcome = fuzz_theorem("hom-criterion-implies-pcont")
    print(outcome.instances, len(outcome.counterexamples), len(calls) - before)
"""


def test_hom_criterion_sweep_verifies_each_structure_once():
    # The relations live on the catalog groups and each verdict on its
    # relation for the whole process, so only a fresh process shows the
    # first sweep: it verifies the discrete and coarse relation on 5
    # groups, one coset test each (groups.is_proximal_group), and a second
    # sweep verifies nothing.
    src = str(Path(proxikit.__file__).resolve().parent.parent)
    code = _COUNT_HOM_CRITERION_VERIFICATIONS.format(src=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == ["240 0 10", "240 0 0"]


@pytest.mark.parametrize(
    "theorem, scope, instances",
    [
        # product orders up to 8, above SCAN_CAP
        ("products-inherit-proximal-group", FuzzScope(8, ("discrete", "coarse")), 136),
        # carriers up to 6: Bell(1) + ... + Bell(6) partitions
        ("every-cech-is-lodato", FuzzScope(6, ("lodato",)), 278),
        ("every-cech-is-lodato", FuzzScope(8, ("discrete", "coarse")), 16),
    ],
)
def test_sweeps_are_bounded_by_their_scope_not_the_scan_caps(theorem, scope, instances):
    outcome = fuzz_theorem(theorem, scope)
    assert (outcome.instances, len(outcome.counterexamples)) == (instances, 0)


def test_homomorphism_search_matches_filtering_every_map():
    groups = [g for _, g in all_groups_up_to(4)]
    for g1 in groups:
        for g2 in groups:
            brute = [
                images
                for images in product(range(g2.order), repeat=g1.order)
                if homomorphism_violation(SpaceMap(g1.space, g2.space, images), g1, g2) is None
            ]
            found = [f.images for f in enumeration._all_homomorphisms(g1, g2)]
            assert found == brute
            assert (g2.identity,) * g1.order in brute


def test_hom_criterion_sweeps_order_six():
    outcome = fuzz_theorem("hom-criterion-implies-pcont", FuzzScope(6, ("discrete", "coarse")))
    assert (outcome.instances, len(outcome.counterexamples)) == (636, 0)


def test_first_iso_fuzz_finds_the_failure():
    outcome = fuzz_theorem("first-isomorphism-theorem")
    assert outcome.counterexamples
    for instance in outcome.counterexamples:
        assert replay_counterexample("first-isomorphism-theorem", instance)


def test_relation_payload_roundtrip():
    for rel in enumerate_relations(2, "cech"):
        assert relation_from_payload(relation_payload(rel)).rows == rel.rows


def test_product_is_an_unknown_provenance():
    payload = relation_payload(next(enumerate_relations(2, "cech")))
    with pytest.raises(ValueError, match="unknown provenance tag 'product'"):
        relation_from_payload({**payload, "provenance": "product"})


def test_all_registered_theorems_have_default_scopes():
    for theorem, entry in THEOREMS.items():
        assert entry.scope.max_order >= 1
        assert entry.scope.relation_classes
        assert callable(entry.instances)
        assert callable(entry.holds)


@pytest.mark.parametrize("theorem", list(THEOREMS))
def test_every_instance_replays_through_the_sweep_verdict(theorem):
    entry = THEOREMS[theorem]
    for instance in islice(entry.instances(entry.scope), 60):
        payload = json.loads(json.dumps(instance_payload(instance)))
        assert instance_payload(instance_from_payload(payload)) == payload
        assert replay_counterexample(theorem, payload) is (not entry.holds(instance))


def test_fuzz_outcomes_deterministic():
    a = fuzz_theorem("every-cech-is-lodato")
    b = fuzz_theorem("every-cech-is-lodato")
    assert a.instances == b.instances
    assert a.counterexamples == b.counterexamples
    c = fuzz_theorem("first-isomorphism-theorem")
    d = fuzz_theorem("first-isomorphism-theorem")
    assert c.counterexamples == d.counterexamples

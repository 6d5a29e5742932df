import pytest
from hypothesis import given, settings, strategies as st

from proxikit import (
    ProximityRelation,
    check_cech,
    check_efremovic,
    check_kuratowski,
    check_lodato,
    check_transitivity_property,
    closure,
    closure_table,
    default_space,
    enumerate_relations,
    induced_topology,
    make_coarse_proximity,
    make_discrete_proximity,
    make_metric_proximity,
    mine_separating_examples,
    naive_oracle,
    witness_violates,
)

S3 = default_space(3)
DISCRETE3 = make_discrete_proximity(S3)
COARSE3 = make_coarse_proximity(S3)
PSEUDO3 = make_metric_proximity(S3, [[0, 0, 1], [0, 0, 1], [1, 1, 0]])


def random_relation(n, rng):
    m = 1 << n
    rows = tuple(rng.getrandbits(m) for _ in range(m))
    return ProximityRelation(default_space(n), rows)


def test_discrete_cech_all_pass():
    report = check_cech(DISCRETE3)
    assert report.ok and not report.witnesses


def test_single_asymmetric_entry_fails_l1_with_that_pair():
    rows = list(DISCRETE3.rows)
    rows[1] |= 1 << 2  # {a} near {b}, but not the converse
    rel = ProximityRelation(S3, tuple(rows))
    report = check_cech(rel)
    assert not report.verdicts["L1"]
    assert report.witnesses["L1"] == (1, 2)
    assert witness_violates(rel, "L1", (1, 2))


def test_empty_near_carrier_fails_l2():
    rows = list(DISCRETE3.rows)
    rows[0] |= 1 << 7
    rows[7] |= 1 << 0
    rel = ProximityRelation(S3, tuple(rows))
    report = check_cech(rel)
    assert not report.verdicts["L2"]
    assert witness_violates(rel, "L2", report.witnesses["L2"])


def test_lodato_discrete_and_coarse():
    assert check_lodato(DISCRETE3).verdicts["L5"]
    assert check_lodato(COARSE3).verdicts["L5"]


def test_mined_cech_not_lodato_fails_l5_only():
    census = mine_separating_examples(3)
    rel = census.cech_not_lodato
    report = check_lodato(rel)
    assert report.verdicts["L1"] and report.verdicts["L2"]
    assert report.verdicts["L3"] and report.verdicts["L4"]
    assert not report.verdicts["L5"]
    assert witness_violates(rel, "L5", report.witnesses["L5"])


def test_efremovic_discrete_with_validated_examples():
    for n in range(1, 5):
        rel = make_discrete_proximity(default_space(n))
        report = check_efremovic(rel)
        assert report.ok
        full = rel.space.full_mask
        for (a, b), k in report.ef_examples.items():
            assert rel.far(a, b)
            assert rel.far(a, k) and rel.far(full ^ k, b)


def test_efremovic_coarse():
    assert check_efremovic(COARSE3).ok


def test_mined_cech_not_ef_fails_with_far_pair_witness():
    census = mine_separating_examples(3)
    rel = census.cech_not_ef
    report = check_efremovic(rel)
    assert not report.verdicts["EF"]
    a, b = report.witnesses["EF"]
    assert rel.far(a, b)
    assert witness_violates(rel, "EF", (a, b))


# --- closure ----------------------------------------------------------------


def test_closure_discrete_is_identity():
    for b in S3.subsets():
        assert closure(DISCRETE3, b) == b


def test_closure_coarse_is_carrier_on_nonempty():
    for b in S3.subsets():
        assert closure(COARSE3, b) == (S3.full_mask if b else 0)


def test_closure_pseudometric_merges_zero_distance_points():
    assert closure(PSEUDO3, 0b001) == 0b011  # cl {a} = {a, b}


def test_closure_monotone_on_union_axiom_relations():
    for n in (2, 3):
        for rel in enumerate_relations(n, "cech"):
            cl = closure_table(rel)
            for a in rel.space.subsets():
                for b in rel.space.subsets():
                    if a | b == b:
                        assert cl[a] | cl[b] == cl[b]


# --- kuratowski -------------------------------------------------------------


def test_kuratowski_discrete_all_pass():
    assert check_kuratowski(DISCRETE3).ok


def test_lodato_implies_idempotent_closure():
    for n in (1, 2, 3):
        for rel in enumerate_relations(n, "lodato"):
            assert check_kuratowski(rel).verdicts["K4"]


def test_cech_k4_violation_has_witness():
    census = mine_separating_examples(3)
    rel = census.cech_not_lodato
    report = check_kuratowski(rel)
    assert not report.verdicts["K4"]
    assert witness_violates(rel, "K4", report.witnesses["K4"])


# --- induced topology -------------------------------------------------------


def test_discrete_topology_has_all_subsets_open():
    snap = induced_topology(DISCRETE3)
    assert len(snap.open_sets) == 8
    assert snap.kuratowski_ok and snap.is_topology


def test_coarse_topology_is_indiscrete():
    snap = induced_topology(make_coarse_proximity(default_space(2)))
    assert snap.open_sets == (0, 3)
    assert snap.kuratowski_ok and snap.is_topology


def test_pseudometric_topology_open_sets():
    snap = induced_topology(PSEUDO3)
    opens = set(snap.open_sets)
    assert 0b100 in opens  # {c} is open
    assert 0b001 not in opens  # {a} is not
    assert snap.kuratowski_ok and snap.is_topology


def test_non_kuratowski_snapshot_still_returned():
    census = mine_separating_examples(3)
    snap = induced_topology(census.cech_not_lodato)
    assert not snap.kuratowski_ok


# --- caps -------------------------------------------------------------------


def test_scan_cap_raises_with_override_hint():
    rel = make_discrete_proximity(default_space(6))
    with pytest.raises(ValueError, match="max_size=6"):
        check_cech(rel)
    assert check_cech(rel, max_size=6).ok


# --- differential against the naive oracle -----------------------------------


@given(st.integers(min_value=0))
@settings(max_examples=300, deadline=None)
def test_checkers_agree_with_naive_oracle(seed):
    import random

    rng = random.Random(seed)
    n = rng.randint(1, 3)
    rel = random_relation(n, rng)
    lodato = check_lodato(rel)
    ef = check_efremovic(rel)
    kur = check_kuratowski(rel)
    for axiom in ("L1", "L2", "L3", "L4", "L5"):
        assert lodato.verdicts[axiom] == naive_oracle(rel, axiom)
    assert ef.verdicts["EF"] == naive_oracle(rel, "EF")
    for axiom in ("K1", "K2", "K3", "K4"):
        assert kur.verdicts[axiom] == naive_oracle(rel, axiom)
    trans = check_transitivity_property(rel)
    assert trans.verdicts["transitivity"] == naive_oracle(rel, "transitivity")
    witnesses = {**lodato.witnesses, **ef.witnesses, **kur.witnesses, **trans.witnesses}
    for axiom, witness in witnesses.items():
        assert witness_violates(rel, axiom, witness)


def _first_violation_in_scan_order(rel, axiom):
    """Independent recomputation of the lexicographically smallest witness."""
    m = rel.space.n_subsets
    if axiom == "L1":
        for a in range(m):
            for b in range(m):
                if rel.near(a, b) and not rel.near(b, a):
                    return (a, b)
    if axiom == "L4":
        for a in range(m):
            for b in range(m):
                for c in range(m):
                    if rel.near(a, b | c) != (rel.near(a, b) or rel.near(a, c)):
                        return (a, b, c)
    if axiom == "L5":
        for a in range(m):
            for b in range(m):
                if not rel.near(a, b):
                    continue
                for c in range(m):
                    if all(
                        rel.near(1 << x, c) for x in range(rel.space.size) if (b >> x) & 1
                    ) and not rel.near(a, c):
                        return (a, b, c)
    if axiom == "transitivity":
        for a in range(m):
            for b in range(m):
                for c in range(m):
                    if rel.near(a, b) and rel.near(b, c) and not rel.near(a, c):
                        return (a, b, c)
    return None


@given(st.integers(min_value=0))
@settings(max_examples=300, deadline=None)
def test_witnesses_are_lexicographically_minimal(seed):
    import random

    rng = random.Random(seed)
    n = rng.randint(1, 3)
    rel = random_relation(n, rng)
    report = check_lodato(rel)
    for axiom in ("L1", "L4", "L5"):
        if not report.verdicts[axiom]:
            assert report.witnesses[axiom] == _first_violation_in_scan_order(rel, axiom)
    trans = check_transitivity_property(rel)
    if not trans.ok:
        assert trans.witnesses["transitivity"] == _first_violation_in_scan_order(
            rel, "transitivity"
        )

import ast
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import proxikit
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
    ef_separators,
    enumerate_relations,
    induced_topology,
    make_coarse_proximity,
    make_discrete_proximity,
    make_metric_proximity,
    mine_separating_examples,
    naive_oracle,
    relation_from_point_pairs,
    witness_violates,
)
from proxikit.axioms import _union_row
from proxikit.spaces import bits, meeting_table

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
        assert check_efremovic(rel).ok
        full = rel.space.full_mask
        for (a, b), k in ef_separators(rel).items():
            assert not rel.near(a, b)
            assert not rel.near(a, k) and not rel.near(full ^ k, b)


def test_efremovic_coarse():
    assert check_efremovic(COARSE3).ok


def test_mined_cech_not_ef_fails_with_far_pair_witness():
    census = mine_separating_examples(3)
    rel = census.cech_not_ef
    report = check_efremovic(rel)
    assert not report.verdicts["EF"]
    a, b = report.witnesses["EF"]
    assert not rel.near(a, b)
    assert witness_violates(rel, "EF", (a, b))


# --- closure ----------------------------------------------------------------


def test_closure_discrete_is_identity():
    for b in range(S3.n_subsets):
        assert closure(DISCRETE3, b) == b


def test_closure_coarse_is_carrier_on_nonempty():
    for b in range(S3.n_subsets):
        assert closure(COARSE3, b) == (S3.full_mask if b else 0)


def test_closure_pseudometric_merges_zero_distance_points():
    assert closure(PSEUDO3, 0b001) == 0b011  # cl {a} = {a, b}


def test_closure_monotone_on_union_axiom_relations():
    for n in (2, 3):
        for rel in enumerate_relations(n, "cech"):
            cl = closure_table(rel)
            for a in range(rel.space.n_subsets):
                for b in range(rel.space.n_subsets):
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


def empty_near_empty(n):
    """The discrete table with the empty set near itself: not Cech (L2 and
    L4 fail), so every checker reads the table."""
    rows = list(make_discrete_proximity(default_space(n)).rows)
    rows[0] |= 1
    return ProximityRelation(default_space(n), tuple(rows))


def test_scan_cap_raises_with_override_hint():
    rel = empty_near_empty(8)
    with pytest.raises(ValueError, match="L1-L4 table scan .* pass max_size=8"):
        check_cech(rel)
    assert check_cech(rel, max_size=8).failed() == ("L2", "L4")


# Cech verdicts are decided on the point relation P: no scan, no cap.
N12 = default_space(12)
DISCRETE12 = make_discrete_proximity(N12)
COARSE12 = make_coarse_proximity(N12)
# P = the classes {0..5} and {6..11}: an equivalence, so L5, EF and K4 hold
HALVES12 = relation_from_point_pairs(N12, [0x03F] * 6 + [0xFC0] * 6, "explicit")


@pytest.mark.parametrize(
    "rel", [DISCRETE12, COARSE12, HALVES12], ids=["discrete", "coarse", "halves"]
)
@pytest.mark.parametrize("check", [check_cech, check_lodato, check_efremovic, check_kuratowski])
def test_passing_cech_checks_run_above_the_cap_without_max_size(check, rel):
    assert check(rel).ok


# P relates 6 to 7 and 7 to 8 but not 6 to 8: Cech, not transitive
PATH9 = relation_from_point_pairs(
    default_space(9), [1, 2, 4, 8, 16, 32, 0b11000000, 0b111000000, 0b110000000], "explicit"
)


@pytest.mark.parametrize(
    "check, path",
    [
        # off Cech tables the L1-L4 read runs first, ahead of the L5 and EF scans
        (check_lodato, "L1-L4 table"),
        (check_efremovic, "L1-L4 table"),
        (check_transitivity_property, "transitivity chain"),
    ],
)
def test_failing_cech_scans_name_their_path_above_the_cap(check, path):
    with pytest.raises(ValueError, match=f"{path} scan on a 9-element carrier exceeds the cap 7;"
                       " pass max_size=9 to run it anyway"):
        check(empty_near_empty(9))


# P relates 9 to 10 and 10 to 11 but not 9 to 11; witnesses as read by the
# table scans with max_size=12
PATH12 = relation_from_point_pairs(
    N12, [1 << i for i in range(9)] + [0b011 << 9, 0b111 << 9, 0b110 << 9], "explicit"
)


@pytest.mark.parametrize(
    "check, axiom, witness",
    [
        (check_lodato, "L5", (1 << 9, 1 << 10, 1 << 11)),
        (check_efremovic, "EF", (1 << 9, 1 << 11)),
        (check_kuratowski, "K4", (1 << 9,)),
    ],
)
def test_failing_cech_checks_read_their_witness_from_p_above_the_cap(check, axiom, witness):
    report = check(PATH12)
    assert report.failed() == (axiom,)
    assert report.witnesses == {axiom: witness}


def test_kuratowski_scans_only_off_cech_tables():
    # K1-K3 hold on every Cech table, so a failing one reads only K4
    assert check_kuratowski(PATH9).witnesses == {"K4": (1 << 6,)}
    with pytest.raises(ValueError, match="Kuratowski pair scan .* pass max_size=8"):
        check_kuratowski(empty_near_empty(8))


def test_induced_topology_caps_the_closed_family_check():
    # a Cech table skips the check, so the cap is pinned on a non-Cech one
    with pytest.raises(ValueError, match="closed-family pair scan on a 8-element carrier"
                       " exceeds the cap 7; pass max_size=8"):
        induced_topology(empty_near_empty(8))


def test_induced_topology_on_a_cech_table_runs_above_the_cap():
    snap = induced_topology(DISCRETE12)
    assert len(snap.closed_sets) == len(snap.open_sets) == 1 << 12
    assert snap.kuratowski_ok and snap.is_topology


def closed_family_is_topology(snap):
    closed = set(snap.closed_sets)
    full = snap.space.full_mask
    return (
        {0, full} <= closed
        and all(a | b in closed and a & b in closed for a in closed for b in closed)
    )


@pytest.mark.parametrize(
    "rows, closed_sets, is_topology",
    [
        ((0, 10, 8, 0), (0, 1, 3), True),
        ((0, 8, 12, 0), (0, 2, 3), True),
        ((214, 234, 142, 236, 164, 25, 47, 161), (0, 3, 5, 7), False),
        ((0, 218, 180, 110, 224, 16, 129, 14), (0, 1, 2, 7), False),
    ],
)
def test_closed_family_pair_scan_off_cech_tables(rows, closed_sets, is_topology):
    # non-Cech tables whose closure fixes the empty set and the carrier, so
    # the verdict rests on the pair scan: passing, then with a and b swapped;
    # failing on an intersection ({a,b} & {a,c}), then on a union only
    rel = ProximityRelation(default_space(len(rows).bit_length() - 1), rows)
    assert rel.point_graph is None
    snap = induced_topology(rel)
    assert snap.closed_sets == closed_sets
    assert {0, rel.space.full_mask} <= set(snap.closed_sets)
    assert snap.is_topology is is_topology is closed_family_is_topology(snap)


def test_cech_closed_families_are_topologies():
    # the proof in induced_topology's docstring, checked on every small Cech table
    for n in range(1, 5):
        for rel in enumerate_relations(n, "cech"):
            assert rel.point_graph is not None
            snap = induced_topology(rel)
            assert snap.is_topology and closed_family_is_topology(snap)


def scan_cap_labels():
    """The ``what`` label of every require_scan_size call in the package."""
    labels = []
    for path in sorted(Path(proxikit.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            func = getattr(node, "func", None)
            if getattr(func, "id", getattr(func, "attr", None)) == "require_scan_size":
                what = node.args[2] if len(node.args) > 2 else next(
                    k.value for k in node.keywords if k.arg == "what"
                )
                labels.append(what.value)
    return labels


def test_readme_lists_every_capped_read():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("The capped reads")[1].split("\n\n")[0]
    listed = re.findall(r"^\s*- `([^`]+)`", section, re.M)
    assert sorted(listed) == sorted(set(scan_cap_labels()))


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


def _smallest_separator(rel, a, b):
    """The smallest K with A far K and (carrier - K) far B, or None."""
    full = rel.space.full_mask
    rows = rel.rows
    for k in range(rel.space.n_subsets):
        if not (rows[a] >> k) & 1 and not (rows[full ^ k] >> b) & 1:
            return k
    return None


def _ef_oracle(rel):
    """(first far pair with no separating K, or None; each far pair's smallest
    separating K, or None when some far pair has none)."""
    m = rel.space.n_subsets
    examples = {}
    for a in range(m):
        for b in range(m):
            if not (rel.rows[a] >> b) & 1:
                k = _smallest_separator(rel, a, b)
                if k is None:
                    return (a, b), None
                examples[(a, b)] = k
    return None, examples


def _first_violation_in_scan_order(rel, axiom):
    """Independent recomputation of the lexicographically smallest witness:
    the quantifiers in scan order, one table entry at a time."""
    m = rel.space.n_subsets
    rows = rel.rows

    def near(a, b):
        return (rows[a] >> b) & 1

    if axiom == "L1":
        for a in range(m):
            for b in range(m):
                if near(a, b) and not near(b, a):
                    return (a, b)
    if axiom == "L2":
        for a in range(m):
            for b in range(m):
                if near(a, b) and (a == 0 or b == 0):
                    return (a, b)
    if axiom == "L3":
        for a in range(m):
            for b in range(m):
                if a & b and not near(a, b):
                    return (a, b)
    if axiom == "L4":
        for a in range(m):
            for b in range(m):
                for c in range(m):
                    if near(a, b | c) != (near(a, b) or near(a, c)):
                        return (a, b, c)
    if axiom == "L5":
        for a in range(m):
            for b in range(m):
                if not near(a, b):
                    continue
                for c in range(m):
                    if all(
                        near(1 << x, c) for x in range(rel.space.size) if (b >> x) & 1
                    ) and not near(a, c):
                        return (a, b, c)
    if axiom == "EF":
        return _ef_oracle(rel)[0]
    if axiom == "transitivity":
        for a in range(m):
            for b in range(m):
                for c in range(m):
                    if near(a, b) and near(b, c) and not near(a, c):
                        return (a, b, c)
    return None


def _assert_matches_oracle(rel):
    """check_efremovic agrees with the scan-order oracle on every L1-L4 and EF
    verdict and witness (check_cech shares its L1-L4 kernel), and
    ef_separators on each far pair's smallest separator; returns the
    report."""
    ef = check_efremovic(rel)
    for axiom in ("L1", "L2", "L3", "L4"):
        expected = _first_violation_in_scan_order(rel, axiom)
        assert ef.verdicts[axiom] == (expected is None), (rel.rows, axiom)
        assert ef.witnesses.get(axiom) == expected, (rel.rows, axiom)
    expected, examples = _ef_oracle(rel)
    assert ef.verdicts["EF"] == (expected is None), rel.rows
    assert ef.witnesses.get("EF") == expected, rel.rows
    separators = ef_separators(rel)
    assert separators == examples, rel.rows
    if examples is not None:
        assert list(separators) == list(examples)  # same pair order
    return ef


def test_separators_of_an_equivalence_are_the_union_of_p_over_b():
    # on a Cech table whose point relation P is an equivalence, the smallest K
    # separating a far pair (A, B) is the union of P over B (check_efremovic)
    for n in range(1, 6):
        m = 1 << n
        for rel in enumerate_relations(n, "lodato"):
            separators = ef_separators(rel)
            far = [(a, b) for a in range(m) for b in range(m) if not rel.near(a, b)]
            assert list(separators) == far, rel.rows
            for (a, b), k in separators.items():
                union = 0
                for x in bits(b):
                    union |= rel.point_graph[x]
                assert k == union, (rel.rows, a, b)


def test_every_table_on_two_points_matches_the_oracle():
    # all 2^16 tables on two points and all 2^4 on one: both the point-graph
    # path (Cech tables) and the row kernel
    for n in (1, 2):
        space = default_space(n)
        m = space.n_subsets
        for code in range(1 << (m * m)):
            rows = tuple((code >> (a * m)) & ((1 << m) - 1) for a in range(m))
            _assert_matches_oracle(ProximityRelation(space, rows))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_union_row_shape_is_exactly_l4(n):
    # every possible row over 2^n masks: the O(n) shape test of the L4 kernel
    # agrees with the union axiom over all (b, c)
    m = 1 << n
    meeting = meeting_table(n)
    for row in range(1 << m):
        passes = all(
            (row >> (b | c)) & 1 == ((row >> b) | (row >> c)) & 1
            for b in range(m)
            for c in range(m)
        )
        assert _union_row(row, meeting, n) == passes, row


def _deep_failure_tables(n, seed):
    """Cech tables with one symmetric entry pair flipped or one row replaced,
    in the upper half of the table, so the first broken row lies deep in it
    (a random table fails L4 at row 0)."""
    import random

    rng = random.Random(f"deep/{n}/{seed}")
    space = default_space(n)
    m = space.n_subsets
    points = [1 << i for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                points[i] |= 1 << j
                points[j] |= 1 << i
    base = list(relation_from_point_pairs(space, points, "explicit").rows)
    flipped = list(base)
    a, b = rng.sample(range(m // 2, m), 2)
    flipped[a] ^= 1 << b
    flipped[b] ^= 1 << a
    replaced = list(base)
    replaced[rng.randrange(m // 2, m)] = rng.getrandbits(m)
    return [ProximityRelation(space, tuple(rows)) for rows in (flipped, replaced)]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_deep_failures_match_the_oracle(n):
    deep_rows = []
    for seed in range(12 if n < 5 else 4):
        for rel in _deep_failure_tables(n, seed):
            report = _assert_matches_oracle(rel)
            assert not report.ok
            for axiom, witness in report.witnesses.items():
                assert witness_violates(rel, axiom, witness)
            if "L4" in report.witnesses:
                deep_rows.append(report.witnesses["L4"][0])
    # the first row broken for L4 lies in the second half of the table
    assert deep_rows and min(deep_rows) >= 1 << (n - 1)


@given(st.integers(min_value=0))
@settings(max_examples=300, deadline=None)
def test_witnesses_are_lexicographically_minimal(seed):
    import random

    rng = random.Random(seed)
    n = rng.randint(1, 3)
    rel = random_relation(n, rng)
    report = check_lodato(rel)
    for axiom in ("L1", "L2", "L3", "L4", "L5"):
        if not report.verdicts[axiom]:
            assert report.witnesses[axiom] == _first_violation_in_scan_order(rel, axiom)
    trans = check_transitivity_property(rel)
    if not trans.ok:
        assert trans.witnesses["transitivity"] == _first_violation_in_scan_order(
            rel, "transitivity"
        )

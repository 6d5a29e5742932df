"""Differential tests certifying the optimized scan paths against naive
re-implementations: the bitset rectangle-multiplication check, the
inversion check, proximal-continuity witnesses, and the existential
extension of point relations to subsets.  The point-graph verdicts and the
mu1 witnesses read from point reaches on Cech tables are certified against
the table scans they stand in for, and the normal-coset mu1 kernel against
the point quadruple scan it replaced.
"""
import random
from itertools import combinations

from hypothesis import given, settings, strategies as st

from proxikit import (
    ProximityRelation,
    SpaceMap,
    all_groups_up_to,
    check_cech,
    check_efremovic,
    check_kuratowski,
    check_lodato,
    check_pcont,
    check_proximal_group,
    check_translations,
    closure_table,
    cyclic_group,
    default_space,
    descriptive_proximity,
    make_discrete_proximity,
    mapping_space_relation,
    normal_subgroups,
    probe_table,
    relation_from_point_pairs,
    witness_violates,
)
from proxikit.axioms import (
    _first_unclosed,
    _first_unseparated,
    _singleton_row_meet,
    first_chain_violation,
)
from proxikit.groups import (
    _coset_mu1,
    _mu1_check,
    _mu2_check,
    _point_mu1_witness,
    _table_mu1_witness,
    subset_inverse,
    subset_product,
)
from proxikit.maps import _table_pcont_witness
from proxikit.spaces import bits


def naive_mu1(g, rel):
    """Quadruple loop over factor masks, no tables, no bitset rows."""
    m = rel.space.n_subsets
    for b1 in range(m):
        for b2 in range(m):
            for c1 in range(m):
                for c2 in range(m):
                    if rel.near(b1, c1) and rel.near(b2, c2):
                        if not rel.near(
                            subset_product(g, b1, b2), subset_product(g, c1, c2)
                        ):
                            return (b1, b2, c1, c2)
    return None


def naive_mu2(g, rel):
    for a in range(rel.space.n_subsets):
        for b in range(rel.space.n_subsets):
            if rel.near(a, b) and not rel.near(
                subset_inverse(g, a), subset_inverse(g, b)
            ):
                return (a, b)
    return None


def random_relation(space, rng, symmetric=False):
    m = space.n_subsets
    rows = [rng.getrandbits(m) for _ in range(m)]
    if symmetric:
        for a in range(m):
            for b in range(m):
                if (rows[a] >> b) & 1:
                    rows[b] |= 1 << a
    return ProximityRelation(space, tuple(rows))


@given(st.integers(min_value=0))
@settings(max_examples=150, deadline=None)
def test_mu_checks_match_naive_quadruple_loop(seed):
    rng = random.Random(seed)
    groups = [g for _, g in all_groups_up_to(3)]
    g = rng.choice(groups)
    rel = random_relation(g.space, rng, symmetric=rng.random() < 0.5)
    fast1 = _mu1_check(g, rel)
    slow1 = naive_mu1(g, rel)
    assert fast1.ok == (slow1 is None)
    if not fast1.ok:
        assert fast1.witness == slow1  # both scan b1 outermost, so minimality agrees
    fast2 = _mu2_check(g, rel, max(6, g.order))
    slow2 = naive_mu2(g, rel)
    assert fast2.ok == (slow2 is None)
    if not fast2.ok:
        assert fast2.witness == slow2


def test_mu1_matches_naive_on_order_four_groups():
    rng = random.Random(41)
    for _, g in all_groups_up_to(4):
        if g.order != 4:
            continue
        for _ in range(10):
            rel = random_relation(g.space, rng, symmetric=True)
            fast = _mu1_check(g, rel)
            slow = naive_mu1(g, rel)
            assert fast.ok == (slow is None)
            if not fast.ok:
                assert fast.witness == slow


@given(st.integers(min_value=0))
@settings(max_examples=200, deadline=None)
def test_failing_pcont_witness_reevaluates(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 3)
    space = default_space(n)
    rel1 = random_relation(space, rng)
    rel2 = random_relation(space, rng)
    f = SpaceMap(space, space, tuple(rng.randrange(n) for _ in range(n)))
    report = check_pcont(f, rel1, rel2)
    if not report.ok:
        a, b = report.witnesses["pcont"]
        assert rel1.near(a, b)
        assert not rel2.near(f.image_mask(a), f.image_mask(b))
        # minimality: no lexicographically earlier violating pair
        for a2 in range(a + 1):
            for b2 in range(space.n_subsets):
                if (a2, b2) >= (a, b):
                    break
                if rel1.near(a2, b2):
                    assert rel2.near(f.image_mask(a2), f.image_mask(b2))


@given(st.integers(min_value=0))
@settings(max_examples=200, deadline=None)
def test_point_relation_extension_is_existential(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    space = default_space(n)
    point_rows = [0] * n
    for i in range(n):
        for j in range(n):
            if rng.random() < 0.4:
                point_rows[i] |= 1 << j
                point_rows[j] |= 1 << i
    rel = relation_from_point_pairs(space, point_rows, "explicit")
    for a in range(space.n_subsets):
        for b in range(space.n_subsets):
            expected = any(
                (point_rows[i] >> j) & 1 for i in bits(a) for j in bits(b)
            )
            assert rel.near(a, b) == expected


# --- point-graph verdicts against the table scans ---------------------------

AXIOM_CHECKERS = (check_cech, check_lodato, check_efremovic, check_kuratowski)


def scan_only(rel):
    """A copy of the table whose point graph reads None, so every checker
    takes its table scan."""
    copy = ProximityRelation(rel.space, rel.rows, rel.provenance)
    copy.__dict__["point_graph"] = None
    return copy


def report_key(report):
    """Verdicts and witnesses, insertion order included."""
    return list(report.verdicts.items()), list(report.witnesses.items())


def assert_paths_agree(g, rel):
    scan = scan_only(rel)
    for check in AXIOM_CHECKERS:
        assert report_key(check(rel)) == report_key(check(scan)), check.__name__
    assert closure_table(rel) == closure_table(scan)
    assert _mu1_check(g, rel) == _mu1_check(g, scan)
    assert _mu2_check(g, rel, g.order) == _mu2_check(g, scan, g.order)
    assert check_translations(g, rel) == check_translations(g, scan)


def point_graph_relation(space, edges):
    """Existential extension of the reflexive symmetric graph with the given
    point pairs."""
    rows = [1 << i for i in range(space.size)]
    for i, j in edges:
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return relation_from_point_pairs(space, rows, "explicit")


def test_point_graph_verdicts_match_scans_on_every_graph_up_to_order_four():
    count = 0
    for _, g in all_groups_up_to(4):
        pairs = list(combinations(range(g.order), 2))
        for assignment in range(1 << len(pairs)):
            edges = [p for k, p in enumerate(pairs) if (assignment >> k) & 1]
            rel = point_graph_relation(g.space, edges)
            assert rel.point_graph is not None
            assert_paths_agree(g, rel)
            count += 1
    assert count == 139


def test_point_graph_verdicts_match_scans_on_seeded_z5_graphs():
    rng = random.Random(5)
    g = cyclic_group(5)
    pairs = list(combinations(range(5), 2))
    for _ in range(64):
        rel = point_graph_relation(g.space, [p for p in pairs if rng.random() < 0.4])
        assert_paths_agree(g, rel)


def test_reach_mu1_witness_matches_the_table_scan_on_orders_six_to_eight():
    rng = random.Random(68)
    failing = 0
    for _, g in all_groups_up_to(8):
        if g.order < 6:
            continue
        pairs = list(combinations(range(g.order), 2))
        for _ in range(4):
            rel = point_graph_relation(g.space, [p for p in pairs if rng.random() < 0.4])
            check = _mu1_check(g, rel, g.order)
            assert check == _mu1_check(g, scan_only(rel), g.order)
            if not check.ok:
                failing += 1
                b1, b2, c1, c2 = check.witness
                assert rel.near(b1, c1) and rel.near(b2, c2)
                assert not rel.near(subset_product(g, b1, b2), subset_product(g, c1, c2))
    assert failing > 0


@given(st.integers(min_value=0))
@settings(max_examples=150, deadline=None)
def test_point_graph_is_none_exactly_off_cech_and_reports_unchanged(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 3)
    space = default_space(n)
    if rng.random() < 0.5:
        rel = random_relation(space, rng, symmetric=rng.random() < 0.5)
    else:
        pairs = list(combinations(range(n), 2))
        rows = list(point_graph_relation(space, [p for p in pairs if rng.random() < 0.5]).rows)
        for _ in range(rng.randint(0, 2)):
            a, b = rng.randrange(space.n_subsets), rng.randrange(space.n_subsets)
            rows[a] ^= 1 << b
            if rng.random() < 0.5 and a != b:
                rows[b] ^= 1 << a
        rel = ProximityRelation(space, tuple(rows))
    scan = scan_only(rel)
    assert (rel.point_graph is None) == (not check_cech(scan).ok)
    for check in AXIOM_CHECKERS:
        assert report_key(check(rel)) == report_key(check(scan)), check.__name__
    assert closure_table(rel) == closure_table(scan)
    if rng.random() < 0.5:
        other = point_graph_relation(space, [(0, n - 1)])
    else:
        other = random_relation(space, rng)
    f = SpaceMap(space, space, tuple(rng.randrange(n) for _ in range(n)))
    assert check_pcont(f, rel, other) == check_pcont(f, scan, scan_only(other))
    assert check_pcont(f, other, rel) == check_pcont(f, scan_only(other), scan)


def test_flipped_symmetric_entry_pair_is_rejected_by_point_graph():
    space = default_space(4)
    rel = make_discrete_proximity(space)
    rows = list(rel.rows)
    a, b = 0b0011, 0b1100  # disjoint, two members each: no singleton row changes
    rows[a] ^= 1 << b
    rows[b] ^= 1 << a
    flipped = ProximityRelation(space, tuple(rows))
    assert rel.point_graph == (1, 2, 4, 8)
    assert flipped.point_graph is None
    report = check_cech(flipped)
    assert report.failed() == ("L4",)


# --- the normal-coset mu1 kernel against the point quadruple scan ------------


def naive_point_mu1(g, points):
    """b1 P c1 and b2 P c2 imply b1*b2 P c1*c2, for all elements."""
    cay = g.cayley
    n = g.order
    return all(
        (points[cay[b1][b2]] >> cay[c1][c2]) & 1
        for b1 in range(n)
        for c1 in bits(points[b1])
        for b2 in range(n)
        for c2 in bits(points[b2])
    )


def assert_mu1_kernel_agrees(g, rel):
    expected = naive_point_mu1(g, rel.point_graph)
    assert _coset_mu1(g, rel.point_graph) == expected
    assert _mu1_check(g, rel, g.order).ok == expected
    return expected


def coset_relation(g, n_mask):
    """a near b iff b lies in the coset aN."""
    rows = [subset_product(g, 1 << a, n_mask) for a in range(g.order)]
    return relation_from_point_pairs(g.space, rows, "explicit")


def test_coset_mu1_matches_the_point_scan_on_every_graph_up_to_order_four():
    count = passing = 0
    for _, g in all_groups_up_to(4):
        pairs = list(combinations(range(g.order), 2))
        for assignment in range(1 << len(pairs)):
            edges = [p for k, p in enumerate(pairs) if (assignment >> k) & 1]
            passing += assert_mu1_kernel_agrees(g, point_graph_relation(g.space, edges))
            count += 1
    assert count == 139
    # one coset relation per normal subgroup: 1 + 2 + 2 + 3 + 5
    assert passing == 13


def test_coset_mu1_matches_the_point_scan_on_seeded_graphs_at_orders_five_to_eight():
    rng = random.Random(58)
    for _, g in all_groups_up_to(8):
        if g.order < 5:
            continue
        pairs = list(combinations(range(g.order), 2))
        for density in (0.1, 0.3, 0.6):
            for _ in range(6):
                rel = point_graph_relation(g.space, [p for p in pairs if rng.random() < density])
                assert_mu1_kernel_agrees(g, rel)
        # near misses: a coset relation with one edge added or removed
        for n_mask in normal_subgroups(g):
            points = coset_relation(g, n_mask).point_graph
            edges = {(i, j) for i, j in pairs if (points[i] >> j) & 1}
            flip = rng.choice(pairs)
            assert not assert_mu1_kernel_agrees(g, point_graph_relation(g.space, edges ^ {flip}))


def test_coset_mu1_matches_the_point_scan_on_every_cayley_graph_up_to_order_eight():
    # P[a] = aS for an inverse-closed S holding e: every left coset check
    # passes, so the verdict rests on S being a normal subgroup
    for name, g in all_groups_up_to(8):
        normals = normal_subgroups(g)
        passing = []
        for s_mask in range(g.space.n_subsets):
            if not (s_mask >> g.identity) & 1 or subset_inverse(g, s_mask) != s_mask:
                continue
            points = tuple(subset_product(g, 1 << a, s_mask) for a in range(g.order))
            verdict = _coset_mu1(g, points)
            assert verdict == naive_point_mu1(g, points), (name, s_mask)
            if verdict:
                passing.append(s_mask)
        assert tuple(passing) == normals, name


def test_every_normal_coset_relation_is_a_proximal_group_up_to_order_eight():
    for name, g in all_groups_up_to(8):
        for n_mask in normal_subgroups(g):
            rel = coset_relation(g, n_mask)
            assert _coset_mu1(g, rel.point_graph), (name, n_mask)
            assert check_proximal_group(g, rel, max_size=g.order).ok, (name, n_mask)


# --- failing Cech verdicts: witnesses read from P against the table scans ----


def every_point_graph(n):
    """The Cech table of every reflexive symmetric point relation on n points."""
    pairs = list(combinations(range(n), 2))
    for assignment in range(1 << len(pairs)):
        edges = [p for k, p in enumerate(pairs) if (assignment >> k) & 1]
        yield point_graph_relation(default_space(n), edges)


def seeded_point_graphs(space, count, rng):
    pairs = list(combinations(range(space.size), 2))
    for _ in range(count):
        density = rng.choice((0.1, 0.25, 0.5))
        yield point_graph_relation(space, [p for p in pairs if rng.random() < density])


def assert_unclosed_witnesses_match_the_scans(rel):
    found = _first_unclosed(rel.point_graph)
    assert found["L5"] == first_chain_violation(rel.rows, _singleton_row_meet(rel))
    assert found["EF"] == _first_unseparated(rel.rows)
    assert found["K4"] == check_kuratowski(scan_only(rel)).witnesses.get("K4")
    if rel.space.size <= 3:
        for axiom, witness in found.items():
            assert witness is None or witness_violates(rel, axiom, witness)
    return found["L5"] is not None


def test_unclosed_witnesses_match_the_scans_on_every_graph_up_to_four_points():
    failing = [
        assert_unclosed_witnesses_match_the_scans(rel)
        for n in range(1, 5)
        for rel in every_point_graph(n)
    ]
    # every graph but the 1 + 2 + 5 + 15 equivalence relations
    assert (len(failing), sum(failing)) == (75, 52)


def test_unclosed_witnesses_match_the_scans_on_seeded_graphs_at_five_and_six_points():
    rng = random.Random(56)
    failing = sum(
        assert_unclosed_witnesses_match_the_scans(rel)
        for n in (5, 6)
        for rel in seeded_point_graphs(default_space(n), 150, rng)
    )
    assert failing > 100


def random_point_map(rng, max_n=4):
    s1, s2 = default_space(rng.randint(1, max_n)), default_space(rng.randint(1, max_n))
    rel1, rel2 = (next(seeded_point_graphs(s, 1, rng)) for s in (s1, s2))
    f = SpaceMap(s1, s2, tuple(rng.randrange(s2.size) for _ in range(s1.size)))
    return f, rel1, rel2


def test_pcont_point_witness_matches_the_table_loop_on_seeded_maps():
    rng = random.Random(3000)
    failing = 0
    for _ in range(2000):
        f, rel1, rel2 = random_point_map(rng)
        witness = check_pcont(f, rel1, rel2).witnesses.get("pcont")
        assert witness == _table_pcont_witness(f, rel1, rel2)
        if witness is not None:
            failing += 1
            a, b = witness
            assert rel1.near(a, b) and not rel2.near(f.image_mask(a), f.image_mask(b))
    assert failing > 300


def assert_point_mu1_witness_matches_the_table_scan(g, rel):
    witness = _point_mu1_witness(g, rel.point_graph)
    assert witness == _table_mu1_witness(g, rel.rows)
    if witness is not None:
        b1, b2, c1, c2 = witness
        assert rel.near(b1, c1) and rel.near(b2, c2)
        assert not rel.near(subset_product(g, b1, b2), subset_product(g, c1, c2))
    return witness is not None


def test_point_mu1_witness_matches_the_table_scan_on_every_graph_up_to_order_four():
    failing = [
        assert_point_mu1_witness_matches_the_table_scan(g, rel)
        for _, g in all_groups_up_to(4)
        for rel in every_point_graph(g.order)
    ]
    # every graph but the 13 coset relations
    assert (len(failing), sum(failing)) == (139, 126)


def test_point_mu1_witness_matches_the_table_scan_on_seeded_graphs_at_orders_five_to_eight():
    rng = random.Random(5678)
    failing = sum(
        assert_point_mu1_witness_matches_the_table_scan(g, rel)
        for _, g in all_groups_up_to(8)
        if g.order >= 5
        for rel in seeded_point_graphs(g.space, 4, rng)
    )
    assert failing > 30


def random_dpcont_map(rng, probes1, probes2):
    """A map sending each description of probes1 to one description of probes2."""
    target = {d: rng.choice(probes2.values) for d in probes1.values}
    images = tuple(
        rng.choice([y for y, e in enumerate(probes2.values) if e == target[d]])
        for d in probes1.values
    )
    return SpaceMap(probes1.space, probes2.space, images)


def naive_mapping_space(maps1, maps2, probes1, probes2):
    """The first (A, B, i, j), in that order, with A near B but maps1[i](A)
    far maps2[j](B), over the full tables."""
    rel1, rel2 = descriptive_proximity(probes1), descriptive_proximity(probes2)
    for a, b in rel1.near_pairs():
        for i, f in enumerate(maps1):
            for j, g in enumerate(maps2):
                if not rel2.near(f.image_mask(a), g.image_mask(b)):
                    return a, b, f"maps1[{i}]", f"maps2[{j}]"
    return None


def test_mapping_space_point_witness_matches_the_pair_loop_on_seeded_instances():
    rng = random.Random(400)
    far = 0
    for _ in range(400):
        probes1, probes2 = (
            probe_table(default_space(n), [[rng.randint(0, 2)] for _ in range(n)])
            for n in (rng.randint(1, 4), rng.randint(1, 4))
        )
        maps1, maps2 = (
            [random_dpcont_map(rng, probes1, probes2) for _ in range(rng.randint(1, 3))]
            for _ in range(2)
        )
        verdict = mapping_space_relation(maps1, maps2, probes1, probes2)
        expected = naive_mapping_space(maps1, maps2, probes1, probes2)
        assert verdict.witness == expected
        assert verdict.near == (expected is None)
        far += not verdict.near
    assert far > 100

import re

import pytest

from proxikit import (
    Check,
    ProximityRelation,
    SpaceMap,
    all_groups_up_to,
    check_descriptive_proximal_group,
    check_proximal_group,
    cyclic_group,
    default_space,
    descriptive_proximity,
    enumerate_relations,
    first_iso_harness,
    hausdorff_check,
    identity_map,
    inversion_continuity_harness,
    invertible_subsets,
    make_coarse_proximity,
    make_discrete_proximity,
    multiplication_continuity_harness,
    probe_table,
    projection_hom_demo,
    relation_from_point_pairs,
    second_iso_harness,
    subgroup_proximal_group,
    third_iso_harness,
)
from proxikit.harnesses import second_iso_holds, third_iso_holds
from proxikit.enumeration import (
    THEOREMS,
    _all_homomorphisms,
    _coset_relations,
    _normal_chain_instances,
    _second_iso_instances,
)
from proxikit.groups import FiniteGroup, _mu1_check, all_subgroups, normal_subgroups, subset_product
from proxikit.harnesses import _iso_report, _pointwise_nearness, _quotient_inside
from proxikit.maps import check_pcont


# --- inversion-from-multiplication --------------------------------------------


def test_inversion_harness_z2_coarse():
    z2 = cyclic_group(2)
    report = inversion_continuity_harness(z2, make_coarse_proximity(z2.space))
    assert report.hypotheses_ok and report.conclusion.ok and report.implication_ok
    assert invertible_subsets(z2) == (1, 2)


def test_inversion_harness_trivial_group_vacuous():
    z1 = cyclic_group(1)
    report = inversion_continuity_harness(z1, make_discrete_proximity(z1.space))
    assert report.implication_ok


def test_inversion_harness_sweep_small():
    for _, g in all_groups_up_to(3):
        for rel in enumerate_relations(g.order, "cech"):
            relabeled = rel
            report = inversion_continuity_harness(g, relabeled)
            assert report.implication_ok


# --- multiplication-from-translations -----------------------------------------


def test_multiplication_harness_z2_coarse_transitivity_mode():
    z2 = cyclic_group(2)
    report = multiplication_continuity_harness(
        z2, make_coarse_proximity(z2.space), "ef-transitivity"
    )
    assert report.hypotheses_ok
    assert report.conclusion.ok
    assert report.implication_ok


def test_multiplication_harness_z3_discrete_abstains():
    z3 = cyclic_group(3)
    report = multiplication_continuity_harness(
        z3, make_discrete_proximity(z3.space), "ef-transitivity"
    )
    assert not report.hypotheses["transitivity"].ok
    assert report.abstained and report.implication_ok


def test_multiplication_harness_lodato_mode_z2_coarse():
    z2 = cyclic_group(2)
    report = multiplication_continuity_harness(
        z2, make_coarse_proximity(z2.space), "lodato-pointwise"
    )
    assert report.hypotheses_ok and report.implication_ok


def test_multiplication_harness_rejects_unknown_mode():
    z2 = cyclic_group(2)
    with pytest.raises(ValueError, match="mode"):
        multiplication_continuity_harness(z2, make_discrete_proximity(z2.space), "nope")


def test_multiplication_harness_sweep_both_modes():
    for _, g in all_groups_up_to(3):
        for rel in enumerate_relations(g.order, "cech"):
            for mode in ("ef-transitivity", "lodato-pointwise"):
                assert multiplication_continuity_harness(g, rel, mode).implication_ok


# --- first isomorphism ---------------------------------------------------------


@pytest.mark.parametrize("order", [2, 3, 4, 5, 6])
def test_first_iso_fails_discrete_to_coarse(order):
    g = cyclic_group(order)
    d = make_discrete_proximity(g.space)
    c = make_coarse_proximity(g.space)
    report = first_iso_harness(identity_map(g.space), g, d, g, c)
    assert report.surjective and report.group_isomorphism
    assert report.proximal.verdicts["pcont"]
    assert not report.proximal.verdicts["inverse_pcont"]
    assert report.proximal.witnesses["inverse_pcont"] == (1, 2)


def test_first_iso_same_relation_passes():
    g = cyclic_group(3)
    d = make_discrete_proximity(g.space)
    assert first_iso_harness(identity_map(g.space), g, d, g, d).ok


def test_first_iso_collapse_between_discrete_structures():
    z4 = cyclic_group(4)
    z2 = cyclic_group(2)
    eta = SpaceMap(z4.space, z2.space, (0, 1, 0, 1), "mod2")
    report = first_iso_harness(
        eta, z4, make_discrete_proximity(z4.space), z2, make_discrete_proximity(z2.space)
    )
    assert report.ok


def test_first_iso_rejects_non_pcont_map():
    g = cyclic_group(2)
    d = make_discrete_proximity(g.space)
    c = make_coarse_proximity(g.space)
    with pytest.raises(ValueError, match="proximally continuous"):
        first_iso_harness(identity_map(g.space), g, c, g, d)


def test_first_iso_reports_non_surjective():
    z2 = cyclic_group(2)
    z4 = cyclic_group(4)
    eta = SpaceMap(z2.space, z4.space, (0, 2), "embed")
    report = first_iso_harness(
        eta, z2, make_discrete_proximity(z2.space), z4, make_discrete_proximity(z4.space)
    )
    assert not report.surjective and not report.ok
    assert report.canonical is None


# --- second isomorphism ---------------------------------------------------------


def test_second_iso_all_small_instances_pass():
    for _, g in all_groups_up_to(6):
        subgroups = all_subgroups(g)
        normals = normal_subgroups(g)
        for maker in (make_discrete_proximity, make_coarse_proximity):
            rel = maker(g.space)
            for h in subgroups:
                for n in normals:
                    assert second_iso_harness(g, rel, h, n).ok


def test_second_iso_rejects_bad_inputs():
    z4 = cyclic_group(4)
    d = make_discrete_proximity(z4.space)
    with pytest.raises(ValueError, match="H:"):
        second_iso_harness(z4, d, 0b0011, 0b0101)
    with pytest.raises(ValueError, match="N:"):
        second_iso_harness(z4, d, 0b0101, 0b0011)


def test_second_iso_rejects_a_relation_on_another_carrier():
    z2 = cyclic_group(2)
    other = make_discrete_proximity(default_space(3))
    with pytest.raises(ValueError, match="group and relation carriers do not match"):
        second_iso_harness(z2, other, 0b11, 0b01)


def test_second_iso_report_carries_its_canonical_map():
    # V4 = {a, b, c, d} with bc = d, on the coset relation of M = {a, d}:
    # H = {a, b}, N = {a, c}, and HN cap M = M is not inside (H cap M)N = N
    v4 = dict(all_groups_up_to(4))["V4"]
    rel = relation_from_point_pairs(v4.space, [0b1001, 0b0110, 0b0110, 0b1001], "explicit")
    report = second_iso_harness(v4, rel, 0b0011, 0b0101)
    f = report.canonical
    assert f.domain.labels == ("a", "b") and f.codomain.labels == ("a|c", "b|d")
    assert f.images == (0, 1)
    assert report.group_isomorphism and not report.ok
    # the inverse_pcont witness is a pair of HN/N, its codomain
    assert report.proximal.witnesses == {"inverse_pcont": (1, 2)}


# --- third isomorphism ----------------------------------------------------------


def test_third_iso_equal_subgroups_identity():
    z4 = cyclic_group(4)
    d = make_discrete_proximity(z4.space)
    h = 0b0101
    assert third_iso_harness(z4, d, h, h).ok


def test_third_iso_z8_chain():
    z8 = cyclic_group(8)
    d = make_discrete_proximity(z8.space)
    n = (1 << 0) | (1 << 4)
    k = (1 << 0) | (1 << 2) | (1 << 4) | (1 << 6)
    report = third_iso_harness(z8, d, n, k)
    assert report.ok
    # (G/N)/(K/N) and G/K both list the K-cosets by smallest member
    assert report.canonical.domain.labels == ("a|e|c|g", "b|f|d|h")
    assert report.canonical.codomain.labels == ("a|c|e|g", "b|d|f|h")
    assert report.canonical.images == (0, 1)


def test_third_iso_requires_containment():
    z8 = cyclic_group(8)
    d = make_discrete_proximity(z8.space)
    with pytest.raises(ValueError, match="contained"):
        third_iso_harness(z8, d, (1 << 0) | (1 << 2) | (1 << 4) | (1 << 6), (1 << 0) | (1 << 4))


def test_iso_harness_tail_needs_a_bijective_homomorphism():
    # the shared tail of the three harnesses: a homomorphism that is not
    # bijective is no group isomorphism, whatever the proximal verdicts
    z2 = cyclic_group(2)
    c = make_coarse_proximity(z2.space)
    report = _iso_report((z2, c), (z2, c), [0, 0])
    assert not report.group_isomorphism and not report.ok
    assert report.proximal.verdicts["bijective"] is False
    assert _iso_report((z2, c), (z2, c), [0, 1]).ok


# --- exact isomorphism theorems on coset relations ------------------------------
# Each relation of _coset_relations(g, ...) is the coset relation of a normal
# subgroup M of g, the points near the identity.


def _coset_structures(max_order):
    for _, g in all_groups_up_to(max_order):
        for _, rel in _coset_relations(g, "lodato"):
            yield g, rel, rel.point_graph[g.identity]


def test_first_iso_exact_statements_on_coset_relations():
    # eta is pcont iff eta(M1) <= M2; for a surjective pcont eta, the
    # induced map is a proximal isomorphism iff eta(M1) = M2
    groups = all_groups_up_to(6)
    cosets = {
        name: [(rel, rel.point_graph[g.identity]) for _, rel in _coset_relations(g, "lodato")]
        for name, g in groups
    }
    cases = surjective = 0
    for name1, g1 in groups:
        for name2, g2 in groups:
            homs = list(_all_homomorphisms(g1, g2))
            onto = [set(eta.images) == set(range(g2.order)) for eta in homs]
            for rel1, m1 in cosets[name1]:
                for rel2, m2 in cosets[name2]:
                    for eta, is_onto in zip(homs, onto):
                        cases += 1
                        image = eta.image_mask(m1)
                        pcont = check_pcont(eta, rel1, rel2).ok
                        assert pcont == (image & ~m2 == 0)
                        if pcont and is_onto:
                            surjective += 1
                            iso = first_iso_harness(eta, g1, rel1, g2, rel2).ok
                            assert iso == (image == m2)
    assert (cases, surjective) == (1753, 230)


def test_second_iso_exact_statement_on_coset_relations():
    # the canonical map is a proximal isomorphism iff HN cap M <= (H cap M)N
    cases = failures = 0
    for g, rel, m in _coset_structures(8):
        for h in all_subgroups(g):
            for n in normal_subgroups(g):
                cases += 1
                predicted = not subset_product(g, h, n) & m & ~subset_product(g, h & m, n)
                assert second_iso_harness(g, rel, h, n).ok == predicted
                assert second_iso_holds(g, rel, h, n) == predicted
                failures += not predicted
    assert (cases, failures) == (5551, 650)


def test_third_iso_holds_on_every_coset_relation():
    cases = 0
    for g, rel, _ in _coset_structures(8):
        normals = normal_subgroups(g)
        for n in normals:
            for k in normals:
                if not n & ~k:
                    cases += 1
                    assert third_iso_harness(g, rel, n, k).ok
                    assert third_iso_holds(g, rel, n, k)
    assert cases == 1677


def test_iso_twins_equal_the_harness_verdicts_at_default_scope():
    cases = 0
    for i in _second_iso_instances(THEOREMS["second-isomorphism-theorem"].scope):
        args = (i["group"][1], i["relation"], i["subgroup_mask"], i["normal_mask"])
        assert second_iso_holds(*args) == second_iso_harness(*args).ok
        cases += 1
    for i in _normal_chain_instances(THEOREMS["third-isomorphism-theorem"].scope):
        args = (i["group"][1], i["relation"], i["normal_mask"], i["containing_mask"])
        assert third_iso_holds(*args) == third_iso_harness(*args).ok
        cases += 1
    assert cases == 1402


def test_iso_twins_keep_the_group_half_on_g_and_decide_each_relation():
    v4 = dict(all_groups_up_to(4))["V4"]
    d, c = make_discrete_proximity(v4.space), make_coarse_proximity(v4.space)
    # H = {e, b}, N = {e, c}: HN = V4, and H/(H cap N) = H is Z2 = V4/N
    h, n = 0b0011, 0b0101
    assert second_iso_holds(v4, d, h, n)
    assert v4._derived[("second_iso", h, n)] == (0b1111, (0, 1), True)
    assert third_iso_holds(v4, c, 0b0001, n)
    assert v4._derived[("third_iso", 0b0001, n)][0] == n
    # the proximal half reads the relation: on the coset relation of
    # M = {e, d}, HN cap M = M is not in (H cap M)N = N, so the same kept
    # group half gives the other verdict
    m = relation_from_point_pairs(v4.space, [0b1001, 0b0110, 0b0110, 0b1001], "explicit")
    assert not second_iso_harness(v4, m, h, n).ok
    assert not second_iso_holds(v4, m, h, n)
    assert second_iso_holds(v4, d, h, n)


def test_iso_twins_raise_the_harness_messages():
    z3 = cyclic_group(3)
    rows = list(make_discrete_proximity(z3.space).rows)
    rows[0] |= 1
    bad = ProximityRelation(z3.space, tuple(rows))
    path = relation_from_point_pairs(z3.space, [0b011, 0b111, 0b110], "explicit")
    s3 = dict(all_groups_up_to(6))["S3"]
    d = make_discrete_proximity(s3.space)
    refused = [(z3, rel, 0b111, 0b001) for rel in (bad, path)]
    # {a, b} is no subgroup of S3 and {a, d} is one but not normal;
    # A3 = {a, b, c} is normal and not inside {a}
    second = refused + [(s3, d, 0b000011, 0b000001), (s3, d, 0b000001, 0b001001)]
    third = refused + [
        (s3, d, 0b000011, 0b111111), (s3, d, 0b000001, 0b001001), (s3, d, 0b000111, 0b000001)
    ]
    messages = []
    for harness, twin, cases in (
        (second_iso_harness, second_iso_holds, second),
        (third_iso_harness, third_iso_holds, third),
    ):
        for args in cases:
            with pytest.raises(ValueError) as raised:
                harness(*args)
            # twice: a refused instance keeps nothing, so it is refused again
            for _ in range(2):
                with pytest.raises(ValueError, match=f"^{re.escape(str(raised.value))}$"):
                    twin(*args)
            messages.append(str(raised.value).split(":")[0])
    assert messages == [
        "input is not a verified proximal group", "input is not a verified proximal group", "H", "N",
        "input is not a verified proximal group", "input is not a verified proximal group",
        "N", "K", "N must be contained in K",
    ]


# --- hausdorff -------------------------------------------------------------------


def test_hausdorff_z3_discrete():
    z3 = cyclic_group(3)
    report = hausdorff_check(z3, make_discrete_proximity(z3.space))
    assert report.t1 and report.identity_closed and report.readings_agree
    assert not report.literal_identity_only  # {e} is near {e, x} under L3/L4


def test_hausdorff_z2_coarse():
    z2 = cyclic_group(2)
    report = hausdorff_check(z2, make_coarse_proximity(z2.space))
    assert not report.t1 and not report.identity_closed and report.readings_agree


def test_hausdorff_rejects_unverified():
    z2 = cyclic_group(2)
    from proxikit import ProximityRelation

    rows = list(make_discrete_proximity(z2.space).rows)
    rows[1] |= 1 << 2
    with pytest.raises(ValueError, match="verified"):
        hausdorff_check(z2, ProximityRelation(z2.space, tuple(rows)))


def test_hausdorff_readings_agree_on_all_verified_structures():
    for _, g in all_groups_up_to(4):
        for rel in enumerate_relations(g.order, "cech"):
            if check_proximal_group(g, rel).ok:
                assert hausdorff_check(g, rel).readings_agree


# --- descriptive proximal groups --------------------------------------------------


def test_descriptive_group_injective_probes_z3():
    z3 = cyclic_group(3)
    probes = probe_table(z3.space, [[0], [1], [2]])
    assert check_descriptive_proximal_group(z3, probes).ok


def test_descriptive_group_constant_probe_small_orders():
    for _, g in all_groups_up_to(6):
        probes = probe_table(g.space, [[1]] * g.order)
        assert check_descriptive_proximal_group(g, probes).ok


def test_descriptive_group_matches_plain_check_on_induced_relation(z7_on_samples, trunc_offset_probes):
    direct = check_descriptive_proximal_group(z7_on_samples, trunc_offset_probes)
    via_rel = check_proximal_group(
        z7_on_samples, descriptive_proximity(trunc_offset_probes), max_size=7
    )
    assert direct.ok == via_rel.ok
    assert direct.mu1_pcont == via_rel.mu1_pcont
    assert direct.mu2_pcont == via_rel.mu2_pcont


def test_trunc_offset_fixture_verdicts(z7_on_samples, trunc_offset_probes):
    # index addition mod 7 does not respect the description classes: adding
    # inside the {0, 0.3} class lands on both sides of the {1, 1.3} / {2.5}
    # split, so multiplication continuity fails while inversion survives
    report = check_descriptive_proximal_group(z7_on_samples, trunc_offset_probes)
    assert report.is_proximity.ok
    assert not report.mu1_pcont.ok
    assert report.mu2_pcont.ok
    rel = descriptive_proximity(trunc_offset_probes)
    b1, b2, c1, c2 = report.mu1_pcont.witness
    from proxikit import subset_product

    assert rel.near(b1, c1) and rel.near(b2, c2)
    assert not rel.near(
        subset_product(z7_on_samples, b1, b2), subset_product(z7_on_samples, c1, c2)
    )


def test_descriptive_subgroup_composition():
    z6 = cyclic_group(6)
    probes = probe_table(z6.space, [[i] for i in range(6)])
    rel = descriptive_proximity(probes)
    h = (1 << 0) | (1 << 2) | (1 << 4)
    assert subgroup_proximal_group(z6, rel, h).ok


# --- caps ---------------------------------------------------------------------------


def test_harness_scans_obey_max_size():
    z3 = cyclic_group(3)
    # the empty set near itself: not Cech, so the implication harnesses read
    # the table, and the isomorphism harnesses refuse it
    rows = list(make_discrete_proximity(z3.space).rows)
    rows[0] |= 1
    bad = ProximityRelation(z3.space, tuple(rows))
    ident = identity_map(z3.space)
    runs = [lambda: inversion_continuity_harness(z3, bad, max_size=1)]
    runs += [
        lambda mode=mode: multiplication_continuity_harness(z3, bad, mode, max_size=1)
        for mode in ("ef-transitivity", "lodato-pointwise")
    ]
    for run in runs:
        with pytest.raises(ValueError, match="scan on a [1-9]-element carrier exceeds the cap 1;"
                           " pass max_size=[1-9] to run it anyway"):
            run()
    assert inversion_continuity_harness(z3, bad, max_size=3).implication_ok
    iso_runs = [
        ("domain structure", lambda: first_iso_harness(ident, z3, bad, z3, bad)),
        ("input", lambda: second_iso_harness(z3, bad, 0b111, 0b001)),
        ("input", lambda: third_iso_harness(z3, bad, 0b001, 0b001)),
    ]
    for side, run in iso_runs:
        with pytest.raises(ValueError, match=f"^{side} is not a verified proximal group$"):
            run()


def test_harnesses_pass_max_size_to_their_pullbacks():
    z6 = cyclic_group(6)
    rows = list(make_discrete_proximity(z6.space).rows)
    rows[0] |= 1
    bad = ProximityRelation(z6.space, tuple(rows))
    # the pullbacks of H = {0, 2, 4} and of G/N for N = {0, 3} would scan
    # the table; the isomorphism harnesses refuse it before building either
    runs = [
        lambda: second_iso_harness(z6, bad, 0b010101, 0b000001),
        lambda: third_iso_harness(z6, bad, 0b001001, 0b111111),
    ]
    for run in runs:
        with pytest.raises(ValueError, match="^input is not a verified proximal group$"):
            run()


def test_iso_harnesses_refuse_a_cech_relation_that_is_no_coset_relation():
    # a -- b -- c on Z3: Cech, but P[e] = {a, b} is no subgroup
    z3 = cyclic_group(3)
    path = relation_from_point_pairs(z3.space, [0b011, 0b111, 0b110], "explicit")
    d = make_discrete_proximity(z3.space)
    ident = identity_map(z3.space)
    assert path.point_graph is not None
    runs = [
        ("domain structure", lambda: first_iso_harness(ident, z3, path, z3, path)),
        ("codomain structure", lambda: first_iso_harness(ident, z3, d, z3, path)),
        ("input", lambda: second_iso_harness(z3, path, 0b111, 0b001)),
        ("input", lambda: third_iso_harness(z3, path, 0b001, 0b111)),
    ]
    for side, run in runs:
        with pytest.raises(ValueError, match=f"^{side} is not a verified proximal group$"):
            run()


def _group_fields(g: FiniteGroup) -> tuple:
    return g.space.labels, g.cayley, g.identity, g.inverse


def test_quotient_inside_is_kept_and_equals_a_fresh_build():
    scope = THEOREMS["second-isomorphism-theorem"].scope
    drawn = {}
    for i in _second_iso_instances(scope):
        g, rel, h, n = i["group"][1], i["relation"], i["subgroup_mask"], i["normal_mask"]
        for s, m in ((h, h & n), (subset_product(g, h, n), n)):
            drawn[g, rel, s, m] = None
    assert len({(g, s, m) for g, _, s, m in drawn}) == 198
    for g, rel, s, m in drawn:
        (quot, quot_rel), in_g = _quotient_inside(g, rel, s, m)
        fresh_g = FiniteGroup(g.space, g.cayley, g.identity, g.inverse)
        fresh_rel = ProximityRelation(rel.space, rel.rows, rel.provenance)
        (fresh_quot, fresh_quot_rel), fresh_in_g = _quotient_inside(fresh_g, fresh_rel, s, m)
        assert _group_fields(quot) == _group_fields(fresh_quot)
        assert (quot_rel.space, quot_rel.rows, quot_rel.provenance, quot_rel.point_graph) == (
            fresh_quot_rel.space, fresh_quot_rel.rows,
            fresh_quot_rel.provenance, fresh_quot_rel.point_graph,
        )
        assert in_g == fresh_in_g
        again = _quotient_inside(g, rel, s, m)
        assert again[0][0] is quot and again[0][1] is quot_rel and again[1] is in_g


def test_full_carrier_sides_take_the_quotient_from_the_relation():
    z4 = cyclic_group(4)
    d = make_discrete_proximity(z4.space)
    full = z4.space.full_mask
    report = third_iso_harness(z4, d, 0b0001, 0b0101)
    assert report.ok
    assert ("subspace", full) not in d._derived
    (quot, quot_rel), _ = _quotient_inside(z4, d, full, 0b0101)
    assert d._derived[("quotient", (0b0101, 0b1010))] is quot_rel
    assert quot_rel.provenance == "quotient" and quot_rel.point_graph == (0b01, 0b10)


def test_harness_helpers_cap_their_own_scans():
    z8 = cyclic_group(8)
    coarse = make_coarse_proximity(z8.space)
    with pytest.raises(ValueError, match="pointwise-nearness pair scan .* pass max_size=8"):
        _pointwise_nearness(coarse)
    assert _pointwise_nearness(coarse, 8).ok
    # a -- b only: mu1 fails, and its witness is read from P at the default cap
    points = [0b11, 0b11] + [1 << i for i in range(2, 8)]
    tolerance = relation_from_point_pairs(z8.space, points, "explicit")
    assert _mu1_check(z8, tolerance) == Check(False, (1, 1, 2, 2))


# --- projection demo ----------------------------------------------------------------


def test_projection_iso_when_second_factor_trivial():
    z3 = cyclic_group(3)
    z1 = cyclic_group(1)
    p3 = probe_table(z3.space, [[0], [1], [2]])
    p1 = probe_table(z1.space, [[0]])
    demo = projection_hom_demo(z3, p3, z1, p1)
    assert demo.homomorphism.ok
    assert demo.isomorphism.ok


def test_projection_hom_but_not_iso_z2_z2():
    z2 = cyclic_group(2)
    probes = probe_table(z2.space, [[0], [1]])
    demo = projection_hom_demo(z2, probes, z2, probes)
    assert demo.homomorphism.ok
    assert not demo.isomorphism.ok
    assert not demo.isomorphism.verdicts["bijective"]


def test_projection_blocks_on_far_second_coordinates():
    # far second coordinates block rectangle nearness in the product even
    # though the projected first coordinates are near
    z2 = cyclic_group(2)
    probes = probe_table(z2.space, [[0], [1]])
    from proxikit import product_probe_table

    prod_probes = product_probe_table(probes, probes)
    rel = descriptive_proximity(prod_probes)
    # the pair (i, j) is element 2i + j of the product carrier
    r1 = 0b0001  # {a} x {a}
    r2 = 0b0010  # {a} x {b}
    assert not rel.near(r1, r2)


def test_projection_demo_names_a_factor_that_is_no_proximal_group():
    # a and b share a description, so P[e] = {a, b} is no subgroup of Z3
    z3 = cyclic_group(3)
    good = probe_table(z3.space, [[0], [1], [2]])
    bad = probe_table(z3.space, [[0], [0], [1]])
    for name, args in (("first", (bad, good)), ("second", (good, bad))):
        with pytest.raises(ValueError, match=f"^{name} factor is not a verified proximal group$"):
            projection_hom_demo(z3, args[0], z3, args[1])

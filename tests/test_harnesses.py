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
from proxikit import enumeration, groups, harnesses, maps, relations
from proxikit.enumeration import (
    THEOREMS,
    FuzzScope,
    _all_homomorphisms,
    _coset_relations,
    _first_iso_instances,
    _normal_chain_instances,
    _second_iso_instances,
    fuzz_theorem,
)
from proxikit.axioms import AxiomReport
from proxikit.groups import (
    FiniteGroup,
    _mu1_check,
    all_subgroups,
    coset_partition,
    homomorphism_violation,
    normal_subgroups,
    subgroup_group,
    subset_product,
)
from proxikit.harnesses import (
    _containing,
    _group_inside,
    _pointwise_nearness,
    _second_iso,
    _side_points,
    _third_iso,
)
from proxikit.relations import pullback_points, quotient_proximity, subspace_proximity
from proxikit.spaces import bits, image, union_over
from proxikit.maps import check_pcont, check_proximal_isomorphism


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


def test_first_iso_rejects_a_map_that_is_no_homomorphism():
    # the swap of Z2 sends the identity to b: (a, a) is the first violation
    z2 = cyclic_group(2)
    d = make_discrete_proximity(z2.space)
    swap = SpaceMap(z2.space, z2.space, (1, 0), "swap")
    with pytest.raises(ValueError, match=r"^map is not a group homomorphism at \(0, 0\)$"):
        first_iso_harness(swap, z2, d, z2, d)


def test_first_iso_reports_non_surjective():
    z2 = cyclic_group(2)
    z4 = cyclic_group(4)
    eta = SpaceMap(z2.space, z4.space, (0, 2), "embed")
    report = first_iso_harness(
        eta, z2, make_discrete_proximity(z2.space), z4, make_discrete_proximity(z4.space)
    )
    assert not report.surjective and not report.ok
    assert not report.group_isomorphism
    # b of a, b, c, d is the lowest element of Z4 off the image {a, c}
    assert report.missing_image == 0b10
    assert report.canonical is None
    # the bijective witness is that point's singleton on the codomain
    assert report.proximal == AxiomReport({"bijective": False}, {"bijective": (0b10,)})


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
                report = second_iso_harness(g, rel, h, n)
                assert report.ok == predicted
                # the witness runs of a forced read agree
                assert report.proximal.ok == predicted
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
                    report = third_iso_harness(g, rel, n, k)
                    assert report.ok
                    assert report.proximal.ok
    assert cases == 1677


def test_iso_twins_equal_the_harness_verdicts_at_default_scope():
    # ok, decided on the sides' point relations, is the verdict of the
    # witness runs, which wait for the first read of proximal
    cases = 0
    for i in _second_iso_instances(THEOREMS["second-isomorphism-theorem"].scope):
        args = (i["group"][1], i["relation"], i["subgroup_mask"], i["normal_mask"])
        report = second_iso_harness(*args)
        assert not {"canonical", "proximal"} & set(vars(report))
        assert report.ok == (report.surjective and report.proximal.ok)
        cases += 1
    for i in _normal_chain_instances(THEOREMS["third-isomorphism-theorem"].scope):
        args = (i["group"][1], i["relation"], i["normal_mask"], i["containing_mask"])
        report = third_iso_harness(*args)
        assert not {"canonical", "proximal"} & set(vars(report))
        assert report.ok == (report.surjective and report.proximal.ok)
        cases += 1
    assert cases == 1402


def test_iso_twins_keep_the_group_half_on_g_and_decide_each_relation():
    v4 = dict(all_groups_up_to(4))["V4"]
    d, c = make_discrete_proximity(v4.space), make_coarse_proximity(v4.space)
    # H = {e, b}, N = {e, c}: HN = V4, and H/(H cap N) = H is Z2 = V4/N
    h, n = 0b0011, 0b0101
    assert second_iso_harness(v4, d, h, n).ok
    # HN, the canonical images, and the sides {e}, {b} and N, bN as masks of G
    assert v4._derived[("second_iso", h, n)] == (0b1111, (0, 1), (0b0001, 0b0010), (0b0101, 0b1010))
    assert third_iso_harness(v4, c, 0b0001, n).ok
    # K/N = N over the trivial N, and the K-cosets N, bN
    assert v4._derived[("third_iso", 0b0001, n)] == (n, (0b0101, 0b1010))
    # the proximal half reads the relation: on the coset relation of
    # M = {e, d}, HN cap M = M is not in (H cap M)N = N, so the same kept
    # group half gives the other verdict
    m = relation_from_point_pairs(v4.space, [0b1001, 0b0110, 0b0110, 0b1001], "explicit")
    assert not second_iso_harness(v4, m, h, n).ok
    assert second_iso_harness(v4, d, h, n).ok


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
    for harness, cases in ((second_iso_harness, second), (third_iso_harness, third)):
        for args in cases:
            with pytest.raises(ValueError) as raised:
                harness(*args)
            # again: a refused instance keeps nothing, so it is refused again
            with pytest.raises(ValueError, match=f"^{re.escape(str(raised.value))}$"):
                harness(*args)
            messages.append(str(raised.value).split(":")[0])
    assert messages == [
        "input is not a verified proximal group", "input is not a verified proximal group", "H", "N",
        "input is not a verified proximal group", "input is not a verified proximal group",
        "N", "K", "N must be contained in K",
    ]


@pytest.mark.parametrize(
    "scope, cases",
    [(THEOREMS["second-isomorphism-theorem"].scope, (1034, 368)), (FuzzScope(4, ("cech",)), (169, 91))],
)
def test_twin_sides_equal_the_harness_sides(scope, cases):
    # each side's point relation, read off P and the blocks as masks of G,
    # is the point relation of the side relation the harness builds
    def same_side(rel, side, in_g):
        points = pullback_points(rel.point_graph, in_g)
        assert points == side.point_graph == _side_points(rel, in_g)

    second = third = 0
    for i in _second_iso_instances(scope):
        g, rel, h, n = i["group"][1], i["relation"], i["subgroup_mask"], i["normal_mask"]
        for s, m in ((h, h & n), (subset_product(g, h, n), n)):
            (_, side), in_g = _oracle_quotient_inside(g, rel, s, m)
            same_side(rel, side, in_g)
        second += 1
    for i in _normal_chain_instances(scope):
        g, rel, n, k = i["group"][1], i["relation"], i["normal_mask"], i["containing_mask"]
        full = g.space.full_mask
        k_over_n, left_in_g = _third_iso(g, rel, n, k)
        (quot_n, rel_n), _ = _oracle_quotient_inside(g, rel, full, n)
        (_, left), _ = _oracle_quotient_inside(quot_n, rel_n, quot_n.space.full_mask, k_over_n)
        same_side(rel, left, left_in_g)
        (_, right), right_in_g = _oracle_quotient_inside(g, rel, full, k)
        same_side(rel, right, right_in_g)
        third += 1
    assert (second, third) == cases


def test_iso_twins_build_no_side_relation(monkeypatch):
    calls = []
    real = relations._pullback

    def spy(rel, space, images, provenance, max_size):
        calls.append(provenance)
        return real(rel, space, images, provenance, max_size)

    monkeypatch.setattr(relations, "_pullback", spy)
    second = third = 0
    for g, source, _ in _coset_structures(8):
        # a fresh relation, so no memo of the catalog source answers for it
        rel = ProximityRelation(source.space, source.rows, source.provenance)
        normals = normal_subgroups(g)
        for h in all_subgroups(g):
            for n in normals:
                second_iso_harness(g, rel, h, n)
                second += 1
        for n in normals:
            for k in normals:
                if not n & ~k:
                    assert third_iso_harness(g, rel, n, k).ok
                    third += 1
        assert not [key for key in rel._derived if key[0] in ("subspace", "quotient")]
    assert (second, third) == (5551, 1677)
    assert calls == []
    # nor does a forced read; the spy sees the oracle build its sides
    assert third_iso_harness(g, rel, 1 << g.identity, g.space.full_mask).proximal.ok
    assert calls == []
    assert _oracle_third_iso(g, rel, 1 << g.identity, g.space.full_mask)[2].ok
    assert calls == ["quotient"] * 3


def _is_group_isomorphism(g1, g2, images):
    """Whether the map with these images is a bijective homomorphism g1 -> g2:
    the group verdict the twins once computed, kept here as an oracle."""
    f = SpaceMap(g1.space, g2.space, tuple(images))
    return f.is_bijective() and homomorphism_violation(f, g1, g2) is None


def test_coset_partition_of_a_subgroup_equals_the_group_inside_elements():
    # oracle: the cosets of M in the group S on its own carrier, moved to G
    cases = 0
    for _, g in all_groups_up_to(8):
        for s in all_subgroups(g):
            members = list(bits(s))
            sub = subgroup_group(g, s)
            for m_on_s in normal_subgroups(sub):
                m = image(members, m_on_s)
                _, blocks, in_g = _group_inside(g, s, m)
                assert in_g == coset_partition(g, m, s)
                assert in_g == tuple(image(members, block) for block in blocks)
                cases += 1
    assert cases == 202


def test_second_iso_images_are_a_group_isomorphism_between_the_quotients():
    cases = 0
    for _, g in all_groups_up_to(8):
        d = make_discrete_proximity(g.space)
        for h in all_subgroups(g):
            for n in normal_subgroups(g):
                hn, images, left, right = _second_iso(g, d, h, n)
                left_group, _, left_in_g = _group_inside(g, h, h & n)
                right_group, _, right_in_g = _group_inside(g, hn, n)
                assert (left, right) == (left_in_g, right_in_g)
                assert sorted(images) == list(range(len(right)))
                assert _is_group_isomorphism(left_group, right_group, images)
                cases += 1
    assert cases == 517


def test_third_iso_left_elements_are_the_k_cosets_with_identity_images():
    # oracle: (G/N)/(K/N) built inside G/N, its elements moved to G
    cases = 0
    for _, g in all_groups_up_to(8):
        c = make_coarse_proximity(g.space)
        full = g.space.full_mask
        normals = normal_subgroups(g)
        for n in normals:
            for k in normals:
                if n & ~k:
                    continue
                k_over_n, k_cosets = _third_iso(g, c, n, k)
                quot_n, _, n_blocks = _group_inside(g, full, n)
                left, _, left_blocks = _group_inside(quot_n, quot_n.space.full_mask, k_over_n)
                right, _, right_in_g = _group_inside(g, full, k)
                left_in_g = tuple(union_over(n_blocks, b) for b in left_blocks)
                assert left_in_g == right_in_g == k_cosets == coset_partition(g, k)
                images = _containing(left_in_g, right_in_g)
                assert images == tuple(range(len(k_cosets)))
                assert _is_group_isomorphism(left, right, images)
                cases += 1
    assert cases == 184


def test_cold_iso_twins_build_no_group_and_no_map(monkeypatch):
    # a harness's ok is the verdict twin of its proximal report: on a cold
    # group it builds no side group and no map, and only a forced read does.
    # A relabelled copy of each catalog group: an equal table on another
    # carrier, memo empty, with its identity map built before the spies.
    cold = [
        source.with_labels([f"{name}.{label}" for label in source.space.labels])
        for name, source in all_groups_up_to(8)
    ]
    identities = [identity_map(g.space) for g in cold]
    calls = []

    def spy(module, name):
        real = getattr(module, name)

        def wrapped(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapped)

    for module in (groups, harnesses):
        for name in ("subgroup_group", "quotient_group", "homomorphism_violation"):
            spy(module, name)
    real_init = SpaceMap.__post_init__

    def counting_init(self):
        calls.append("SpaceMap")
        real_init(self)

    monkeypatch.setattr(SpaceMap, "__post_init__", counting_init)
    first = second = third = 0
    for g, identity in zip(cold, identities):
        assert not g._derived
        normals = normal_subgroups(g)
        for _, rel in _coset_relations(g, "lodato"):
            assert first_iso_harness(identity, g, rel, g, rel).ok
            first += 1
            for h in all_subgroups(g):
                for n in normals:
                    second_iso_harness(g, rel, h, n)
                    second += 1
            for n in normals:
                for k in normals:
                    if not n & ~k:
                        assert third_iso_harness(g, rel, n, k).ok
                        third += 1
    assert (first, second, third) == (64, 5551, 1677)
    # the first theorem checks its map, and nothing else is built
    assert calls == ["homomorphism_violation"] * first
    # a forced read builds the side groups and the map once
    calls.clear()
    report = third_iso_harness(g, rel, 1 << g.identity, g.space.full_mask)
    assert calls == []
    assert report.proximal.ok
    built = list(calls)
    assert {"subgroup_group", "quotient_group", "SpaceMap"} <= set(built)
    assert report.proximal.ok and report.canonical.images == (0,)
    assert calls == built


# --- the report oracle -----------------------------------------------------------
# The report harnesses once built each side's relation, the quotient of a
# subspace pullback, and checked the canonical map between the side relations
# with check_proximal_isomorphism and homomorphism_violation.  That build is
# kept here as the oracle of the reports read off the sides' point relations.


def _oracle_quotient_inside(g, rel, s, m):
    """S/M (_group_inside) with its relation, the quotient of the subspace
    relation on S (rel itself on S = G), and its elements as masks of G."""
    quot, blocks, in_g = _group_inside(g, s, m)
    base = rel if s == g.space.full_mask else subspace_proximity(rel, s)
    return (quot, quotient_proximity(base, blocks)), in_g


def _oracle_iso_report(source, target, images):
    """The report fields (surjective, group_isomorphism, proximal,
    missing_image, canonical) of the canonical map between two sides."""
    (g1, rel1), (g2, rel2) = source, target
    f = SpaceMap(g1.space, g2.space, tuple(images), "canonical")
    proximal = check_proximal_isomorphism(f, rel1, rel2)
    group_iso = proximal.verdicts["bijective"] and groups.homomorphism_violation(f, g1, g2) is None
    return True, group_iso, proximal, None, f


def _oracle_first_iso(eta, g1, rel1, g2, rel2):
    if set(eta.images) != set(range(g2.order)):
        missing = next(i for i in range(g2.order) if i not in set(eta.images))
        proximal = AxiomReport({"bijective": False}, {"bijective": (1 << missing,)})
        return False, False, proximal, 1 << missing, None
    kernel = sum(1 << i for i in range(g1.order) if eta.images[i] == g2.identity)
    quot, blocks = _oracle_quotient_inside(g1, rel1, g1.space.full_mask, kernel)
    images = [eta.images[min(bits(block))] for block in blocks]
    return _oracle_iso_report(quot, (g2, rel2), images)


def _oracle_second_iso(g, rel, h, n):
    hn, images, _, _ = _second_iso(g, rel, h, n)
    left, _ = _oracle_quotient_inside(g, rel, h, h & n)
    right, _ = _oracle_quotient_inside(g, rel, hn, n)
    return _oracle_iso_report(left, right, images)


def _oracle_third_iso(g, rel, n, k):
    k_over_n, k_cosets = _third_iso(g, rel, n, k)
    full = g.space.full_mask
    (quot_n, rel_n), _ = _oracle_quotient_inside(g, rel, full, n)
    left, _ = _oracle_quotient_inside(quot_n, rel_n, quot_n.space.full_mask, k_over_n)
    right, _ = _oracle_quotient_inside(g, rel, full, k)
    return _oracle_iso_report(left, right, range(len(k_cosets)))


def _report_fields(fields, ok=None):
    """The fields with the proximal verdicts in report order, as printed,
    and ok, by default the verdict of the witness runs."""
    surjective, group_iso, proximal, missing, canonical = fields
    if ok is None:
        ok = surjective and proximal.ok
    verdicts = tuple(proximal.verdicts.items())
    return ok, surjective, group_iso, verdicts, dict(proximal.witnesses), missing, canonical


def _fields(report):
    """The report's fields; ok is read first, as a sweep reads it."""
    ok = report.ok
    return _report_fields((
        report.surjective, report.group_isomorphism, report.proximal,
        report.missing_image, report.canonical,
    ), ok)


def _iso_cases(scope):
    """(harness, oracle, args) over each theorem's instances; the default
    scope is each theorem's own."""
    for theorem, instances, harness, oracle, keys in (
        ("first-isomorphism-theorem", _first_iso_instances, first_iso_harness, _oracle_first_iso,
         ("map_images", "group", "relation", "group2", "relation2")),
        ("second-isomorphism-theorem", _second_iso_instances, second_iso_harness,
         _oracle_second_iso, ("group", "relation", "subgroup_mask", "normal_mask")),
        ("third-isomorphism-theorem", _normal_chain_instances, third_iso_harness,
         _oracle_third_iso, ("group", "relation", "normal_mask", "containing_mask")),
    ):
        for i in instances(scope or THEOREMS[theorem].scope):
            args = tuple(i[key][1] if key.startswith("group") else i[key] for key in keys)
            yield theorem, harness, oracle, args


@pytest.mark.parametrize(
    "scope, cases", [(None, (21, 1034, 368)), (FuzzScope(4, ("cech",)), (132, 169, 91))]
)
def test_iso_reports_equal_the_side_relation_oracle(scope, cases):
    counts = dict.fromkeys(("first", "second", "third"), 0)
    for theorem, harness, oracle, args in _iso_cases(scope):
        assert _fields(harness(*args)) == _report_fields(oracle(*args)), (theorem, args)
        counts[theorem.split("-")[0]] += 1
    assert tuple(counts.values()) == cases


def test_group_isomorphism_is_surjective_on_every_catalog_homomorphism():
    # the oracle checks the induced map with homomorphism_violation
    cases = onto = 0
    for _, g1 in all_groups_up_to(6):
        d1 = make_discrete_proximity(g1.space)
        for _, g2 in all_groups_up_to(6):
            d2 = make_discrete_proximity(g2.space)
            for eta in _all_homomorphisms(g1, g2):
                report = first_iso_harness(eta, g1, d1, g2, d2)
                expected = _oracle_first_iso(eta, g1, d1, g2, d2)
                assert _fields(report) == _report_fields(expected)
                assert report.group_isomorphism == expected[1] == report.surjective
                cases += 1
                onto += report.surjective
    assert (cases, onto) == (159, 39)


def test_warm_first_iso_sweep_checks_each_map_once_and_builds_no_side(monkeypatch):
    theorem = "first-isomorphism-theorem"
    fuzz_theorem(theorem)
    calls = []
    spied = (
        (groups, "homomorphism_violation"), (maps, "check_pcont"),
        (maps, "pcont_point_witness"), (maps, "check_proximal_isomorphism"),
        (groups, "subgroup_group"), (groups, "quotient_group"),
        (relations, "quotient_proximity"), (relations, "subspace_proximity"),
        (relations, "relation_from_point_pairs"),
    )
    for module, name in spied:
        real = getattr(module, name)

        def spy(*args, name=name, real=real, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        # wherever the name was imported, so that no call route escapes
        for holder in (groups, maps, harnesses, relations, enumeration):
            if getattr(holder, name, None) is real:
                monkeypatch.setattr(holder, name, spy)
    real_init = SpaceMap.__post_init__

    def naming_init(self):
        calls.append(f"SpaceMap {self.name}")
        real_init(self)

    monkeypatch.setattr(SpaceMap, "__post_init__", naming_init)
    outcome = fuzz_theorem(theorem)
    assert (outcome.instances, len(outcome.counterexamples)) == (21, 3)
    # the sweep filters its maps with check_pcont, and each harness checks
    # its map once more; every check is Cech, and ok reads no witness
    assert calls.count("homomorphism_violation") == 21
    assert calls.count("pcont_point_witness") == calls.count("check_pcont")
    assert set(calls) == {"homomorphism_violation", "check_pcont", "pcont_point_witness", "SpaceMap hom"}
    # a forced read builds the canonical map and its inverse and reads the
    # two witnesses off the side point relations, once per report
    reports = [
        first_iso_harness(i["map_images"], i["group"][1], i["relation"], i["group2"][1], i["relation2"])
        for i in _first_iso_instances(THEOREMS[theorem].scope)
    ]
    calls.clear()
    for _ in range(2):
        assert [r.ok for r in reports] == [r.proximal.ok for r in reports]
    assert sorted(set(calls)) == ["SpaceMap canonical", "SpaceMap canonical^-1", "pcont_point_witness"]
    assert calls.count("SpaceMap canonical") == calls.count("SpaceMap canonical^-1") == 21
    assert calls.count("pcont_point_witness") == 2 * 21


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



def test_descriptive_group_refuses_probes_on_another_carrier():
    probes = probe_table(default_space(2), [[0], [1]])
    with pytest.raises(ValueError, match=r"^group and probe-table carriers do not match$"):
        check_descriptive_proximal_group(cyclic_group(3), probes)

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
        (quot, quot_rel), in_g = _oracle_quotient_inside(g, rel, s, m)
        fresh_g = FiniteGroup(g.space, g.cayley, g.identity, g.inverse)
        fresh_rel = ProximityRelation(rel.space, rel.rows, rel.provenance)
        (fresh_quot, fresh_quot_rel), fresh_in_g = _oracle_quotient_inside(fresh_g, fresh_rel, s, m)
        assert _group_fields(quot) == _group_fields(fresh_quot)
        assert (quot_rel.space, quot_rel.rows, quot_rel.provenance, quot_rel.point_graph) == (
            fresh_quot_rel.space, fresh_quot_rel.rows,
            fresh_quot_rel.provenance, fresh_quot_rel.point_graph,
        )
        assert in_g == fresh_in_g
        again = _oracle_quotient_inside(g, rel, s, m)
        assert again[0][0] is quot and again[0][1] is quot_rel and again[1] is in_g


def test_full_carrier_sides_take_the_quotient_from_the_relation():
    z4 = cyclic_group(4)
    d = make_discrete_proximity(z4.space)
    full = z4.space.full_mask
    report = third_iso_harness(z4, d, 0b0001, 0b0101)
    assert report.ok
    assert ("subspace", full) not in d._derived
    (quot, quot_rel), _ = _oracle_quotient_inside(z4, d, full, 0b0101)
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

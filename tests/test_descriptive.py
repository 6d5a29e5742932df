import random

import pytest
from hypothesis import given, settings, strategies as st

from proxikit import (
    MappingSpaceVerdict,
    SpaceMap,
    all_groups_up_to,
    bits,
    check_descriptive_ef,
    check_descriptive_lodato,
    check_descriptive_proximal_group,
    check_dpcont,
    check_efremovic,
    check_lodato,
    check_pcont,
    default_space,
    describe,
    descriptive_intersection,
    descriptive_proximity,
    ef_separators,
    identity_map,
    make_coarse_proximity,
    make_discrete_proximity,
    mapping_space_relation,
    normal_subgroups,
    probe_table,
    product_probe_table,
    subset_product,
)
from proxikit.enumeration import _all_homomorphisms

S3 = default_space(3)
INJECTIVE3 = probe_table(S3, [[0], [1], [2]])
CONSTANT3 = probe_table(S3, [[7], [7], [7]])


def random_probes(rng, n=None):
    n = n or rng.randint(1, 4)
    arity = rng.randint(1, 3)
    values = [[rng.randint(0, 3) for _ in range(arity)] for _ in range(n)]
    return probe_table(default_space(n), values)


def test_probe_table_validation():
    with pytest.raises(ValueError):
        probe_table(S3, [[0], [1]])
    with pytest.raises(ValueError):
        from proxikit import ProbeTable

        ProbeTable(S3, 2, ((0,), (1, 2), (3, 4)))


def test_describe_singleton_and_empty():
    assert describe(INJECTIVE3, 0b001) == frozenset({(0,)})
    assert describe(INJECTIVE3, 0) == frozenset()


def test_describe_merges_equal_vectors():
    probes = probe_table(S3, [[5], [5], [6]])
    assert describe(probes, 0b011) == frozenset({(5,)})


def test_injective_probes_give_discrete():
    assert descriptive_proximity(INJECTIVE3).rows == make_discrete_proximity(S3).rows


def test_constant_probe_gives_coarse():
    assert descriptive_proximity(CONSTANT3).rows == make_coarse_proximity(S3).rows


def test_trunc_offset_fixture_nearness(trunc_offset_probes):
    rel = descriptive_proximity(trunc_offset_probes)
    labels = trunc_offset_probes.space.labels
    one, one_three = labels.index("1"), labels.index("1.3")
    zero, zero_three = labels.index("0"), labels.index("0.3")
    assert rel.near(1 << one, 1 << one_three)
    assert rel.near(1 << zero, 1 << zero_three)
    assert not rel.near(1 << one, 1 << zero)


# --- descriptive intersection -------------------------------------------------


def test_descriptive_intersection_self_is_whole_set():
    assert descriptive_intersection(INJECTIVE3, 0b011, 0b011) == 0b011


def test_descriptive_intersection_disjoint_descriptions_empty():
    assert descriptive_intersection(INJECTIVE3, 0b001, 0b110) == 0


def test_descriptive_intersection_shared_element():
    assert descriptive_intersection(INJECTIVE3, 0b011, 0b110) == 0b010


@given(st.integers(min_value=0))
@settings(max_examples=200, deadline=None)
def test_descriptive_intersection_properties(seed):
    rng = random.Random(seed)
    probes = random_probes(rng)
    rel = descriptive_proximity(probes)
    m = probes.space.n_subsets
    a = rng.randrange(m)
    b = rng.randrange(m)
    inter = descriptive_intersection(probes, a, b)
    assert inter & ~(a | b) == 0  # contained in the union
    assert a & b & ~inter == 0  # shared elements always realize shared descriptions
    assert bool(inter) == rel.near(a, b)  # nonempty iff descriptively near


# --- axiom ladder -------------------------------------------------------------


def test_injective_report_matches_discrete_lodato():
    dl = check_descriptive_lodato(INJECTIVE3)
    l = check_lodato(make_discrete_proximity(S3))
    assert [dl.verdicts[k] for k in ("DL1", "DL2", "DL3", "DL4", "DL5")] == [
        l.verdicts[k] for k in ("L1", "L2", "L3", "L4", "L5")
    ]


def test_constant_probe_passes_dl():
    assert check_descriptive_lodato(CONSTANT3).ok


def test_constant_probe_def_vacuous():
    report = check_descriptive_ef(CONSTANT3)
    assert report.verdicts["DEF"]


DESCRIPTIVE_KEYS = {"L1": "DL1", "L2": "DL2", "L3": "DL3", "L4": "DL4", "L5": "DL5", "EF": "DEF"}


def _renamed(report):
    return (
        {DESCRIPTIVE_KEYS[k]: v for k, v in report.verdicts.items()},
        {DESCRIPTIVE_KEYS[k]: w for k, w in report.witnesses.items()},
    )


def test_random_probes_pass_dl_and_def():
    rng = random.Random(20240817)
    for _ in range(150):
        probes = random_probes(rng)
        rel = descriptive_proximity(probes)
        dl = check_descriptive_lodato(probes)
        de = check_descriptive_ef(probes)
        assert dl.ok and de.ok
        # the descriptive checks are the Lodato/EF checks on the induced relation
        assert (dict(dl.verdicts), dict(dl.witnesses)) == _renamed(check_lodato(rel))
        assert (dict(de.verdicts), dict(de.witnesses)) == _renamed(check_efremovic(rel))
        # DEF passes, so every far pair of the induced relation has a separator
        full = rel.space.full_mask
        for (a, b), k in ef_separators(rel).items():
            assert not rel.near(a, b) and not rel.near(a, k) and not rel.near(full ^ k, b)


# --- dpcont -------------------------------------------------------------------


def test_dpcont_identity_same_probes():
    assert check_dpcont(identity_map(S3), INJECTIVE3, INJECTIVE3).ok


def test_any_map_into_constant_codomain_is_dpcont():
    for images in ((0, 0, 0), (2, 1, 0), (1, 1, 2)):
        f = SpaceMap(S3, S3, images)
        assert check_dpcont(f, INJECTIVE3, CONSTANT3).ok


@given(st.integers(min_value=0))
@settings(max_examples=150, deadline=None)
def test_dpcont_equals_pcont_on_induced_relations(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 3)
    p1 = random_probes(rng, n)
    p2 = random_probes(rng, n)
    f = SpaceMap(p1.space, p2.space, tuple(rng.randrange(n) for _ in range(n)))
    direct = check_dpcont(f, p1, p2)
    via_rel = check_pcont(f, descriptive_proximity(p1), descriptive_proximity(p2))
    assert direct.ok == via_rel.ok
    if not direct.ok:
        assert direct.witnesses["dpcont"] == via_rel.witnesses["pcont"]


# --- mapping space ------------------------------------------------------------


def test_mapping_space_identity_near():
    ident = identity_map(S3)
    verdict = mapping_space_relation([ident], [ident], INJECTIVE3, INJECTIVE3)
    assert verdict.near


def test_mapping_space_constant_codomain_near():
    maps = [SpaceMap(S3, S3, (0, 0, 0)), SpaceMap(S3, S3, (1, 2, 0))]
    assert mapping_space_relation(maps, maps, INJECTIVE3, CONSTANT3).near


def test_mapping_space_far_with_witness():
    s2 = default_space(2)
    inj = probe_table(s2, [[0], [1]])
    ident = identity_map(s2)
    swap = SpaceMap(s2, s2, (1, 0), "swap")
    verdict = mapping_space_relation([ident], [swap], inj, inj)
    assert not verdict.near
    a, b, name1, name2 = verdict.witness
    assert (name1, name2) == ("id", "swap")
    # the witness really is a near pair with far images
    rel = descriptive_proximity(inj)
    assert rel.near(a, b)
    assert not rel.near(ident.image_mask(a), swap.image_mask(b))


def test_mapping_space_rejects_non_dpcont_member():
    s2 = default_space(2)
    inj = probe_table(s2, [[0], [1]])
    # both domain points share a description, the codomain separates them, so
    # the identity does not preserve descriptive nearness
    merged = probe_table(s2, [[9], [9]])
    bad = SpaceMap(s2, s2, (0, 1), "keep")
    assert not check_dpcont(bad, merged, inj).ok
    with pytest.raises(ValueError, match="keep"):
        mapping_space_relation([bad], [bad], merged, inj)


def test_descriptive_checks_run_on_twelve_elements_without_a_cap():
    # same description is an equivalence, so no table scan ever runs
    probes = probe_table(default_space(12), [[i % 3, i // 6] for i in range(12)])
    lodato, ef = check_descriptive_lodato(probes), check_descriptive_ef(probes)
    assert lodato.ok and ef.ok
    assert list(lodato.verdicts) == ["DL1", "DL2", "DL3", "DL4", "DL5"]
    assert list(ef.verdicts) == ["DL1", "DL2", "DL3", "DL4", "DEF"]


def test_far_mapping_space_on_twelve_elements_needs_no_max_size():
    s12 = default_space(12)
    pairs = probe_table(s12, [[i // 2] for i in range(12)])
    swap = SpaceMap(s12, s12, tuple(range(8)) + (10, 11, 8, 9), "swap45")
    verdict = mapping_space_relation([identity_map(s12)], [identity_map(s12), swap], pairs, pairs)
    # the witness the pair scan read with max_size=12
    assert verdict == MappingSpaceVerdict(False, (1 << 8, 1 << 8, "id", "swap45"))


# --- product probes -----------------------------------------------------------


def test_product_probe_table_matches_factor_conjunction():
    s2 = default_space(2)
    p1 = probe_table(s2, [[0], [1]])
    p2 = probe_table(s2, [[4], [4]])
    prod = product_probe_table(p1, p2)
    rel = descriptive_proximity(prod)
    rel1 = descriptive_proximity(p1)
    rel2 = descriptive_proximity(p2)

    def rectangle(mask1, mask2):
        # the pair (i, j) is element 2i + j of the product carrier
        return sum(mask2 << (2 * i) for i in bits(mask1))

    for a1 in range(4):
        for a2 in range(4):
            for b1 in range(4):
                for b2 in range(4):
                    want = rel1.near(a1, b1) and rel2.near(a2, b2)
                    got = rel.near(rectangle(a1, a2), rectangle(b1, b2))
                    assert got == want


def test_dpcont_refuses_a_map_off_the_probe_carriers():
    with pytest.raises(ValueError, match="^map endpoints do not match the probe-table carriers$"):
        check_dpcont(identity_map(default_space(2)), INJECTIVE3, INJECTIVE3)


# --- descriptive proximal groups ----------------------------------------------


def _set_partitions(n):
    """Every set partition of range(n), as the block index of each point
    (blocks numbered in order of their lowest point)."""
    if n == 0:
        yield ()
        return
    for head in _set_partitions(n - 1):
        for block in range(max(head, default=-1) + 2):
            yield head + (block,)


def _group_verdict_is_the_coset_test(g, labels):
    """Assert that the probe table with these labels has the label classes
    as its point relation, and that it makes g a descriptive proximal group
    exactly when the classes are the cosets of a normal subgroup; return
    that verdict."""
    cosets = [{subset_product(g, 1 << a, n) for a in range(g.order)} for n in normal_subgroups(g)]
    probes = probe_table(g.space, [[block] for block in labels])
    # each point's class, pair by pair
    classes = [sum(1 << j for j, other in enumerate(labels) if other == block) for block in labels]
    assert list(descriptive_proximity(probes).point_graph) == classes
    ok = check_descriptive_proximal_group(g, probes).ok
    assert ok == (set(classes) in cosets)
    return ok


def test_descriptive_proximal_groups_are_the_normal_coset_partitions():
    # every set partition of every catalog group of order <= 6 as a probe
    # table: the descriptive relation is the Cech extension of "same
    # description", and such a relation makes G a proximal group exactly
    # when its classes are the cosets of a normal subgroup
    tables = groups = 0
    for _, g in all_groups_up_to(6):
        for labels in _set_partitions(g.order):
            groups += _group_verdict_is_the_coset_test(g, labels)
            tables += 1
    # the Bell numbers of the 8 orders, and the normal subgroups of the 8 groups
    assert (tables, groups) == (496, 22)


def coset_probes(g, n_mask):
    """The probe table that describes each point a by its coset aN, named
    by its smallest member."""
    return probe_table(g.space, [[min(bits(subset_product(g, 1 << a, n_mask)))]
                                 for a in range(g.order)])


def test_dpcont_of_a_homomorphism_is_the_image_of_n1_inside_n2():
    # with coset-index probes the descriptive relations are the coset
    # relations of N1 and N2, and a homomorphism is dpcont exactly when
    # eta(N1) lies in N2, over every pair of catalog groups up to order 6
    cases = fails = 0
    catalog = [g for _, g in all_groups_up_to(6)]
    for g1 in catalog:
        for g2 in catalog:
            homs = list(_all_homomorphisms(g1, g2))
            for n1 in normal_subgroups(g1):
                probes1 = coset_probes(g1, n1)
                for n2 in normal_subgroups(g2):
                    probes2 = coset_probes(g2, n2)
                    for eta in homs:
                        inside = eta.image_mask(n1) & ~n2 == 0
                        assert check_dpcont(eta, probes1, probes2).ok == inside
                        cases += 1
                        fails += not inside
    assert (cases, fails) == (1753, 410)


def test_descriptive_proximal_groups_at_orders_seven_and_eight():
    # a seeded sample: each normal coset partition under shuffled labels,
    # and random labellings with up to n labels
    rng = random.Random(7)
    for _, g in all_groups_up_to(8):
        if g.order < 7:
            continue
        cosets = []
        for n in normal_subgroups(g):
            names = rng.sample(range(g.order), g.order)
            cosets.append([names[min(bits(subset_product(g, 1 << a, n)))] for a in range(g.order)])
        assert all(_group_verdict_is_the_coset_test(g, labels) for labels in cosets)
        verdicts = []
        for _ in range(300):
            k = rng.randint(1, g.order)
            verdicts.append(_group_verdict_is_the_coset_test(g, [rng.randrange(k) for _ in range(g.order)]))
        assert not all(verdicts)

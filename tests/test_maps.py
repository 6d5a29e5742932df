from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from proxikit import (
    SpaceMap,
    check_pcont,
    check_proximal_isomorphism,
    compose,
    default_space,
    enumerate_relations,
    identity_map,
    make_coarse_proximity,
    make_discrete_proximity,
)
from proxikit.maps import is_proximal_isomorphism
from proxikit.relations import ProximityRelation

S2 = default_space(2)
D2 = make_discrete_proximity(S2)
C2 = make_coarse_proximity(S2)


def test_map_validation():
    with pytest.raises(ValueError):
        SpaceMap(S2, S2, (0,))
    with pytest.raises(ValueError):
        SpaceMap(S2, S2, (0, 5))


def test_image_mask():
    f = SpaceMap(S2, S2, (1, 1))
    assert f.image_mask(0b11) == 0b10
    assert f.image_mask(0) == 0


def test_identity_pcont_same_relation():
    assert check_pcont(identity_map(S2), D2, D2).ok


def test_discrete_to_coarse_pcont_but_not_back():
    ident = identity_map(S2)
    assert check_pcont(ident, D2, C2).ok
    report = check_pcont(ident, C2, D2)
    assert not report.ok
    assert report.witnesses["pcont"] == (1, 2)  # ({a}, {b})


def test_constant_map_into_l3_relation_is_pcont():
    for rel in (D2, C2):
        assert check_pcont(SpaceMap(S2, S2, (0, 0)), rel, rel).ok


def test_pcont_rejects_carrier_mismatch():
    s3 = default_space(3)
    with pytest.raises(ValueError, match="carriers"):
        check_pcont(identity_map(S2), D2, make_discrete_proximity(s3))


def test_isomorphism_identity():
    report = check_proximal_isomorphism(identity_map(S2), D2, D2)
    assert report.ok
    assert report.verdicts == {"bijective": True, "pcont": True, "inverse_pcont": True}


def test_isomorphism_fails_discrete_to_coarse():
    report = check_proximal_isomorphism(identity_map(S2), D2, C2)
    assert report.verdicts["bijective"] and report.verdicts["pcont"]
    assert not report.verdicts["inverse_pcont"]
    assert report.witnesses["inverse_pcont"] == (1, 2)


def test_every_bijection_between_discrete_spaces_is_isomorphism():
    s = default_space(3)
    d = make_discrete_proximity(s)
    for images in permutations(range(3)):
        f = SpaceMap(s, s, images)
        assert check_proximal_isomorphism(f, d, d).ok


def test_non_bijective_reported_not_raised():
    f = SpaceMap(S2, S2, (0, 0))
    report = check_proximal_isomorphism(f, D2, D2)
    assert not report.verdicts["bijective"]
    assert "inverse_pcont" not in report.verdicts
    assert report.witnesses["bijective"] == (1, 2)


def test_injective_map_missing_a_point_names_it_on_the_codomain():
    s1, s3 = default_space(1), default_space(3)
    d1, d3 = make_discrete_proximity(s1), make_discrete_proximity(s3)
    report = check_proximal_isomorphism(SpaceMap(s1, S2, (0,)), d1, D2)
    assert report.verdicts == {"bijective": False, "pcont": True}
    assert report.witnesses == {"bijective": (0b10,)}
    # the lowest missed codomain point, here b of a, b, c
    report = check_proximal_isomorphism(SpaceMap(S2, s3, (0, 2)), D2, d3)
    assert report.witnesses == {"bijective": (0b010,)}


def test_is_proximal_isomorphism_on_every_map_between_cech_relations():
    # n <= 3, bijective or not: the P condition equals the report's verdict
    rels = [rel for n in (1, 2, 3) for rel in enumerate_relations(n, "cech")]
    cases = isomorphisms = 0
    for r1 in rels:
        for r2 in rels:
            for images in product(range(r2.space.size), repeat=r1.space.size):
                f = SpaceMap(r1.space, r2.space, images)
                verdict = is_proximal_isomorphism(images, r1, r2)
                assert verdict == check_proximal_isomorphism(f, r1, r2).ok, (r1, r2, images)
                cases += 1
                isomorphisms += verdict
    assert (cases, isomorphisms) == (2055, 53)


def _random_table(rng, n):
    """The discrete table on n points with the empty set near itself, so
    never Cech, and one random near pair added."""
    rows = list(make_discrete_proximity(default_space(n)).rows)
    a, b = rng.randrange(1 << n), rng.randrange(1 << n)
    rows[a] |= 1 << b
    rows[b] |= 1 << a
    rows[0] |= 1
    return ProximityRelation(default_space(n), tuple(rows))


def _pushforward(rel, images):
    """rel moved along the permutation images: a proximal isomorphism's target."""
    n = rel.space.size
    move = [sum(1 << images[x] for x in range(n) if (a >> x) & 1) for a in range(1 << n)]
    rows = [0] * (1 << n)
    for a, b in rel.near_pairs():
        rows[move[a]] |= 1 << move[b]
    return ProximityRelation(rel.space, tuple(rows))


@pytest.mark.parametrize("n", [4, 5])
def test_is_proximal_isomorphism_falls_back_on_other_tables(n):
    import random

    rng = random.Random(n)
    verdicts = []
    for _ in range(30):
        r1 = _random_table(rng, n)
        assert r1.point_graph is None
        perm = tuple(rng.sample(range(n), n))
        other = tuple(rng.randrange(n) for _ in range(n))
        for r2 in (_pushforward(r1, perm), _random_table(rng, n), make_discrete_proximity(r1.space)):
            for images in (perm, other):
                f = SpaceMap(r1.space, r2.space, images)
                verdict = is_proximal_isomorphism(images, r1, r2)
                assert verdict == check_proximal_isomorphism(f, r1, r2).ok
                verdicts.append(verdict)
    assert True in verdicts and False in verdicts


# --- composition ------------------------------------------------------------


def test_compose_with_identity():
    g = SpaceMap(S2, S2, (1, 0))
    assert compose(identity_map(S2), g).images == g.images
    assert compose(g, identity_map(S2)).images == g.images


def test_two_swaps_are_identity():
    swap = SpaceMap(S2, S2, (1, 0))
    assert compose(swap, swap).images == (0, 1)


def test_compose_rejects_mismatch():
    f = SpaceMap(S2, default_space(3), (0, 1))
    with pytest.raises(ValueError, match="compose"):
        compose(f, SpaceMap(S2, S2, (0, 1)))


def test_composition_of_pcont_is_pcont_exhaustive_n2():
    rels = list(enumerate_relations(2, "cech"))
    maps = [SpaceMap(S2, S2, images) for images in product(range(2), repeat=2)]
    for r1 in rels:
        for r2 in rels:
            for r3 in rels:
                for f in maps:
                    if not check_pcont(f, r1, r2).ok:
                        continue
                    for g in maps:
                        if check_pcont(g, r2, r3).ok:
                            assert check_pcont(compose(f, g), r1, r3).ok


@given(st.integers(min_value=0))
@settings(max_examples=200, deadline=None)
def test_composition_of_pcont_is_pcont_sampled_n3(seed):
    import random

    rng = random.Random(seed)
    s = default_space(3)
    rels = list(enumerate_relations(3, "cech"))
    r1, r2, r3 = (rng.choice(rels) for _ in range(3))
    f = SpaceMap(s, s, tuple(rng.randrange(3) for _ in range(3)))
    g = SpaceMap(s, s, tuple(rng.randrange(3) for _ in range(3)))
    if check_pcont(f, r1, r2).ok and check_pcont(g, r2, r3).ok:
        assert check_pcont(compose(f, g), r1, r3).ok

import gc
import random
import weakref
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from proxikit import (
    ProximityRelation,
    all_groups_up_to,
    all_subgroups,
    check_cech,
    check_efremovic,
    default_space,
    enumerate_relations,
    make_coarse_proximity,
    make_discrete_proximity,
    make_metric_proximity,
    normal_subgroups,
    quotient_proximity,
    relation_from_near_pairs,
    relation_from_point_pairs,
    subspace_proximity,
)
from proxikit.groups import coset_partition, cyclic_group
from proxikit.spaces import MAX_CARRIER, bits


def test_discrete_shared_element_near():
    s = default_space(2)
    d = make_discrete_proximity(s)
    assert d.near(0b01, 0b11)  # {a} vs {a,b}
    assert not d.near(0b01, 0b10)  # {a} vs {b}


def test_coarse_nonempty_near():
    s = default_space(2)
    c = make_coarse_proximity(s)
    assert c.near(0b01, 0b10)
    assert not c.near(0, 0b11)  # empty side is always far


def test_table_shape_validation():
    s = default_space(2)
    with pytest.raises(ValueError):
        ProximityRelation(s, (0, 0, 0))  # wrong row count
    with pytest.raises(ValueError):
        ProximityRelation(s, (0, 0, 0, 16))  # bit outside range
    with pytest.raises(ValueError):
        ProximityRelation(s, (0, 0, 0, 0), provenance="bogus")


# --- metric -----------------------------------------------------------------


def test_genuine_metric_equals_discrete():
    s = default_space(3)
    d = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
    assert make_metric_proximity(s, d).rows == make_discrete_proximity(s).rows


@given(
    st.lists(
        st.integers(min_value=1, max_value=2), min_size=6, max_size=6
    )
)
@settings(max_examples=50)
def test_any_genuine_metric_equals_discrete(offdiag):
    # all off-diagonal values in {1, 2} satisfy the triangle inequality
    s = default_space(4)
    d = [[0] * 4 for _ in range(4)]
    idx = 0
    for i in range(4):
        for j in range(i + 1, 4):
            d[i][j] = d[j][i] = offdiag[idx]
            idx += 1
    assert make_metric_proximity(s, d).rows == make_discrete_proximity(s).rows


def pseudometric_ab():
    # d(a,b) = 0, all other distinct pairs at distance 1
    return [[0, 0, 1], [0, 0, 1], [1, 1, 0]]


def test_pseudometric_near_yet_disjoint():
    s = default_space(3)
    rel = make_metric_proximity(s, pseudometric_ab())
    assert rel.near(0b001, 0b010)  # {a} near {b} with empty intersection


def test_pseudometric_axioms_pass():
    s = default_space(3)
    rel = make_metric_proximity(s, pseudometric_ab())
    assert check_cech(rel).ok
    assert check_efremovic(rel).ok


@pytest.mark.parametrize(
    "matrix, message",
    [
        ([[0, 1], [2, 0]], "not symmetric"),
        ([[1, 1], [1, 0]], "diagonal not zero"),
        ([[0, -1], [-1, 0]], "negative entry"),
        ([[0, 1, 5], [1, 0, 1], [5, 1, 0]], "triangle inequality"),
        ([[0, 1]], "must be 2x2"),
    ],
)
def test_metric_validation_names_violation(matrix, message):
    s = default_space(len(matrix[0]) if len(matrix) != len(matrix[0]) else len(matrix))
    with pytest.raises(ValueError, match=message):
        make_metric_proximity(s, matrix)


# --- explicit ---------------------------------------------------------------


def test_explicit_symmetric_closure_flag():
    s = default_space(2)
    rel, closed = relation_from_near_pairs(s, [(1, 2)])
    assert closed  # asymmetric input was closed
    assert rel.near(1, 2) and rel.near(2, 1)
    rel2, closed2 = relation_from_near_pairs(s, [(1, 2), (2, 1)])
    assert not closed2
    assert rel.rows == rel2.rows


def _closed_by_loops(space, pairs):
    """The symmetric closure and asymmetry flag, entry by entry."""
    m = space.n_subsets
    rows = [0] * m
    for a, b in pairs:
        rows[a] |= 1 << b
    symmetric = all(
        (rows[a] >> b) & 1 == (rows[b] >> a) & 1 for a in range(m) for b in bits(rows[a])
    )
    for a in range(m):
        for b in bits(rows[a]):
            rows[b] |= 1 << a
    return tuple(rows), not symmetric


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_near_pair_closure_matches_the_entry_loop(n):
    space = default_space(n)
    m = space.n_subsets
    rng = random.Random(n)
    flags = set()
    for _ in range(40):
        pairs = [(rng.randrange(m), rng.randrange(m)) for _ in range(rng.randrange(3 * m))]
        if rng.random() < 0.5:
            pairs += [(b, a) for a, b in pairs]
        rel, asymmetric = relation_from_near_pairs(space, pairs)
        assert (rel.rows, asymmetric) == _closed_by_loops(space, pairs)
        flags.add(asymmetric)
    assert flags == {True, False}


# --- subspace ---------------------------------------------------------------


def test_subspace_full_carrier_unchanged():
    s = default_space(3)
    d = make_discrete_proximity(s)
    sub = subspace_proximity(d, s.full_mask)
    assert sub.rows == d.rows
    assert sub.space.labels == s.labels


def test_subspace_of_discrete_is_discrete():
    s = default_space(3)
    d = make_discrete_proximity(s)
    sub = subspace_proximity(d, 0b101)  # {a, c}
    assert sub.space.labels == ("a", "c")
    assert sub.rows == make_discrete_proximity(default_space(2)).rows


def test_subspace_rejects_empty():
    s = default_space(2)
    with pytest.raises(ValueError, match="nonempty"):
        subspace_proximity(make_discrete_proximity(s), 0)


def test_subspace_preserves_efremovic_over_enumerated():
    for rel in enumerate_relations(3, "efremovic"):
        for v in range(1, 8):
            assert check_efremovic(subspace_proximity(rel, v)).ok


# --- quotient ---------------------------------------------------------------


def test_quotient_by_singletons_is_identity():
    s = default_space(3)
    d = make_discrete_proximity(s)
    q = quotient_proximity(d, [1, 2, 4])
    assert q.rows == d.rows
    assert q.space.labels == s.labels


def test_quotient_of_coarse_is_coarse():
    s = default_space(4)
    c = make_coarse_proximity(s)
    q = quotient_proximity(c, [0b0011, 0b1100])
    assert q.rows == make_coarse_proximity(default_space(2)).rows


def test_quotient_discrete_by_cosets_is_discrete():
    z4 = cyclic_group(4)
    d = make_discrete_proximity(z4.space)
    blocks = coset_partition(z4, 0b0101)  # subgroup {0, 2}
    q = quotient_proximity(d, blocks)
    assert q.rows == make_discrete_proximity(default_space(2)).rows


def test_quotient_partition_validation():
    s = default_space(3)
    d = make_discrete_proximity(s)
    with pytest.raises(ValueError, match="empty"):
        quotient_proximity(d, [0b011, 0, 0b100])
    with pytest.raises(ValueError, match="overlaps"):
        quotient_proximity(d, [0b011, 0b110])
    with pytest.raises(ValueError, match="cover"):
        quotient_proximity(d, [0b011])


def test_subspace_preserves_each_axiom_class():
    from proxikit import check_lodato
    checks = {
        "cech": check_cech,
        "lodato": check_lodato,
        "efremovic": check_efremovic,
    }
    for klass, check in checks.items():
        for rel in enumerate_relations(3, klass):
            for v in range(1, 8):
                assert check(subspace_proximity(rel, v)).ok


def test_relation_storage_at_cap_size():
    s = default_space(12)
    rel = make_discrete_proximity(s)
    assert len(rel.rows) == 4096
    assert rel.near(1, (1 << 12) - 1)
    assert not rel.near(1, 2)
    with pytest.raises(ValueError):
        default_space(13)


def test_quotient_projection_is_pcont_on_union_axiom_relations():
    # the quotient construction exists to make the block projection
    # proximally continuous; on relations with the union axiom the preimage
    # of an image is a superset whose nearness follows by monotonicity
    from proxikit import SpaceMap, check_pcont
    from proxikit.spaces import bits

    partitions3 = [
        [0b111],
        [0b011, 0b100],
        [0b101, 0b010],
        [0b110, 0b001],
        [0b001, 0b010, 0b100],
    ]
    for rel in enumerate_relations(3, "cech"):
        for blocks in partitions3:
            quot = quotient_proximity(rel, blocks)
            block_of = {}
            for idx, block in enumerate(blocks):
                for i in bits(block):
                    block_of[i] = idx
            projection = SpaceMap(
                rel.space, quot.space, tuple(block_of[i] for i in range(3)), "pi"
            )
            assert check_pcont(projection, rel, quot).ok


# --- the shared core against its definitions ------------------------------------


def test_point_pair_extension_matches_definition_on_every_graph():
    # every undirected graph on n <= 4 points, loops included
    for n in range(1, 5):
        space = default_space(n)
        pairs = [(i, j) for i in range(n) for j in range(i, n)]
        for assignment in range(1 << len(pairs)):
            points = [0] * n
            for k, (i, j) in enumerate(pairs):
                if (assignment >> k) & 1:
                    points[i] |= 1 << j
                    points[j] |= 1 << i
            rel = relation_from_point_pairs(space, points, "explicit")
            for a in range(space.n_subsets):
                reach = 0
                for i in bits(a):
                    reach |= points[i]
                # A near B iff some a in A and b in B are point-related
                assert rel.rows[a] == sum(1 << b for b in range(space.n_subsets) if b & reach)


def _random_partition(rng, n):
    labels = [rng.randrange(n) for _ in range(n)]
    blocks = []
    for label in labels:
        block = sum(1 << i for i in range(n) if labels[i] == label)
        if block not in blocks:
            blocks.append(block)
    return blocks


@pytest.mark.parametrize("seed", range(24))
def test_pullbacks_match_definition_on_non_cech_tables(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 5)
    space = default_space(n)
    m = space.n_subsets
    rel = ProximityRelation(space, tuple(rng.getrandbits(m) for _ in range(m)))
    assert rel.point_graph is None
    members = list(bits(rng.randrange(1, m)))
    blocks = _random_partition(rng, n)
    for pulled, images in (
        (subspace_proximity(rel, sum(1 << i for i in members)), [1 << i for i in members]),
        (quotient_proximity(rel, blocks), blocks),
    ):
        def pre(a):
            out = 0
            for i in bits(a):
                out |= images[i]
            return out

        for a in range(pulled.space.n_subsets):
            for b in range(pulled.space.n_subsets):
                assert pulled.near(a, b) == rel.near(pre(a), pre(b))


def _partitions(n):
    """Every set partition of range(n), as lists of block masks."""
    def grow(i, blocks):
        if i == n:
            yield list(blocks)
            return
        for k in range(len(blocks)):
            blocks[k] |= 1 << i
            yield from grow(i + 1, blocks)
            blocks[k] ^= 1 << i
        blocks.append(1 << i)
        yield from grow(i + 1, blocks)
        blocks.pop()

    yield from grow(0, [])


def _reflexive_symmetric_graph(n, edges):
    points = [1 << i for i in range(n)]
    for i, j in edges:
        points[i] |= 1 << j
        points[j] |= 1 << i
    return points


def _assert_pullbacks_match_definition(rel):
    n = rel.space.size
    cases = [
        ("subspace", subspace_proximity(rel, v), [1 << i for i in bits(v)])
        for v in range(1, 1 << n)
    ]
    cases += [
        ("quotient", quotient_proximity(rel, blocks), blocks)
        for blocks in _partitions(n)
    ]
    for provenance, pulled, images in cases:
        pre = [0] * pulled.space.n_subsets
        for a in range(1, len(pre)):
            pre[a] = pre[a & (a - 1)] | images[(a & -a).bit_length() - 1]
        for a in range(pulled.space.n_subsets):
            assert pulled.rows[a] == sum(
                1 << b for b in range(pulled.space.n_subsets) if rel.near(pre[a], pre[b])
            )
        assert pulled.provenance == provenance
        fresh = ProximityRelation(pulled.space, pulled.rows, provenance)
        assert pulled.point_graph == fresh.point_graph is not None


def test_cech_pullbacks_match_definition_on_every_graph_up_to_four_points():
    # every reflexive symmetric point graph, every subspace, every partition
    for n in range(1, 5):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for assignment in range(1 << len(pairs)):
            edges = [p for k, p in enumerate(pairs) if (assignment >> k) & 1]
            points = _reflexive_symmetric_graph(n, edges)
            _assert_pullbacks_match_definition(
                relation_from_point_pairs(default_space(n), points, "explicit")
            )


@pytest.mark.parametrize("n, seed", [(5, 0), (5, 1), (5, 2), (6, 0), (6, 1)])
def test_cech_pullbacks_match_definition_on_seeded_graphs(n, seed):
    rng = random.Random(seed)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = [p for p in pairs if rng.random() < 0.3]
    points = _reflexive_symmetric_graph(n, edges)
    rel = relation_from_point_pairs(default_space(n), points, "explicit")
    # the same table, without a recorded point graph, goes through the same path
    for parent in (rel, ProximityRelation(rel.space, rel.rows)):
        _assert_pullbacks_match_definition(parent)


def test_recorded_point_graph_matches_a_fresh_table_on_every_directed_graph():
    # only reflexive symmetric point rows may be recorded as the point graph
    for n in range(1, 4):
        space = default_space(n)
        for assignment in range(1 << (n * n)):
            points = [(assignment >> (i * n)) & space.full_mask for i in range(n)]
            related = {(i, j) for i in range(n) for j in bits(points[i])}
            cech = all((i, i) in related for i in range(n)) and all(
                (j, i) in related for i, j in related
            )
            rel = relation_from_point_pairs(space, points, "explicit")
            fresh = ProximityRelation(space, rel.rows)
            assert rel.point_graph == fresh.point_graph == (tuple(points) if cech else None)


# --- memo of pulled-back relations -----------------------------------------


def _fresh(rel: ProximityRelation) -> ProximityRelation:
    """An equal relation whose memo is empty and whose point graph is unread."""
    return ProximityRelation(rel.space, rel.rows, rel.provenance)


def _relation_fields(rel: ProximityRelation) -> tuple:
    return rel.space.labels, rel.rows, rel.provenance, rel.point_graph


def test_memoized_pullbacks_equal_a_fresh_build():
    for name, g in all_groups_up_to(8):
        rng = random.Random(g.order)
        m = g.space.n_subsets
        # the empty set near itself breaks L2, so the table is never Cech
        rows = (1, *(rng.getrandbits(m) for _ in range(m - 1)))
        seeded = ProximityRelation(g.space, rows)
        assert seeded.point_graph is None
        masks = all_subgroups(g)
        partitions = [coset_partition(g, n) for n in normal_subgroups(g)]
        # the seeded table's pullbacks scan up to all g.order points
        cap = g.order
        for rel in (make_discrete_proximity(g.space), make_coarse_proximity(g.space), seeded):
            # fill the memo with every key first, so a key that loses the
            # mask or the blocks hands back some other result below
            subspaces = {v: subspace_proximity(rel, v, max_size=cap) for v in masks}
            quotients = {
                blocks: quotient_proximity(rel, list(blocks), max_size=cap) for blocks in partitions
            }
            for v, sub in subspaces.items():
                assert subspace_proximity(rel, v) is sub
                fresh = subspace_proximity(_fresh(rel), v, max_size=cap)
                assert _relation_fields(sub) == _relation_fields(fresh), (name, v)
            for blocks, quot in quotients.items():
                assert quotient_proximity(rel, blocks) is quot
                fresh = quotient_proximity(_fresh(rel), blocks, max_size=cap)
                assert _relation_fields(quot) == _relation_fields(fresh), (name, blocks)
            # the memo is not a field: equality and hashing ignore it
            assert rel == _fresh(rel) and hash(rel) == hash(_fresh(rel))


def test_rejected_pullbacks_raise_on_every_call_and_leave_no_memo_entry():
    rel = make_discrete_proximity(default_space(3))
    subspace_proximity(rel, 0b011)
    quotient_proximity(rel, [0b011, 0b100])
    before = dict(rel._derived)
    for build, arg, message in (
        (subspace_proximity, 0b1000, "mask 8 out of range"),
        (subspace_proximity, 0, "subspace carrier must be nonempty"),
        (quotient_proximity, [0b011, 0, 0b100], "partition block 1 is empty"),
        (quotient_proximity, [0b011, 0b110], "partition block 1 overlaps"),
        (quotient_proximity, [0b011], "does not cover the carrier; missing {c}"),
        (quotient_proximity, [0b011, 0b1100], "mask 12 out of range"),
    ):
        for _ in range(2):
            with pytest.raises(ValueError, match=message):
                build(rel, arg)
        assert rel._derived == before, message


def test_memo_dies_with_its_relation():
    rel = make_discrete_proximity(default_space(4))
    sub = subspace_proximity(rel, 0b0101)
    quot = quotient_proximity(rel, [0b0011, 0b1100])
    refs = [weakref.ref(x) for x in (rel, sub, quot)]
    del rel, sub, quot
    gc.collect()
    assert [r() for r in refs] == [None, None, None]


# --- the pullback cap ----------------------------------------------------------


def _random_partition(rng: random.Random, n: int) -> list[int]:
    """A seeded set partition of range(n) as masks, blocks in seeded order."""
    order = list(range(n))
    rng.shuffle(order)
    blocks = []
    for i in order:
        if blocks and rng.random() < 0.5:
            blocks[rng.randrange(len(blocks))] |= 1 << i
        else:
            blocks.append(1 << i)
    return blocks


def test_cech_pullbacks_run_under_any_cap():
    rng = random.Random(26)
    for n in range(1, 13):
        space = default_space(n)
        sources = [make_discrete_proximity(space), make_coarse_proximity(space)]
        for _ in range(3):
            rows = [1 << i for i in range(n)]
            for i, j in combinations(range(n), 2):
                if rng.random() < 0.3:
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
            sources.append(relation_from_point_pairs(space, rows, "explicit"))
        for rel in sources:
            v = rng.randrange(1, 1 << n)
            blocks = _random_partition(rng, n)
            sub = subspace_proximity(rel, v, max_size=1)
            quot = quotient_proximity(rel, blocks, max_size=1)
            assert sub == subspace_proximity(_fresh(rel), v, max_size=MAX_CARRIER)
            assert quot == quotient_proximity(_fresh(rel), blocks, max_size=MAX_CARRIER)


def test_non_cech_pullbacks_are_capped():
    for n in (3, 9):
        base = make_discrete_proximity(default_space(n))
        # the empty set near itself breaks L2, so the table is never Cech
        rel = ProximityRelation(base.space, (1, *base.rows[1:]))
        assert rel.point_graph is None
        singletons = [1 << i for i in range(n)]
        # the identity pullbacks (whole carrier, singletons in carrier order)
        # scan like any other
        for build, arg, k in (
            (subspace_proximity, rel.space.full_mask, n),
            (quotient_proximity, singletons, n),
            (quotient_proximity, singletons[::-1], n),
            (subspace_proximity, rel.space.full_mask >> 1, n - 1),
        ):
            before = dict(rel._derived)
            for _ in range(2):
                with pytest.raises(
                    ValueError,
                    match=f"exhaustive pullback table scan on a {k}-element carrier exceeds the cap 1",
                ):
                    build(rel, arg, max_size=1)
            assert rel._derived == before
            # a raised cap runs the scan, and the memo hit needs no cap
            pulled = build(rel, arg, max_size=k)
            assert build(rel, arg, max_size=1) is pulled
        # the identity keeps the table, and so does reversing the labels:
        # discrete, empty set near itself
        assert subspace_proximity(rel, rel.space.full_mask).rows == rel.rows
        assert quotient_proximity(rel, singletons).rows == rel.rows
        assert quotient_proximity(rel, singletons[::-1]).rows == rel.rows

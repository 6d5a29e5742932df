"""Proximity relations stored as full near/far tables over the power set.

A relation on an n-element carrier is a (2^n x 2^n) boolean table: row ``a``
is an int whose bit ``b`` says whether subset ``a`` is near subset ``b``.
No axiom is enforced at construction -- arbitrary tables are representable so
that counterexamples can be stored and mined.  Axioms are checked, never
assumed.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

from .spaces import (
    SCAN_CAP,
    FiniteSpace,
    bits,
    meeting_table,
    memo,
    require_scan_size,
    transpose,
    union_over,
    union_table,
)

PROVENANCES = (
    "explicit",
    "discrete",
    "coarse",
    "metric",
    "descriptive",
    "subspace",
    "quotient",
)


@dataclass(frozen=True)
class ProximityRelation:
    """Near/far table over all ordered pairs of subsets of the carrier.

    Two things are computed once per relation and kept on it, outside the
    dataclass fields (so ``==`` and ``hash`` ignore them): ``point_graph``,
    and what is built from it, which :func:`spaces.memo` stores in
    ``_derived``: the subspace and quotient relations, keyed by carrier mask
    or block tuple, and the point relations of the isomorphism theorems'
    sides (``harnesses._side_points``).
    """

    space: FiniteSpace
    rows: tuple[int, ...]
    provenance: str = "explicit"

    def __post_init__(self) -> None:
        m = self.space.n_subsets
        if len(self.rows) != m:
            raise ValueError(f"table must have {m} rows, got {len(self.rows)}")
        limit = 1 << m
        for a, row in enumerate(self.rows):
            if not 0 <= row < limit:
                raise ValueError(f"row {a} has bits outside the {m}-subset range")
        if self.provenance not in PROVENANCES:
            raise ValueError(f"unknown provenance tag {self.provenance!r}")

    def near(self, a: int, b: int) -> bool:
        return bool((self.rows[a] >> b) & 1)

    def near_pairs(self) -> Iterator[tuple[int, int]]:
        """Ordered near pairs, first argument outermost."""
        for a, row in enumerate(self.rows):
            for b in bits(row):
                yield a, b

    def near_pair_count(self) -> int:
        return sum(row.bit_count() for row in self.rows)

    @cached_property
    def _derived(self) -> dict:
        """Relations built from this one, by key; see :func:`spaces.memo`."""
        return {}

    @cached_property
    def point_graph(self) -> tuple[int, ...] | None:
        """The point relation P of a Cech table, or None for any other table.

        ``P[i]`` is the carrier mask of the j with {i} near {j}, read off the
        singleton rows.  P is returned exactly when it is reflexive and
        symmetric and :func:`relation_from_point_pairs` rebuilds ``rows``
        from it; by the following, that is exactly when L1-L4 hold.

        * If so, the table is the existential extension of a reflexive
          symmetric P.  It is symmetric (L1), never relates the empty set,
          which has no member to witness (L2), relates intersecting sets
          through a shared point x with x P x (L3), and A has a point
          related to a point of B | C exactly when it has one related to a
          point of B or to a point of C (L4).
        * Conversely, if L1-L4 hold: L2 and the union axiom L4 give
          A near B iff A near {b} for some b in B, and with L1 the same
          holds in the first argument, so A near B iff {a} near {b} for
          some a in A, b in B.  The table is the extension of P; L3 makes P
          reflexive and L1 makes it symmetric.

        The checkers use P to decide passing verdicts on at most n^2 point
        pairs.  Costs O(n^2 + m) for m = 2^n subsets, once per relation.
        """
        n = self.space.size
        points = tuple(
            sum(1 << j for j in range(n) if (self.rows[1 << i] >> (1 << j)) & 1)
            for i in range(n)
        )
        if not _reflexive_symmetric(points):
            return None
        rebuilt = relation_from_point_pairs(self.space, points, self.provenance)
        return points if rebuilt.rows == self.rows else None


def _reflexive_symmetric(points: Sequence[int]) -> bool:
    return all(
        (points[i] >> i) & 1 and all((points[j] >> i) & 1 for j in bits(points[i]))
        for i in range(len(points))
    )


def relation_from_point_pairs(
    space: FiniteSpace, point_rows: Sequence[int], provenance: str
) -> ProximityRelation:
    """Extend a point-level relation to subsets by existential witnessing.

    ``point_rows[i]`` is the carrier mask of points related to element ``i``.
    Subsets A, B are near iff some a in A and b in B are point-related.  Every
    constructor whose nearness means "a witnessing pair of elements exists"
    (discrete, metric, descriptive) reduces to this.

    When the point rows are reflexive and symmetric they are recorded as the
    result's ``point_graph``: the extension is then Cech, and its singleton
    rows read the point relation back ({i} near {j} iff i and j are related),
    so the property would compute the same rows by a rebuild.
    """
    # A near B iff B meets reach[A]: row A is row reach[A] of the discrete relation.
    meeting = meeting_table(space.size)
    rows = tuple(meeting[c] for c in union_table(point_rows))
    rel = ProximityRelation(space, rows, provenance)
    points = tuple(point_rows)
    if _reflexive_symmetric(points):
        rel.__dict__["point_graph"] = points  # prefill the cached_property
    return rel


def make_discrete_proximity(space: FiniteSpace) -> ProximityRelation:
    """Near iff the subsets intersect (the finest Cech proximity)."""
    point_rows = [1 << i for i in range(space.size)]
    return relation_from_point_pairs(space, point_rows, "discrete")


def make_coarse_proximity(space: FiniteSpace) -> ProximityRelation:
    """Near iff both subsets are nonempty (the coarsest Cech proximity)."""
    full = space.full_mask
    return relation_from_point_pairs(space, [full] * space.size, "coarse")


def validate_pseudometric(space: FiniteSpace, d: Sequence[Sequence[float]]) -> None:
    n = space.size
    if len(d) != n or any(len(row) != n for row in d):
        raise ValueError(f"distance matrix must be {n}x{n}")
    for i in range(n):
        if d[i][i] != 0:
            raise ValueError(f"diagonal not zero: d[{i}][{i}]={d[i][i]}")
        for j in range(n):
            if d[i][j] < 0:
                raise ValueError(f"negative entry: d[{i}][{j}]={d[i][j]}")
            if d[i][j] != d[j][i]:
                raise ValueError(
                    f"not symmetric: d[{i}][{j}]={d[i][j]} != d[{j}][{i}]={d[j][i]}"
                )
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if d[i][j] > d[i][k] + d[k][j]:
                    raise ValueError(
                        f"triangle inequality violated: d[{i}][{j}] > d[{i}][{k}] + d[{k}][{j}]"
                    )


def make_metric_proximity(
    space: FiniteSpace, d: Sequence[Sequence[float]]
) -> ProximityRelation:
    """Near iff the minimum pairwise distance is zero (pseudometric gap)."""
    validate_pseudometric(space, d)
    n = space.size
    point_rows = [0] * n
    for i in range(n):
        for j in range(n):
            if d[i][j] == 0:
                point_rows[i] |= 1 << j
    return relation_from_point_pairs(space, point_rows, "metric")


def relation_from_near_pairs(
    space: FiniteSpace, pairs: Sequence[tuple[int, int]]
) -> tuple[ProximityRelation, bool]:
    """Build an ``explicit`` table from listed near pairs, closing it
    symmetrically.

    Returns the relation and a flag saying whether the input was asymmetric
    (closure added entries).
    """
    rows = [0] * space.n_subsets
    for a, b in pairs:
        space.check_mask(a)
        space.check_mask(b)
        rows[a] |= 1 << b
    closed = [row | col for row, col in zip(rows, transpose(rows))]
    return ProximityRelation(space, tuple(closed)), closed != rows


def subspace_proximity(
    rel: ProximityRelation, v: int, *, max_size: int = SCAN_CAP
) -> ProximityRelation:
    """Restriction of the relation to the subsets of a nonempty carrier subset.

    Built once per (relation, mask) and then returned from ``rel``'s memo.
    ``max_size`` caps the pullback scan of a non-Cech parent (see
    :func:`_pullback`); a memo hit runs no scan and is never refused.
    """

    def build() -> ProximityRelation:
        if v == 0:
            raise ValueError("subspace carrier must be nonempty")
        images = [1 << i for i in bits(v)]
        return _pullback(rel, rel.space.subspace(v), images, "subspace", max_size)

    return memo(rel, ("subspace", v), build)


def _pullback(
    rel: ProximityRelation,
    space: FiniteSpace,
    images: Sequence[int],
    provenance: str,
    max_size: int,
) -> ProximityRelation:
    """Relation on ``space`` whose element i stands for the parent mask
    ``images[i]``: subsets are near iff the unions of their images are.

    On a Cech table with point relation P the result is built on the points:
    with pre(A) the union of the images of the members of A, and ``reach_i``
    the union of P[x] over the members x of ``images[i]``,

        pre(A) near pre(B) iff some x in pre(A), y in pre(B) have x P y
                           iff some i in A, j in B have images[j] & reach_i,

    so the result is the existential extension of Q[i] = {j : images[j] meets
    reach_i}, :func:`pullback_points`.  That costs O(k^2 + 2^k) for
    k = len(images), against O(4^k) for the entry-by-entry scan that every
    other table takes, which ``max_size`` caps.
    """
    points = rel.point_graph
    if points is not None:
        return relation_from_point_pairs(space, pullback_points(points, images), provenance)
    require_scan_size(space.size, max_size, "pullback table")
    pre = union_table(images)
    m = space.n_subsets
    rows = []
    for a in range(m):
        row = 0
        parent_row = rel.rows[pre[a]]
        for b in range(m):
            if (parent_row >> pre[b]) & 1:
                row |= 1 << b
        rows.append(row)
    return ProximityRelation(space, tuple(rows), provenance)


def pullback_points(points: Sequence[int], blocks: Sequence[int]) -> tuple[int, ...]:
    """Q[i] = {j : blocks[j] meets the union of ``points`` over blocks[i]}:
    the point relation of the pullback of a Cech table with point relation
    ``points`` to the carrier whose element i stands for ``blocks[i]`` (see
    :func:`_pullback`).  Reflexive and symmetric when ``points`` is and no
    block is empty."""
    k = len(blocks)
    q = []
    for block in blocks:
        reach = union_over(points, block)
        q.append(sum(1 << j for j in range(k) if blocks[j] & reach))
    return tuple(q)


def validate_partition(space: FiniteSpace, blocks: Sequence[int]) -> None:
    seen = 0
    for k, block in enumerate(blocks):
        space.check_mask(block)
        if block == 0:
            raise ValueError(f"partition block {k} is empty")
        if block & seen:
            raise ValueError(f"partition block {k} overlaps an earlier block")
        seen |= block
    if seen != space.full_mask:
        missing = space.format_mask(space.full_mask ^ seen)
        raise ValueError(f"partition does not cover the carrier; missing {missing}")


def quotient_proximity(
    rel: ProximityRelation, blocks: Sequence[int], *, max_size: int = SCAN_CAP
) -> ProximityRelation:
    """Relation on the blocks: block sets are near iff their preimages are.

    Built once per (relation, block tuple) and then returned from ``rel``'s
    memo.  ``max_size`` caps the pullback scan of a non-Cech parent, as in
    :func:`subspace_proximity`.
    """
    blocks = tuple(blocks)

    def build() -> ProximityRelation:
        validate_partition(rel.space, blocks)
        return _pullback(rel, rel.space.quotient(blocks), blocks, "quotient", max_size)

    return memo(rel, ("quotient", blocks), build)


"""Finite groups as Cayley tables, subset algebra, and the proximal-group
verifier: a group with a proximity is a proximal group when subset
multiplication (tested on rectangle pairs) and subset inversion preserve
nearness.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from typing import Sequence

from .axioms import (
    SCAN_CAP,
    AxiomReport,
    check_efremovic,
    first_chain_violation,
    require_scan_size,
)
from .maps import SpaceMap, check_pcont, check_proximal_isomorphism
from .relations import (
    ProximityRelation,
    quotient_proximity,
    subspace_proximity,
)
from .spaces import FiniteSpace, bits, default_space, image, memo, product_space, union_table


@dataclass(frozen=True)
class FiniteGroup:
    """Group on a finite carrier.  :meth:`from_table` verifies every group
    law; :func:`subgroup_group` and :func:`quotient_group`, whose tables are
    groups by construction, call the constructor directly.

    The subgroup and quotient groups built from a group, and its subgroup
    and normality verdicts, are computed once per mask and kept in
    ``_derived``, outside the dataclass fields (so ``==`` and ``hash``
    ignore them); see :func:`spaces.memo`.
    """

    space: FiniteSpace
    cayley: tuple[tuple[int, ...], ...]
    identity: int
    inverse: tuple[int, ...]

    @cached_property
    def _derived(self) -> dict:
        """Structures and verdicts derived from this group, by key."""
        return {}

    @cached_property
    def _hash(self) -> int:
        return hash((self.space, self.cayley, self.identity, self.inverse))

    def __hash__(self) -> int:
        """The dataclass hash of the fields, computed once per group: the
        group is in the memo key of every proximal-group verdict."""
        return self._hash

    @property
    def order(self) -> int:
        return self.space.size

    def op(self, i: int, j: int) -> int:
        return self.cayley[i][j]

    @staticmethod
    def from_table(
        space: FiniteSpace, cayley: Sequence[Sequence[int]]
    ) -> "FiniteGroup":
        n = space.size
        if len(cayley) != n:
            raise ValueError(f"cayley table must have {n} rows, got {len(cayley)}")
        for i, row in enumerate(cayley):
            if len(row) != n:
                raise ValueError(
                    f"cayley row {i} has {len(row)} entries, expected {n}"
                )
            for j, v in enumerate(row):
                if not 0 <= v < n:
                    raise ValueError(
                        f"cayley entry at row {i}, position {j} out of range: {v}"
                    )
        table = tuple(tuple(row) for row in cayley)
        for i in range(n):
            if len(set(table[i])) != n:
                raise ValueError(f"cayley row {i} is not a permutation")
            if len({table[k][i] for k in range(n)}) != n:
                raise ValueError(f"cayley column {i} is not a permutation")
        identity = None
        for e in range(n):
            if all(table[e][x] == x == table[x][e] for x in range(n)):
                identity = e
                break
        if identity is None:
            raise ValueError("no identity element")
        inverse = [None] * n
        for x in range(n):
            for y in range(n):
                if table[x][y] == identity == table[y][x]:
                    inverse[x] = y
                    break
            if inverse[x] is None:
                raise ValueError(f"element {x} has no inverse")
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if table[table[i][j]][k] != table[i][table[j][k]]:
                        raise ValueError(
                            f"associativity fails at ({i},{j},{k})"
                        )
        return FiniteGroup(space, table, identity, tuple(inverse))

    def with_labels(self, labels: Sequence[str]) -> "FiniteGroup":
        if len(labels) != self.order:
            raise ValueError(
                f"a group of order {self.order} needs {self.order} labels, got {len(labels)}"
            )
        return FiniteGroup(
            FiniteSpace(tuple(labels)), self.cayley, self.identity, self.inverse
        )


def cyclic_group(n: int) -> FiniteGroup:
    space = default_space(n)
    cayley = [[(i + j) % n for j in range(n)] for i in range(n)]
    return FiniteGroup.from_table(space, cayley)


def direct_product_group(g1: FiniteGroup, g2: FiniteGroup) -> FiniteGroup:
    space = product_space(g1.space, g2.space)
    n2 = g2.order
    pairs = [(i, j) for i in range(g1.order) for j in range(g2.order)]
    cayley = [
        [g1.op(a1, b1) * n2 + g2.op(a2, b2) for (b1, b2) in pairs]
        for (a1, a2) in pairs
    ]
    return FiniteGroup.from_table(space, cayley)


def dihedral_group(n: int) -> FiniteGroup:
    """Symmetries of the regular n-gon, order 2n; elements r^i and r^i s."""
    if n < 3:
        raise ValueError("dihedral group needs n >= 3")
    space = default_space(2 * n)

    def mul(a: int, b: int) -> int:
        ra, sa = a % n, a // n
        rb, sb = b % n, b // n
        if sa == 0:
            return ((ra + rb) % n) + n * sb
        return ((ra - rb) % n) + n * (1 - sb)

    cayley = [[mul(a, b) for b in range(2 * n)] for a in range(2 * n)]
    return FiniteGroup.from_table(space, cayley)


def quaternion_group() -> FiniteGroup:
    """Order-8 quaternion group, elements +-1, +-i, +-j, +-k."""
    units = ["1", "i", "j", "k"]
    mul_sign = {
        ("1", "1"): ("1", 1), ("1", "i"): ("i", 1), ("1", "j"): ("j", 1), ("1", "k"): ("k", 1),
        ("i", "1"): ("i", 1), ("i", "i"): ("1", -1), ("i", "j"): ("k", 1), ("i", "k"): ("j", -1),
        ("j", "1"): ("j", 1), ("j", "i"): ("k", -1), ("j", "j"): ("1", -1), ("j", "k"): ("i", 1),
        ("k", "1"): ("k", 1), ("k", "i"): ("j", 1), ("k", "j"): ("i", -1), ("k", "k"): ("1", -1),
    }
    elems = [(u, s) for s in (1, -1) for u in units]

    def mul(a, b):
        (ua, sa), (ub, sb) = a, b
        u, s = mul_sign[(ua, ub)]
        return (u, s * sa * sb)

    space = default_space(8)
    index = {e: i for i, e in enumerate(elems)}
    cayley = [[index[mul(a, b)] for b in elems] for a in elems]
    return FiniteGroup.from_table(space, cayley)


def all_groups_up_to(max_order: int) -> tuple[tuple[str, FiniteGroup], ...]:
    """Every group of order <= max_order up to isomorphism (max_order <= 8),
    with letter-labelled carriers, in a fixed deterministic order.

    Each order's groups are built once per process (:func:`_groups_of_order`)
    and only when first asked for, so every call returns a prefix of the same
    catalog and what ``spaces.memo`` keeps on a catalog group serves every
    later caller.
    """
    if max_order > 8:
        raise ValueError("group catalog covers orders up to 8")
    catalog: list[tuple[str, FiniteGroup]] = []
    for n in range(1, max_order + 1):
        catalog.extend(_groups_of_order(n))
    return tuple(catalog)


@cache
def _groups_of_order(n: int) -> tuple[tuple[str, FiniteGroup], ...]:
    """The catalog groups of order n (1 <= n <= 8), cyclic group first."""
    relabel = lambda g: g.with_labels(default_space(g.order).labels)
    groups = [(f"Z{n}", cyclic_group(n))]
    if n == 4:
        groups.append(("V4", relabel(direct_product_group(cyclic_group(2), cyclic_group(2)))))
    if n == 6:
        groups.append(("S3", dihedral_group(3)))
    if n == 8:
        groups.append(("Z4xZ2", relabel(direct_product_group(cyclic_group(4), cyclic_group(2)))))
        groups.append(
            (
                "Z2xZ2xZ2",
                relabel(
                    direct_product_group(
                        cyclic_group(2),
                        direct_product_group(cyclic_group(2), cyclic_group(2)),
                    )
                ),
            )
        )
        groups.append(("D4", dihedral_group(4)))
        groups.append(("Q8", quaternion_group()))
    return tuple(groups)


# ---------------------------------------------------------------------------
# subset algebra


def subset_product(g: FiniteGroup, a: int, b: int) -> int:
    """{ x*y : x in A, y in B }; empty if either side is empty."""
    out = 0
    for i in bits(a):
        out |= image(g.cayley[i], b)
    return out


def subset_inverse(g: FiniteGroup, a: int) -> int:
    return image(g.inverse, a)


def subset_product_table(g: FiniteGroup) -> list[list[int]]:
    """subset_product for every pair of masks, built by dynamic programming."""
    m = g.space.n_subsets
    row_products = [union_table([1 << c for c in row]) for row in g.cayley]
    table = [[0] * m for _ in range(m)]
    for a in range(1, m):
        low = a & -a
        rest = table[a ^ low]
        rp = row_products[low.bit_length() - 1]
        ta = table[a]
        for b in range(m):
            ta[b] = rest[b] | rp[b]
    return table


def subgroup_violation(g: FiniteGroup, h: int) -> str | None:
    """None when H is a subgroup, else which closure fails."""

    def build() -> str | None:
        g.space.check_mask(h)
        if h == 0:
            return "subgroup must be nonempty"
        for i in bits(h):
            if not (h >> g.inverse[i]) & 1:
                return f"not closed under inverse at element {g.space.labels[i]}"
            for j in bits(h):
                if not (h >> g.cayley[i][j]) & 1:
                    return (
                        "not closed under product at elements"
                        f" {g.space.labels[i]}, {g.space.labels[j]}"
                    )
        return None

    return memo(g, ("subgroup_violation", h), build)


def all_subgroups(g: FiniteGroup) -> tuple[int, ...]:
    """Subgroup masks, ascending; scanned once per group."""
    return memo(g, "all_subgroups", lambda: tuple(
        h for h in range(1, g.space.n_subsets) if subgroup_violation(g, h) is None
    ))


def normality_violation(g: FiniteGroup, h: int) -> str | None:
    """None when H is normal, else the label of the first x with
    xHx^-1 != H, found as the first x with xH != Hx."""

    def build() -> str | None:
        reason = subgroup_violation(g, h)
        if reason is not None:
            return reason
        for x, column in enumerate(zip(*g.cayley)):
            if image(g.cayley[x], h) != image(column, h):
                return f"not normal: conjugation by {g.space.labels[x]} moves the subgroup"
        return None

    return memo(g, ("normality_violation", h), build)


def normal_subgroups(g: FiniteGroup) -> tuple[int, ...]:
    """Normal subgroup masks, ascending; filtered once per group."""
    return memo(g, "normal_subgroups", lambda: tuple(
        h for h in all_subgroups(g) if normality_violation(g, h) is None
    ))


def coset_partition(g: FiniteGroup, n_mask: int, within: int | None = None) -> tuple[int, ...]:
    """Left cosets xN of a subgroup N for x in a subgroup S that holds N
    (``within``, all of G by default), as masks of G ordered by their
    smallest member.  Each xN lies in S, and x is its smallest member, as
    the smaller members of S lie in cosets already taken."""
    blocks = []
    seen = 0
    for x in range(g.order) if within is None else bits(within):
        if (seen >> x) & 1:
            continue
        coset = image(g.cayley[x], n_mask)
        blocks.append(coset)
        seen |= coset
    return tuple(blocks)


# ---------------------------------------------------------------------------
# proximal-group checks


@dataclass(frozen=True)
class Check:
    """A single scanned condition: verdict plus minimal witness on failure."""

    ok: bool
    witness: tuple[int, ...] | None = None


@dataclass(frozen=True)
class ProximalGroupReport:
    """Axiom report for the relation plus continuity of product and inverse.

    The mu1 witness is a factor-mask tuple (B1, B2, C1, C2): the rectangle
    pair (B1 x B2, C1 x C2) is near in the product while the subset products
    are far.  The mu2 witness is a near pair whose inverses are far.
    """

    is_proximity: AxiomReport
    mu1_pcont: Check
    mu2_pcont: Check

    @property
    def ok(self) -> bool:
        return self.is_proximity.ok and self.mu1_pcont.ok and self.mu2_pcont.ok


def _coset_mu1(g: FiniteGroup, points: tuple[int, ...]) -> bool:
    """P[e] is a normal subgroup N and P[a] = aN for every a."""
    n_mask = points[g.identity]
    return all(
        points[a] == image(row, n_mask) for a, row in enumerate(g.cayley)
    ) and normality_violation(g, n_mask) is None


def _point_mu1_witness(
    g: FiniteGroup, points: tuple[int, ...]
) -> tuple[int, int, int, int] | None:
    """Smallest mu1 witness on the Cech table of the point relation P.

    It is ({b1}, {b2}, {x}, {y}) for the first b1, b2, x, y, in that
    order, with b1 P x and b2 P y but not b1*b2 P x*y.  Any violation
    (B1, B2, C1, C2) has rectangles near, so some b1 P x and b2 P y with
    b1, b2, x, y in B1, B2, C1, C2, and products far, so not
    b1*b2 P x*y.  Then ({b1}, {b2}, {x}, {y}) is a violation with no
    larger coordinate, so the smallest violation is made of singletons.
    """
    cay = g.cayley
    for b1 in range(g.order):
        for b2 in range(g.order):
            near = points[cay[b1][b2]]
            for x in bits(points[b1]):
                row = cay[x]
                for y in bits(points[b2]):
                    if not (near >> row[y]) & 1:
                        return (1 << b1, 1 << b2, 1 << x, 1 << y)
    return None


def _table_mu1_witness(
    g: FiniteGroup, rows: tuple[int, ...]
) -> tuple[int, int, int, int] | None:
    """Smallest mu1 witness on any table, scanning b1, b2, c1, c2 in order.

    For each near row r2 the images {c1*c2 : c2 in r2}, one bitset over
    the masks per c1, are built once; a pair (B1, B2) then costs one AND
    per c1 near B1 against the far row of B1*B2, and only a hit is
    expanded into its c2.
    """
    prod = subset_product_table(g)
    full = (1 << len(rows)) - 1
    images: dict[int, list[int]] = {}
    for b1, r1 in enumerate(rows):
        near1 = list(bits(r1))
        if not near1:
            continue
        products = prod[b1]
        for b2, r2 in enumerate(rows):
            if not r2:
                continue
            img = images.get(r2)
            if img is None:
                img = images[r2] = [image(row, r2) for row in prod]
            far = full & ~rows[products[b2]]
            for c1 in near1:
                if img[c1] & far:
                    row = prod[c1]
                    c2 = next(c2 for c2 in bits(r2) if (far >> row[c2]) & 1)
                    return (b1, b2, c1, c2)
    return None


def _mu1_check(g: FiniteGroup, rel: ProximityRelation, max_size: int = SCAN_CAP) -> Check:
    """Rectangle continuity of subset multiplication.

    Quantifies over all factor 4-tuples (B1, B2, C1, C2): nearness of the
    rectangles B1 x B2 and C1 x C2 must force subset products near.  The
    witness is the smallest violating tuple, B1 outermost.

    On a Cech table with point relation P it passes exactly when b1 P c1
    and b2 P c2 imply b1*b2 P c1*c2.  The rectangles are near iff
    B1 near C1 and B2 near C2, that is iff some b1 P c1 and b2 P c2 with
    b1, b2, c1, c2 in B1, B2, C1, C2; then b1*b2 P c1*c2 lies in
    B1*B2 x C1*C2 and the products are near.  Singletons give the converse.

    That point condition holds exactly when N = P[e] is a normal subgroup
    and P[a] = aN for every a, which :func:`_coset_mu1` tests in
    O(n*|N|) plus one memoized normality test.

    * If the point condition holds: b2 = c2 = g gives right invariance,
      b P c implies bg P cg, and b1 = c1 = g left invariance.  P is
      reflexive, so e is in N, and x, y in N give xy P ee, so N is closed
      under products, hence a subgroup of the finite group.  x P e gives
      gx P g and then gxg^-1 P e, so N is normal.  Finally a P b iff
      e P a^-1 b (left invariance both ways) iff a^-1 b is in N (symmetry),
      that is P[a] = aN.
    * Conversely, let N be normal with P[a] = aN.  Then b1 P c1 and
      b2 P c2 mean c1 = b1 n1 and c2 = b2 n2 with n1, n2 in N, and
      c1 c2 = b1 b2 (b2^-1 n1 b2) n2 lies in b1 b2 N, so b1 b2 P c1 c2.

    When the condition fails, the witness is read from P by a point loop
    (:func:`_point_mu1_witness`).  Only other tables take the table scan,
    which reads the 4^n subset product table and is capped.
    """
    points = rel.point_graph
    if points is None:
        require_scan_size(g.order, max_size, "mu1 table")
        witness = _table_mu1_witness(g, rel.rows)
    elif _coset_mu1(g, points):
        return Check(True)
    else:
        witness = _point_mu1_witness(g, points)
    return Check(witness is None, witness)


def inversion_map(g: FiniteGroup) -> SpaceMap:
    return SpaceMap(g.space, g.space, g.inverse, "inv")


def translation_map(g: FiniteGroup, x: int, side: str) -> SpaceMap:
    if side == "left":
        images = tuple(g.cayley[x][y] for y in range(g.order))
    elif side == "right":
        images = tuple(g.cayley[y][x] for y in range(g.order))
    else:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    return SpaceMap(g.space, g.space, images, f"{side[0].upper()}_{g.space.labels[x]}")


def _mu2_check(g: FiniteGroup, rel: ProximityRelation, max_size: int) -> Check:
    report = check_pcont(inversion_map(g), rel, rel, max_size=max_size)
    return Check(report.verdicts["pcont"], report.witnesses.get("pcont"))


def is_proximal_group(g: FiniteGroup, rel: ProximityRelation) -> bool:
    """Whether (G, rel) is a proximal group: rel is an Efremovic proximity
    and subset multiplication (mu1) and inversion (mu2) are proximally
    continuous.  Decided on the point relation P in O(n*|N|) plus one
    memoized normality test, and kept on ``rel`` (see :func:`spaces.memo`).

    It holds exactly when rel is Cech and P is the coset partition of a
    normal subgroup N, by four steps:

    1. L1-L4 hold exactly when P exists (``rel.point_graph``), so a table
       that is not Cech fails, under every axiom class.
    2. On a Cech table mu1 holds exactly when N = P[e] is a normal subgroup
       and P[a] = aN for every a (:func:`_mu1_check`).
    3. Then P is an equivalence, so transitive, and L5 and EF hold (see
       ``axioms.check_lodato`` and ``axioms.check_efremovic``).
    4. mu2 holds: a P b means b is in aN, so b^-1 is in
       (aN)^-1 = N a^-1 = a^-1 N, that is a^-1 P b^-1; and A is near B
       exactly when some a in A and b in B have a P b, so A^-1 is then near
       B^-1.

    So the verdict is the same under the Cech, Lodato and Efremovic axioms.
    """

    def build() -> bool:
        if g.space != rel.space:
            raise ValueError("group and relation carriers do not match")
        return rel.point_graph is not None and _coset_mu1(g, rel.point_graph)

    return memo(rel, ("proximal_group", g), build)


def _require_proximal_group(g: FiniteGroup, rel: ProximityRelation, what: str) -> None:
    """Refuse ``what`` unless it is a proximal group (:func:`is_proximal_group`)."""
    if not is_proximal_group(g, rel):
        raise ValueError(f"{what} is not a verified proximal group")


def check_proximal_group(
    g: FiniteGroup, rel: ProximityRelation, *, max_size: int = SCAN_CAP
) -> ProximalGroupReport:
    """Verify (G, rel) as a proximal group, with a witness for each failure.

    Runs the Efremovic axioms (L1-L4 and EF) on the relation, rectangle
    continuity of subset multiplication, and continuity of subset
    inversion.  ``ok`` equals :func:`is_proximal_group`, which callers that
    need only the verdict use.
    """
    if g.space != rel.space:
        raise ValueError("group and relation carriers do not match")
    axioms = check_efremovic(rel, max_size=max_size)
    mu1 = _mu1_check(g, rel, max_size)
    mu2 = _mu2_check(g, rel, max_size)
    return ProximalGroupReport(axioms, mu1, mu2)


@dataclass(frozen=True)
class TranslationReport:
    """check_proximal_isomorphism outcome for every left/right translation."""

    entries: tuple[tuple[int, AxiomReport, AxiomReport], ...]

    @property
    def ok(self) -> bool:
        return all(left.ok and right.ok for _, left, right in self.entries)


def check_translations(
    g: FiniteGroup, rel: ProximityRelation, *, max_size: int = SCAN_CAP
) -> TranslationReport:
    entries = []
    for x in range(g.order):
        left = check_proximal_isomorphism(
            translation_map(g, x, "left"), rel, rel, max_size=max_size
        )
        right = check_proximal_isomorphism(
            translation_map(g, x, "right"), rel, rel, max_size=max_size
        )
        entries.append((x, left, right))
    return TranslationReport(tuple(entries))


def invertible_subsets(g: FiniteGroup) -> tuple[int, ...]:
    """All B with B * B^-1 = B^-1 * B = {e}; exactly the singletons."""
    e = 1 << g.identity
    out = []
    for b in range(1, g.space.n_subsets):
        binv = subset_inverse(g, b)
        if subset_product(g, b, binv) == e and subset_product(g, binv, b) == e:
            out.append(b)
    return tuple(out)


def check_transitivity_property(
    rel: ProximityRelation, *, max_size: int = SCAN_CAP
) -> AxiomReport:
    """Near is transitive: A near B and B near C force A near C (one scan)."""
    require_scan_size(rel.space.size, max_size, "transitivity chain")
    return AxiomReport.from_witnesses({"transitivity": first_chain_violation(rel.rows, rel.rows)})


# ---------------------------------------------------------------------------
# homomorphisms


def homomorphism_violation(
    eta: SpaceMap, g1: FiniteGroup, g2: FiniteGroup
) -> tuple[int, int] | None:
    """First pair (i, j) with eta(i*j) != eta(i)*eta(j), or None."""
    if eta.domain != g1.space or eta.codomain != g2.space:
        raise ValueError("map endpoints do not match the group carriers")
    for i in range(g1.order):
        for j in range(g1.order):
            if eta.images[g1.cayley[i][j]] != g2.cayley[eta.images[i]][eta.images[j]]:
                return (i, j)
    return None


def check_proximal_homomorphism(
    eta: SpaceMap,
    g1: FiniteGroup,
    rel1: ProximityRelation,
    g2: FiniteGroup,
    rel2: ProximityRelation,
    *,
    isomorphism: bool = False,
    max_size: int = SCAN_CAP,
) -> AxiomReport:
    """Group homomorphism plus proximal continuity.

    With ``isomorphism=True`` additionally requires bijectivity and a
    proximally continuous inverse.
    """
    hom = homomorphism_violation(eta, g1, g2)
    witnesses = {} if hom is None else {"group_homomorphism": (1 << hom[0], 1 << hom[1])}
    if isomorphism:
        proximal = check_proximal_isomorphism(eta, rel1, rel2, max_size=max_size)
    else:
        proximal = check_pcont(eta, rel1, rel2, max_size=max_size)
    return AxiomReport(
        {"group_homomorphism": hom is None, **proximal.verdicts},
        {**witnesses, **proximal.witnesses},
    )


@dataclass(frozen=True)
class HomCriterionReport:
    """Nearness-to-identity criterion versus actual proximal continuity."""

    hypothesis: Check
    conclusion: Check

    @property
    def implication_ok(self) -> bool:
        return not self.hypothesis.ok or self.conclusion.ok


def hom_criterion_check(
    eta: SpaceMap,
    g1: FiniteGroup,
    rel1: ProximityRelation,
    g2: FiniteGroup,
    rel2: ProximityRelation,
) -> HomCriterionReport:
    """Test: if B near {e1} forces eta(B) near {e2}, then eta is pcont.

    Requires eta to be a group homomorphism between verified proximal groups
    (:func:`is_proximal_group`).  Verified structures are Cech, so the pcont
    check reads their point relations and no scan cap applies.

    The hypothesis is decided on the point relations P1 and P2 too.  On a
    Cech table B is near {e1} exactly when B meets P1[e1], and eta(B) is
    near {e2} exactly when eta(x) is in P2[e2] for some x in B.  So B
    violates the hypothesis exactly when it meets P1[e1] and eta sends none
    of its members into P2[e2].  Let x be the lowest point of P1[e1] with
    eta(x) not in P2[e2]: {x} violates, and a violating B holds such a
    point, at least x, so B >= 1 << x.  The witness of the first violating
    B is thus (1 << x, 1 << e1), and with no such x the hypothesis holds.
    """
    hom_witness = homomorphism_violation(eta, g1, g2)
    if hom_witness is not None:
        raise ValueError(f"map is not a group homomorphism at {hom_witness}")
    _require_proximal_group(g1, rel1, "domain structure")
    _require_proximal_group(g2, rel2, "codomain structure")
    near_e2 = rel2.point_graph[g2.identity]
    x = next(
        (x for x in bits(rel1.point_graph[g1.identity]) if not (near_e2 >> eta.images[x]) & 1),
        None,
    )
    hypothesis = Check(True) if x is None else Check(False, (1 << x, 1 << g1.identity))
    pcont = check_pcont(eta, rel1, rel2)
    conclusion = Check(pcont.verdicts["pcont"], pcont.witnesses.get("pcont"))
    return HomCriterionReport(hypothesis, conclusion)


# ---------------------------------------------------------------------------
# derived structures


def subgroup_group(g: FiniteGroup, h: int) -> FiniteGroup:
    """A subgroup H as a group on its own carrier: the members of H in
    carrier order, keeping their labels.  Built once per (group, mask).

    H is closed under products and inverses, so the restricted table is a
    group by construction and the group laws are not checked again: each
    product of members is a member, associativity is inherited, e lies in
    H (as x x^-1 for any x in H) and is its identity, and the inverse of a
    member is the member g's table gives.  The result equals what
    ``FiniteGroup.from_table`` builds from that table.
    """

    def build() -> FiniteGroup:
        reason = subgroup_violation(g, h)
        if reason is not None:
            raise ValueError(reason)
        members = list(bits(h))
        index = {m: k for k, m in enumerate(members)}
        return FiniteGroup(
            g.space.subspace(h),
            tuple(tuple(index[g.cayley[i][j]] for j in members) for i in members),
            index[g.identity],
            tuple(index[g.inverse[i]] for i in members),
        )

    return memo(g, ("subgroup", h), build)


def subgroup_proximal_group(
    g: FiniteGroup,
    rel: ProximityRelation,
    h: int,
    *,
    max_size: int = SCAN_CAP,
) -> ProximalGroupReport:
    """Run the proximal-group check on a subgroup with the subspace relation."""
    return check_proximal_group(
        subgroup_group(g, h), subspace_proximity(rel, h, max_size=max_size), max_size=max_size
    )


def quotient_group(g: FiniteGroup, n_mask: int) -> tuple[FiniteGroup, tuple[int, ...]]:
    """Coset group for a normal subgroup, plus the coset partition used.
    Built once per (group, mask).

    N is normal, so (aN)(bN) = abN and the product of two cosets does not
    depend on the representatives read: the table is the coset group G/N,
    a group by construction, and the group laws are not checked again.  Its
    identity is the coset of e, and the inverse of aN is a^-1 N.  The
    result equals what ``FiniteGroup.from_table`` builds from that table.
    """

    def build() -> tuple[FiniteGroup, tuple[int, ...]]:
        reason = normality_violation(g, n_mask)
        if reason is not None:
            raise ValueError(reason)
        blocks = coset_partition(g, n_mask)
        rep = [min(bits(block)) for block in blocks]
        block_of = {}
        for k, block in enumerate(blocks):
            for i in bits(block):
                block_of[i] = k
        cayley = tuple(tuple(block_of[g.cayley[a][b]] for b in rep) for a in rep)
        inverse = tuple(block_of[g.inverse[a]] for a in rep)
        return FiniteGroup(g.space.quotient(blocks), cayley, block_of[g.identity], inverse), blocks

    return memo(g, ("quotient", n_mask), build)


def quotient_proximal_group(
    g: FiniteGroup, rel: ProximityRelation, n_mask: int, *, max_size: int = SCAN_CAP
) -> tuple[FiniteGroup, ProximityRelation]:
    """Coset group with the quotient proximity over the coset partition;
    ``max_size`` caps its pullback scan (see :func:`quotient_proximity`)."""
    if g.space != rel.space:
        raise ValueError("group and relation carriers do not match")
    quot, blocks = quotient_group(g, n_mask)
    return quot, quotient_proximity(rel, blocks, max_size=max_size)


def product_proximal_group(
    g1: FiniteGroup, rel1: ProximityRelation, g2: FiniteGroup, rel2: ProximityRelation
) -> ProximalGroupReport:
    """Direct product with the rectangle product proximity.

    Both factors must already verify as proximal groups
    (:func:`is_proximal_group`), and then the product is one: the report
    has L1-L4, EF, mu1 and mu2 passing.  Product-carrier subsets enter only
    as rectangles, and two rectangles are near exactly when both factor
    pairs are near.

    * Each axiom verdict is the conjunction of the factors' verdicts, and
      both factors pass.
    * mu1: a rectangle-of-rectangle violation needs all four factor pairs
      near, so it splits by which coordinate breaks into a far product pair
      in one factor with near pairs in both: a mu1 violation of that factor.
    * mu2: near rectangles A1 x A2 and C1 x C2 have A1 near C1 and A2 near
      C2, so by mu2 in each factor their inverses A1^-1 x A2^-1 and
      C1^-1 x C2^-1 are near.
    """
    _require_proximal_group(g1, rel1, "first factor")
    _require_proximal_group(g2, rel2, "second factor")
    verdicts = dict.fromkeys(("L1", "L2", "L3", "L4", "EF"), True)
    return ProximalGroupReport(AxiomReport(verdicts), Check(True), Check(True))

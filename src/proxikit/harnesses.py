"""Harnesses that test structural implications on concrete finite instances.

Each harness evaluates the hypotheses and the conclusion of one implication
separately and reports both: a failed hypothesis means the harness abstains
(the implication holds vacuously), and a satisfied hypothesis with a failed
conclusion is a counterexample.  Harnesses never assert; callers decide what
a verdict means.

The isomorphism harnesses rebuild theorems stated for proximal groups, so
they require verified proximal groups (:func:`~proxikit.groups.is_proximal_group`)
and raise ``ValueError`` naming the side that is not one.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

from .axioms import SCAN_CAP, AxiomReport, check_lodato, closure, require_scan_size
from .descriptive import ProbeTable, descriptive_proximity, product_probe_table
from .groups import (
    Check,
    FiniteGroup,
    ProximalGroupReport,
    check_proximal_group,
    check_proximal_homomorphism,
    check_transitivity_property,
    check_translations,
    coset_partition,
    direct_product_group,
    homomorphism_violation,
    normality_violation,
    subgroup_violation,
    subset_product,
    _mu1_check,
    _mu2_check,
    _require_proximal_group,
)
from .maps import SpaceMap, check_pcont, pcont_point_witness, points_isomorphic
from .relations import ProximityRelation, pullback_points
from .spaces import FiniteSpace, bits, memo


@dataclass(frozen=True)
class ImplicationReport:
    """Hypothesis checks by name, one conclusion check, and the implication:
    the report of :func:`inversion_continuity_harness`,
    :func:`multiplication_continuity_harness` and :func:`hom_criterion_check`.

    The report holds only what decides the verdict; the invertible family
    of the group is :func:`~proxikit.groups.invertible_subsets`.
    """

    hypotheses: dict[str, Check]
    conclusion: Check

    @property
    def hypotheses_ok(self) -> bool:
        return all(c.ok for c in self.hypotheses.values())

    @property
    def abstained(self) -> bool:
        return not self.hypotheses_ok

    @property
    def implication_ok(self) -> bool:
        return self.abstained or self.conclusion.ok


def inversion_continuity_harness(
    g: FiniteGroup, rel: ProximityRelation, *, max_size: int = SCAN_CAP
) -> ImplicationReport:
    """Continuous multiplication forces continuous inversion.

    The invertibility hypothesis ("B * B^-1 = {e} for the family") holds
    only for singletons in any group (see
    :func:`~proxikit.groups.invertible_subsets`).
    """
    mu2 = _mu2_check(g, rel, max_size)
    mu1 = _mu1_check(g, rel, max_size)
    return ImplicationReport({"mu1_pcont": mu1}, mu2)


MULTIPLICATION_MODES = ("ef-transitivity", "lodato-pointwise")


def _pointwise_nearness(rel: ProximityRelation, max_size: int = SCAN_CAP) -> Check:
    """Near pairs decompose pointwise: B1 near B2 forces {x} near B2 for x in B1."""
    require_scan_size(rel.space.size, max_size, "pointwise-nearness pair")
    for a, b in rel.near_pairs():
        for x in bits(a):
            if not rel.near(1 << x, b):
                return Check(False, (a, b, 1 << x))
    return Check(True)


def multiplication_continuity_harness(
    g: FiniteGroup,
    rel: ProximityRelation,
    mode: str = "ef-transitivity",
    *,
    max_size: int = SCAN_CAP,
) -> ImplicationReport:
    """Continuous translations plus a chaining condition force a proximal group.

    ``ef-transitivity`` mode uses transitivity of nearness as the chaining
    condition; ``lodato-pointwise`` requires the relation to satisfy the
    Lodato axioms and near pairs to decompose pointwise.
    """
    if mode not in MULTIPLICATION_MODES:
        raise ValueError(f"mode must be one of {MULTIPLICATION_MODES}, got {mode!r}")
    translations = check_translations(g, rel, max_size=max_size)
    hypotheses: dict[str, Check] = {"translations_pcont": Check(translations.ok)}
    if mode == "ef-transitivity":
        trans = check_transitivity_property(rel, max_size=max_size)
        hypotheses["transitivity"] = Check(
            trans.verdicts["transitivity"], trans.witnesses.get("transitivity")
        )
    else:
        lodato = check_lodato(rel, max_size=max_size)
        hypotheses["lodato"] = Check(
            lodato.ok, next(iter(lodato.witnesses.values()), None)
        )
        hypotheses["pointwise_nearness"] = _pointwise_nearness(rel, max_size)
    mu1 = _mu1_check(g, rel, max_size)
    mu2 = _mu2_check(g, rel, max_size)
    conclusion = Check(mu1.ok and mu2.ok, mu1.witness or mu2.witness)
    return ImplicationReport(hypotheses, conclusion)


def hom_criterion_check(
    eta: SpaceMap,
    g1: FiniteGroup,
    rel1: ProximityRelation,
    g2: FiniteGroup,
    rel2: ProximityRelation,
) -> ImplicationReport:
    """Test: if B near {e1} forces eta(B) near {e2}, then eta is pcont.

    The hypothesis is reported under ``near_identity`` and the conclusion
    is the ``pcont`` check of :func:`~proxikit.maps.check_pcont`.  Requires
    eta to be a group homomorphism between verified proximal groups
    (:func:`~proxikit.groups.is_proximal_group`).  Verified structures are
    Cech, so the pcont check reads their point relations and no scan cap
    applies.

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
    return ImplicationReport({"near_identity": hypothesis}, conclusion)


# ---------------------------------------------------------------------------
# isomorphism theorems


@dataclass
class IsoTheoremReport:
    """Outcome of rebuilding one isomorphism theorem on a finite instance.

    The harness decides ``ok`` and keeps a thunk of the two sides, each a
    carrier (:func:`_carrier`) with its point relation
    (:func:`_side_points`), and of the canonical images.  ``canonical``
    and ``proximal`` are built from it on first read, with no side group.
    ``proximal`` carries the bijective/pcont/inverse_pcont verdicts and
    witnesses of ``canonical``, inverse_pcont ones on its codomain and the
    rest on its domain.  A first theorem with no surjection has no canonical map; its
    ``bijective`` witness is ``(missing_image,)`` on the codomain.  Treat
    instances as read-only.
    """

    surjective: bool
    ok: bool
    """``surjective and proximal.ok``, decided with no witness run: by
    :func:`~proxikit.maps.points_isomorphic` on the sides' point relations
    for the first and second theorems, True for the third, whose sides
    share one point relation with identity images (:func:`_third_iso`).

    A surjective report's canonical map f is a bijection
    (:attr:`group_isomorphism`).  On a bijection ``points_isomorphic`` is
    True exactly when f and f^-1 are pcont, as its docstring proves, and
    :func:`~proxikit.maps.pcont_point_witness` returns None exactly when
    its map is pcont: so exactly when both witness runs of ``proximal``
    return None.
    """
    missing_image: int | None = None
    _sides: Callable[[], tuple] | None = field(default=None, repr=False, compare=False)

    @property
    def group_isomorphism(self) -> bool:
        """Whether ``canonical`` is a group isomorphism: exactly when it
        exists, that is when ``surjective``, so ``bijective`` holds too.

        For a homomorphism eta with kernel K, eta(x) = eta(y) exactly when
        xK = yK, so by the first isomorphism theorem for groups
        xK -> eta(x) is an isomorphism G1/K -> eta(G1), onto G2 when eta
        is.  The second and third isomorphism theorems for groups make the
        other canonical maps isomorphisms (:func:`_second_iso`,
        :func:`_third_iso`)."""
        return self.surjective

    @cached_property
    def canonical(self) -> SpaceMap | None:
        if self._sides is None:
            return None
        (domain, _), (codomain, _), images = self._sides()
        return SpaceMap(domain, codomain, tuple(images), "canonical")

    @cached_property
    def proximal(self) -> AxiomReport:
        f = self.canonical
        if f is None:
            return AxiomReport({"bijective": False}, {"bijective": (self.missing_image,)})
        (_, p1), (_, p2), _ = self._sides()
        witnesses = {"bijective": None, "pcont": pcont_point_witness(f.images, p1, p2)}
        witnesses["inverse_pcont"] = pcont_point_witness(f.inverse().images, p2, p1)
        return AxiomReport.from_witnesses(witnesses)


def _containing(blocks: Sequence[int], targets: Sequence[int]) -> tuple[int, ...]:
    """The canonical map read off containment in G: each block goes to the
    target block that holds it, the only one, as the targets are disjoint."""
    return tuple(j for b in blocks for j, t in enumerate(targets) if b & ~t == 0)


def _carrier(g: FiniteGroup, in_g: tuple[int, ...], over: int | None = None) -> FiniteSpace:
    """The carrier of the side S/M whose elements, the cosets xM for x in
    S, are ``in_g`` as masks of G: each labelled by its members' labels
    joined by "|", as ``quotient_group`` labels S/M.  The third theorem's
    left side is a quotient of G/N, for N = ``over``, so its labels join
    N-coset labels: ``a|c|b|d`` on Z4 with N = {a, c}, where G/K reads
    ``a|b|c|d``.  Kept in G's memo."""

    def build() -> FiniteSpace:
        if over is None:
            return g.space.quotient(in_g)
        n_cosets = coset_partition(g, over)
        blocks = tuple(sum(1 << j for j, c in enumerate(n_cosets) if c & ~b == 0) for b in in_g)
        return g.space.quotient(n_cosets).quotient(blocks)

    return memo(g, ("carrier", in_g, over), build)


def first_iso_harness(
    eta: SpaceMap,
    g1: FiniteGroup,
    rel1: ProximityRelation,
    g2: FiniteGroup,
    rel2: ProximityRelation,
) -> IsoTheoremReport:
    """Quotient by the kernel and compare with the image structure.

    Requires a proximally continuous group homomorphism between proximal
    groups; surjectivity is a reported verdict.  The harness is built to
    exhibit failures of the induced map, not to assert success.
    """
    _require_proximal_group(g1, rel1, "domain structure")
    _require_proximal_group(g2, rel2, "codomain structure")
    hom_witness = homomorphism_violation(eta, g1, g2)
    if hom_witness is not None:
        raise ValueError(f"map is not a group homomorphism at {hom_witness}")
    if not check_pcont(eta, rel1, rel2).ok:
        raise ValueError("map is not proximally continuous")
    missing = min(set(range(g2.order)).difference(eta.images), default=None)
    if missing is not None:
        return IsoTheoremReport(False, False, 1 << missing)
    kernel = sum(1 << i for i in range(g1.order) if eta.images[i] == g2.identity)
    cosets = coset_partition(g1, kernel)
    # induced map: coset -> image of any representative
    images = [eta.images[min(bits(coset))] for coset in cosets]
    p1, p2 = _side_points(rel1, cosets), rel2.point_graph
    return IsoTheoremReport(
        True, points_isomorphic(images, p1, p2), None,
        lambda: ((_carrier(g1, cosets), p1), (g2.space, p2), images),
    )


def _side_points(rel: ProximityRelation, in_g: tuple[int, ...]) -> tuple[int, ...]:
    """The point relation of the side S/M (:func:`_carrier`) of a
    proximal group (G, rel), read off P with no relation built:
    ``pullback_points(P, in_g)`` for its elements ``in_g``, the cosets of M
    as masks of G.  Kept on ``rel`` under ``("points", in_g)``; equal blocks
    give equal points, whichever theorem reads them.

    That side's relation is the quotient by the cosets of the subspace
    relation on S.  The subspace relation's point relation is
    P_S[x] = P[x] & S, and by :func:`~proxikit.relations._pullback` the
    quotient's is Q[i] = {j : in_g[j] meets the union of P_S over in_g[i]}.
    Every in_g[j] lies in S, so it meets R & S exactly when it meets R, and
    Q is ``pullback_points(P, in_g)``.  On S = G the subspace relation is
    rel itself, with the same Q.

    The third theorem's left side (G/N)/(K/N) is a quotient of G/N, whose
    point relation is Q_N = ``pullback_points(P, C)`` for the N-cosets C.
    For its blocks L_i (masks of G/N), with U_i the union of C_c over c in
    L_i, the union of Q_N over L_i is the set of d with C_d meeting R(U_i),
    R the union of P.  So L_j meets it exactly when some C_d, d in L_j,
    meets R(U_i), that is when U_j meets R(U_i): its point relation is
    ``pullback_points(P, U)``, with U the left side's elements as masks of G.
    """
    return memo(rel, ("points", in_g), lambda: pullback_points(rel.point_graph, in_g))


def _require_mask(name: str, reason: str | None) -> None:
    """Refuse the mask ``name`` with the reason its check gave, if any."""
    if reason is not None:
        raise ValueError(f"{name}: {reason}")


def _second_iso(
    g: FiniteGroup, rel: ProximityRelation, h: int, n: int
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """The gate, then the second theorem's group half: the canonical
    images from H/(H cap N) to HN/N (see :func:`second_iso_harness`), and
    the two sides' elements as masks of G, the cosets x(H cap N) for x in
    H and xN for x in HN (``coset_partition``), which :func:`_carrier`
    labels.

    The group half does not depend on the relation: it is built once per
    (G, H, N), after the checks of H and N, and kept in G's memo under
    ``("second_iso", h, n)``.  No group is built for it, since the images
    are a group isomorphism on every input that passes the checks.  N is
    normal, so HN is a subgroup and x -> xN maps H onto HN/N (hnN = hN), a
    homomorphism with kernel H cap N.  By the second isomorphism theorem
    for groups, x(H cap N) -> xN is a well-defined isomorphism
    H/(H cap N) -> HN/N, and it sends each left element to the N-coset
    that holds it, the image :func:`_containing` reads.
    """
    _require_proximal_group(g, rel, "input")

    def build() -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        _require_mask("H", subgroup_violation(g, h))
        _require_mask("N", normality_violation(g, n))
        left = coset_partition(g, h & n, h)
        right = coset_partition(g, n, subset_product(g, h, n))
        return _containing(left, right), left, right

    return memo(g, ("second_iso", h, n), build)


def second_iso_harness(
    g: FiniteGroup, rel: ProximityRelation, h: int, n: int
) -> IsoTheoremReport:
    """Compare H/(H intersect N) with HN/N as proximal groups.

    (G, rel) must be a proximal group, H a subgroup and N a normal
    subgroup.  Both sides are quotients inside G, and the canonical map
    sends x(H cap N) to the coset xN that holds it.  On the coset relation
    of a normal subgroup M the map is a proximal isomorphism exactly when
    HN cap M lies in (H cap M)N; with the discrete or coarse proximity
    (M = {e} or G) that always holds.
    """
    images, left, right = _second_iso(g, rel, h, n)
    p1, p2 = _side_points(rel, left), _side_points(rel, right)
    return IsoTheoremReport(
        True, points_isomorphic(images, p1, p2), None,
        lambda: ((_carrier(g, left), p1), (_carrier(g, right), p2), images),
    )


def _third_iso(
    g: FiniteGroup, rel: ProximityRelation, n: int, k: int
) -> tuple[int, ...]:
    """The gate, then the third theorem's group half: the K-cosets as
    masks of G by smallest member (``coset_partition``).  These are the
    elements of both sides, and the canonical images from (G/N)/(K/N) to
    G/K are the identity.

    G/N lists the N-cosets by smallest member (``coset_partition``).  An
    element of (G/N)/(K/N) is a coset (xN)(K/N) = {xkN : k in K}, whose
    union in G is xK, so its elements as masks of G are the K-cosets.  It
    lists them by their first N-coset in G/N, the one that holds the
    smallest member of xK, so by smallest member, as G/K does.  Each goes
    to the K-coset that holds it, itself.  By the third isomorphism
    theorem for groups, xN -> xK maps G/N onto G/K with kernel K/N, so
    (xN)(K/N) -> xK is a well-defined group isomorphism.

    It is built once per (G, N, K), after the checks of N and K, and kept
    in G's memo under ``("third_iso", n, k)``.
    """
    _require_proximal_group(g, rel, "input")

    def build() -> tuple[int, ...]:
        _require_mask("N", normality_violation(g, n))
        _require_mask("K", normality_violation(g, k))
        if n & ~k:
            raise ValueError("N must be contained in K")
        return coset_partition(g, k)

    return memo(g, ("third_iso", n, k), build)


def third_iso_harness(
    g: FiniteGroup, rel: ProximityRelation, n: int, k: int
) -> IsoTheoremReport:
    """Compare (G/N)/(K/N) with G/K as proximal groups, for N inside K.

    (G, rel) must be a proximal group.  K/N, the N-cosets inside K, is the
    image of K under x -> xN, so a subgroup of G/N, and normal:
    (xN)(kN)(xN)^-1 = (xkx^-1)N with xkx^-1 in K.  So it is not checked.
    Each element of (G/N)/(K/N) is a union of N-cosets making up one
    K-coset, which the canonical map sends it to; both sides list the
    K-cosets in one order, so the canonical images are the identity
    (:func:`_third_iso`).  The two sides share their elements but not
    their labels (:func:`_carrier`).
    """
    k_cosets = _third_iso(g, rel, n, k)

    def sides() -> tuple:
        points = _side_points(rel, k_cosets)
        left, right = _carrier(g, k_cosets, n), _carrier(g, k_cosets)
        return (left, points), (right, points), range(len(k_cosets))

    return IsoTheoremReport(True, True, None, sides)


# ---------------------------------------------------------------------------
# separation


@dataclass(frozen=True)
class HausdorffReport:
    """Separation readings of a verified proximal group.

    ``t1``: every singleton is closed in the induced topology.
    ``identity_closed``: the identity's singleton is its own closure.
    ``literal_identity_only``: nothing but {e} is near {e}; reported for
    completeness, this reading conflicts with the union axiom on carriers
    with two or more elements and is expected false there.
    """

    t1: bool
    identity_closed: bool
    literal_identity_only: bool

    @property
    def readings_agree(self) -> bool:
        return self.t1 == self.identity_closed


def hausdorff_check(g: FiniteGroup, rel: ProximityRelation) -> HausdorffReport:
    """T1 versus closed-identity readings on a verified proximal group
    (:func:`is_proximal_group`)."""
    _require_proximal_group(g, rel, "input")
    t1 = all(closure(rel, 1 << x) == 1 << x for x in range(g.order))
    e = 1 << g.identity
    identity_closed = closure(rel, e) == e
    literal = all(
        b == e or not rel.near(e, b) for b in range(g.space.n_subsets)
    )
    return HausdorffReport(t1, identity_closed, literal)


# ---------------------------------------------------------------------------
# descriptive proximal groups


def check_descriptive_proximal_group(g: FiniteGroup, probes: ProbeTable) -> ProximalGroupReport:
    """Proximal-group check on the relation induced by the probe table.

    That relation is Cech, so the check is decided on its point relation
    and reaches no capped read, at any carrier size.
    """
    if g.space != probes.space:
        raise ValueError("group and probe-table carriers do not match")
    return check_proximal_group(g, descriptive_proximity(probes))


@dataclass(frozen=True)
class ProjectionDemoReport:
    """Projection from a product: homomorphism and isomorphism verdicts."""

    homomorphism: AxiomReport
    isomorphism: AxiomReport


def projection_hom_demo(
    g1: FiniteGroup,
    probes1: ProbeTable,
    g2: FiniteGroup,
    probes2: ProbeTable,
) -> ProjectionDemoReport:
    """First-coordinate projection from the product descriptive structure.

    Expected: a descriptive proximal homomorphism always, an isomorphism only
    when the second factor is trivial.
    """
    rel1 = descriptive_proximity(probes1)
    _require_proximal_group(g1, rel1, "first factor")
    _require_proximal_group(g2, descriptive_proximity(probes2), "second factor")
    product_group = direct_product_group(g1, g2)
    probes = product_probe_table(probes1, probes2)
    rel_product = descriptive_proximity(probes)
    projection = SpaceMap(
        product_group.space,
        g1.space,
        tuple(i // g2.order for i in range(product_group.order)),
        "projection",
    )
    hom = check_proximal_homomorphism(projection, product_group, rel_product, g1, rel1)
    iso = check_proximal_homomorphism(
        projection, product_group, rel_product, g1, rel1, isomorphism=True
    )
    return ProjectionDemoReport(hom, iso)

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

from dataclasses import dataclass
from typing import Sequence

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
    direct_product_group,
    homomorphism_violation,
    normality_violation,
    quotient_group,
    subgroup_group,
    subgroup_violation,
    subset_product,
    _mu1_check,
    _mu2_check,
    _require_proximal_group,
)
from .maps import SpaceMap, check_pcont, check_proximal_isomorphism, is_proximal_isomorphism
from .relations import ProximityRelation, quotient_proximity, subspace_proximity
from .spaces import bits, image, memo, union_over


@dataclass(frozen=True)
class ImplicationReport:
    """Hypothesis checks by name, one conclusion check, and the implication.

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


# ---------------------------------------------------------------------------
# isomorphism theorems


@dataclass(frozen=True)
class IsoTheoremReport:
    """Outcome of rebuilding one isomorphism theorem on a finite instance.

    ``group_isomorphism`` is the purely algebraic verdict for the canonical
    map ``canonical`` (None for a first theorem with no surjection);
    ``proximal`` carries its bijective/pcont/inverse_pcont verdicts and
    witnesses, inverse_pcont ones on its codomain and the rest on its domain.
    """

    surjective: bool
    group_isomorphism: bool
    proximal: AxiomReport
    missing_image: int | None = None
    canonical: SpaceMap | None = None

    @property
    def ok(self) -> bool:
        return self.surjective and self.group_isomorphism and self.proximal.ok


def _iso_report(
    source: tuple[FiniteGroup, ProximityRelation],
    target: tuple[FiniteGroup, ProximityRelation],
    images: Sequence[int],
) -> IsoTheoremReport:
    """Report on the theorem's canonical map between its two sides, given by
    images: a bijective group homomorphism, and a proximal isomorphism."""
    (g1, rel1), (g2, rel2) = source, target
    f = SpaceMap(g1.space, g2.space, tuple(images), "canonical")
    proximal = check_proximal_isomorphism(f, rel1, rel2)
    group_iso = proximal.verdicts["bijective"] and homomorphism_violation(f, g1, g2) is None
    return IsoTheoremReport(True, group_iso, proximal, canonical=f)


def _is_group_isomorphism(g1: FiniteGroup, g2: FiniteGroup, images: Sequence[int]) -> bool:
    """Whether the map with these images is a bijective homomorphism g1 -> g2."""
    f = SpaceMap(g1.space, g2.space, tuple(images))
    return f.is_bijective() and homomorphism_violation(f, g1, g2) is None


def _containing(blocks: Sequence[int], targets: Sequence[int]) -> tuple[int, ...]:
    """The canonical map read off containment in G: each block goes to the
    target block that holds it, the only one, as the targets are disjoint."""
    return tuple(j for b in blocks for j, t in enumerate(targets) if b & ~t == 0)


def _group_inside(
    g: FiniteGroup, s: int, m: int
) -> tuple[FiniteGroup, tuple[int, ...], tuple[int, ...]]:
    """S/M for a subgroup S of G and a subgroup M normal in S, with its
    blocks on S's carrier and its elements, the cosets xM for x in S, as
    masks of G.  Built once per (G, S, M) and kept in G's memo.
    ``subgroup_group`` keeps the labels of S, so M is found on S's carrier
    by its labels."""

    def build() -> tuple[FiniteGroup, tuple[int, ...], tuple[int, ...]]:
        sub = subgroup_group(g, s)
        quot, blocks = quotient_group(sub, sub.space.mask_of(g.space.label_set(m)))
        members = list(bits(s))
        return quot, blocks, tuple(image(members, block) for block in blocks)

    return memo(g, ("inside", s, m), build)


def _quotient_inside(
    g: FiniteGroup, rel: ProximityRelation, s: int, m: int
) -> tuple[tuple[FiniteGroup, ProximityRelation], tuple[int, ...]]:
    """S/M (:func:`_group_inside`) with its relation, the quotient of the
    subspace relation on S, and its elements as masks of G.

    The relation side is the pullbacks memoized on ``rel``; on S = G the
    subspace relation equals ``rel``, so the quotient is taken from ``rel``
    itself.  On a proximal group both are read off the point relation, so
    neither reaches a capped scan.
    """
    quot, blocks, in_g = _group_inside(g, s, m)
    base = rel if s == g.space.full_mask else subspace_proximity(rel, s)
    return (quot, quotient_proximity(base, blocks)), in_g


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
    surjective = set(eta.images) == set(range(g2.order))
    if not surjective:
        missing = next(i for i in range(g2.order) if i not in set(eta.images))
        return IsoTheoremReport(
            False, False, AxiomReport({"bijective": False}), 1 << missing
        )
    kernel = sum(1 << i for i in range(g1.order) if eta.images[i] == g2.identity)
    quot, blocks = _quotient_inside(g1, rel1, g1.space.full_mask, kernel)
    # induced map: coset block -> image of any representative
    images = [eta.images[min(bits(block))] for block in blocks]
    return _iso_report(quot, (g2, rel2), images)


_Side = tuple[FiniteGroup, ProximityRelation]


def _second_iso(
    g: FiniteGroup, rel: ProximityRelation, h: int, n: int
) -> tuple[_Side, _Side, tuple[int, ...], bool]:
    """The second theorem's sides H/(H cap N) and HN/N, the canonical images
    between them (see :func:`second_iso_harness`) and whether those are a
    group isomorphism.

    The group half (HN, the images and their verdict) does not depend on
    the relation: it is built once per (G, H, N), after the checks of H and
    N, and kept in G's memo under ``("second_iso", h, n)``.  The sides are
    read for ``rel`` on every call.
    """
    _require_proximal_group(g, rel, "input")

    def build() -> tuple[int, tuple[int, ...], bool]:
        reason = subgroup_violation(g, h)
        if reason is not None:
            raise ValueError(f"H: {reason}")
        reason = normality_violation(g, n)
        if reason is not None:
            raise ValueError(f"N: {reason}")
        hn = subset_product(g, h, n)
        left, _, left_in_g = _group_inside(g, h, h & n)
        right, _, right_in_g = _group_inside(g, hn, n)
        images = _containing(left_in_g, right_in_g)
        return hn, images, _is_group_isomorphism(left, right, images)

    hn, images, group_iso = memo(g, ("second_iso", h, n), build)
    left, _ = _quotient_inside(g, rel, h, h & n)
    right, _ = _quotient_inside(g, rel, hn, n)
    return left, right, images, group_iso


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
    left, right, images, _ = _second_iso(g, rel, h, n)
    return _iso_report(left, right, images)


def second_iso_holds(g: FiniteGroup, rel: ProximityRelation, h: int, n: int) -> bool:
    """``second_iso_harness(g, rel, h, n).ok`` with no report: the memoized
    group verdict and :func:`~proxikit.maps.is_proximal_isomorphism` on the
    two sides' point relations."""
    (_, rel1), (_, rel2), images, group_iso = _second_iso(g, rel, h, n)
    return group_iso and is_proximal_isomorphism(images, rel1, rel2)


def _third_iso(
    g: FiniteGroup, rel: ProximityRelation, n: int, k: int
) -> tuple[_Side, _Side, tuple[int, ...], bool]:
    """The third theorem's sides (G/N)/(K/N) and G/K, the canonical images
    between them (see :func:`third_iso_harness`) and whether those are a
    group isomorphism.

    The group half (K/N as a mask of G/N, the images and their verdict) is
    built once per (G, N, K), after the checks of N and K, and kept in G's
    memo under ``("third_iso", n, k)``.  The sides are read for ``rel`` on
    every call.
    """
    _require_proximal_group(g, rel, "input")
    full = g.space.full_mask

    def build() -> tuple[int, tuple[int, ...], bool]:
        reason = normality_violation(g, n)
        if reason is not None:
            raise ValueError(f"N: {reason}")
        reason = normality_violation(g, k)
        if reason is not None:
            raise ValueError(f"K: {reason}")
        if n & ~k:
            raise ValueError("N must be contained in K")
        quot_n, _, n_blocks = _group_inside(g, full, n)
        k_over_n = sum(1 << j for j, block in enumerate(n_blocks) if block & ~k == 0)
        left, _, left_blocks = _group_inside(quot_n, quot_n.space.full_mask, k_over_n)
        right, _, right_blocks = _group_inside(g, full, k)
        left_in_g = [union_over(n_blocks, b) for b in left_blocks]
        images = _containing(left_in_g, right_blocks)
        return k_over_n, images, _is_group_isomorphism(left, right, images)

    k_over_n, images, group_iso = memo(g, ("third_iso", n, k), build)
    (quot_n, rel_n), _ = _quotient_inside(g, rel, full, n)
    left, _ = _quotient_inside(quot_n, rel_n, quot_n.space.full_mask, k_over_n)
    right, _ = _quotient_inside(g, rel, full, k)
    return left, right, images, group_iso


def third_iso_harness(
    g: FiniteGroup, rel: ProximityRelation, n: int, k: int
) -> IsoTheoremReport:
    """Compare (G/N)/(K/N) with G/K as proximal groups, for N inside K.

    (G, rel) must be a proximal group.  K/N, the N-cosets inside K, is the
    image of K under x -> xN, so a subgroup of G/N, and normal:
    (xN)(kN)(xN)^-1 = (xkx^-1)N with xkx^-1 in K.  So it is not checked
    here; ``quotient_group`` checks it anyway.  Each element of
    (G/N)/(K/N) is a union of N-cosets making up one K-coset, which the
    canonical map sends it to.
    """
    left, right, images, _ = _third_iso(g, rel, n, k)
    return _iso_report(left, right, images)


def third_iso_holds(g: FiniteGroup, rel: ProximityRelation, n: int, k: int) -> bool:
    """``third_iso_harness(g, rel, n, k).ok`` with no report, decided as in
    :func:`second_iso_holds`."""
    (_, rel1), (_, rel2), images, group_iso = _third_iso(g, rel, n, k)
    return group_iso and is_proximal_isomorphism(images, rel1, rel2)


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

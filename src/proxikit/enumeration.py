"""Exhaustive relation generators, an independent naive oracle, census
mining, and the theorem fuzzer.

The naive oracle re-implements every axiom directly from its quantifier
reading on explicit element sets, with no pruning and no code shared with
the optimized checkers; it certifies both the checkers and every witness
they emit.

Enumeration exploits a structural fact of finite carriers: symmetry plus the
union axiom (an iff) force every L1-L4 relation to be determined by a
reflexive symmetric relation on points, near meaning "some member pair is
point-related".  The generator therefore branches on the n*(n-1)/2 point
pairs and extends.  Two independent cross-check paths are kept: branching
over free subset pairs with forced entries (tiny carriers) and raw brute
force over all tables (n <= 2).
"""
from __future__ import annotations

import json
import time
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterator, Sequence

from .axioms import check_efremovic, check_lodato
from .groups import (
    FiniteGroup,
    all_groups_up_to,
    all_subgroups,
    check_proximal_group,
    check_translations,
    homomorphism_violation,
    normal_subgroups,
    product_proximal_group,
    subgroup_proximal_group,
)
from .harnesses import (
    first_iso_harness,
    hausdorff_check,
    inversion_continuity_harness,
    multiplication_continuity_harness,
    second_iso_harness,
    third_iso_harness,
)
from .groups import hom_criterion_check
from .maps import SpaceMap, check_pcont
from .relations import (
    ProximityRelation,
    make_coarse_proximity,
    make_discrete_proximity,
    relation_from_point_pairs,
)
from .spaces import FiniteSpace, default_space

ENUMERATION_CAP = 4
BRANCHING_CAP = 3
BRUTE_FORCE_CAP = 2
CENSUS_CAP = 3

RELATION_CLASSES = ("cech", "lodato", "efremovic")

ORACLE_AXIOMS = ("L1", "L2", "L3", "L4", "L5", "EF", "K1", "K2", "K3", "K4", "transitivity")


# ---------------------------------------------------------------------------
# naive oracle


def _as_sets(n: int) -> list[frozenset[int]]:
    return [frozenset(i for i in range(n) if (mask >> i) & 1) for mask in range(1 << n)]


def _mask_of(s: frozenset[int]) -> int:
    out = 0
    for i in s:
        out |= 1 << i
    return out


def naive_oracle(rel: ProximityRelation, axiom: str) -> bool:
    """Ground-truth verdict for one axiom, straight from its quantifier.

    Works on explicit element sets with no shortcuts; used only to certify
    the optimized checkers and their witnesses.
    """
    n = rel.space.size
    subsets = _as_sets(n)
    carrier = subsets[-1]

    def near(s: frozenset, t: frozenset) -> bool:
        return rel.near(_mask_of(s), _mask_of(t))

    def cl(b: frozenset) -> frozenset:
        return frozenset(y for y in range(n) if near(frozenset([y]), b))

    if axiom == "L1":
        return all(near(t, s) for s in subsets for t in subsets if near(s, t))
    if axiom == "L2":
        return all(
            s and t for s in subsets for t in subsets if near(s, t)
        )
    if axiom == "L3":
        return all(
            near(s, t) for s in subsets for t in subsets if s & t
        )
    if axiom == "L4":
        return all(
            near(s, t | u) == (near(s, t) or near(s, u))
            for s in subsets
            for t in subsets
            for u in subsets
        )
    if axiom == "L5":
        for s in subsets:
            for t in subsets:
                if not near(s, t):
                    continue
                for u in subsets:
                    if all(near(frozenset([x]), u) for x in t) and not near(s, u):
                        return False
        return True
    if axiom == "EF":
        for s in subsets:
            for t in subsets:
                if near(s, t):
                    continue
                if not any(
                    not near(s, k) and not near(carrier - k, t) for k in subsets
                ):
                    return False
        return True
    if axiom == "transitivity":
        return all(
            near(s, u)
            for s in subsets
            for t in subsets
            for u in subsets
            if near(s, t) and near(t, u)
        )
    if axiom == "K1":
        return cl(frozenset()) == frozenset()
    if axiom == "K2":
        return all(b <= cl(b) for b in subsets)
    if axiom == "K3":
        return all(cl(s | t) == cl(s) | cl(t) for s in subsets for t in subsets)
    if axiom == "K4":
        return all(cl(cl(b)) == cl(b) for b in subsets)
    raise ValueError(f"unknown axiom id {axiom!r}")


def witness_violates(rel: ProximityRelation, axiom: str, witness: tuple[int, ...]) -> bool:
    """Re-evaluate a witness tuple against the raw axiom definition.

    True iff the tuple is a genuine violation.  Descriptive axiom ids map to
    their relation-level readings (DL3 excepted: it needs the probe table and
    is validated where the probes are available).
    """
    n = rel.space.size
    subsets = _as_sets(n)
    carrier = subsets[-1]
    sets = tuple(subsets[w] for w in witness)

    def near(s: frozenset, t: frozenset) -> bool:
        return rel.near(_mask_of(s), _mask_of(t))

    def cl(b: frozenset) -> frozenset:
        return frozenset(y for y in range(n) if near(frozenset([y]), b))

    axiom = {"DL1": "L1", "DL2": "L2", "DL4": "L4", "DL5": "L5", "DEF": "EF"}.get(
        axiom, axiom
    )
    if axiom == "L1":
        s, t = sets
        return near(s, t) and not near(t, s)
    if axiom == "L2":
        s, t = sets
        return near(s, t) and (not s or not t)
    if axiom == "L3":
        s, t = sets
        return bool(s & t) and not near(s, t)
    if axiom == "L4":
        s, t, u = sets
        return near(s, t | u) != (near(s, t) or near(s, u))
    if axiom == "L5":
        s, t, u = sets
        return (
            near(s, t)
            and all(near(frozenset([x]), u) for x in t)
            and not near(s, u)
        )
    if axiom == "EF":
        s, t = sets
        return not near(s, t) and not any(
            not near(s, k) and not near(carrier - k, t) for k in subsets
        )
    if axiom == "transitivity":
        s, t, u = sets
        return near(s, t) and near(t, u) and not near(s, u)
    if axiom == "K1":
        return cl(frozenset()) != frozenset()
    if axiom == "K2":
        (b,) = sets
        return not b <= cl(b)
    if axiom == "K3":
        s, t = sets
        return cl(s | t) != cl(s) | cl(t)
    if axiom == "K4":
        (b,) = sets
        return cl(cl(b)) != cl(b)
    raise ValueError(f"unknown axiom id {axiom!r}")


# ---------------------------------------------------------------------------
# generators


def _class_check(axiom_class: str) -> Callable[[ProximityRelation], bool]:
    if axiom_class == "cech":
        from .axioms import check_cech

        return lambda rel: check_cech(rel).ok
    if axiom_class == "lodato":
        return lambda rel: check_lodato(rel).ok
    if axiom_class == "efremovic":
        return lambda rel: check_efremovic(rel).ok
    raise ValueError(f"relation class must be one of {RELATION_CLASSES}, got {axiom_class!r}")


def enumerate_relations(n: int, axiom_class: str = "cech") -> Iterator[ProximityRelation]:
    """Every relation of the class on n elements, exactly once, in a fixed order.

    Candidates are the 2^(n*(n-1)/2) reflexive symmetric point relations,
    extended to subsets existentially; the class checker filters them.
    """
    check = _class_check(axiom_class)
    if n > ENUMERATION_CAP:
        raise ValueError(
            f"enumeration capped at n <= {ENUMERATION_CAP}: a carrier of size {n}"
            f" means {2 ** (n * (n - 1) // 2)} candidate point relations, each with a"
            f" {(1 << n) * (1 << n)}-entry table and an 8^{n} axiom scan"
        )
    space = default_space(n)
    pairs = list(combinations(range(n), 2))
    for assignment in range(1 << len(pairs)):
        rows = [1 << i for i in range(n)]
        for bit_index, (i, j) in enumerate(pairs):
            if (assignment >> bit_index) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
        rel = relation_from_point_pairs(space, rows, "explicit")
        if check(rel):
            yield rel


def branching_cech_relations(n: int) -> Iterator[ProximityRelation]:
    """Cross-check generator: force empty/intersecting entries, branch on the
    free disjoint subset pairs (upper triangle only), filter by the naive
    oracle.  Exponential in the number of free pairs; tiny carriers only.
    """
    if n > BRANCHING_CAP:
        free = sum(
            1
            for a in range(1, 1 << n)
            for b in range(a + 1, 1 << n)
            if not a & b
        )
        raise ValueError(
            f"branching generator capped at n <= {BRANCHING_CAP}: size {n} has"
            f" {free} free subset pairs, {2 ** free} candidates"
        )
    space = default_space(n)
    m = 1 << n
    base_rows = [0] * m
    for a in range(m):
        for b in range(m):
            if a & b:
                base_rows[a] |= 1 << b
    free_pairs = [
        (a, b) for a in range(1, m) for b in range(a + 1, m) if not a & b
    ]
    for assignment in range(1 << len(free_pairs)):
        rows = list(base_rows)
        for idx, (a, b) in enumerate(free_pairs):
            if (assignment >> idx) & 1:
                rows[a] |= 1 << b
                rows[b] |= 1 << a
        rel = ProximityRelation(space, tuple(rows), "explicit")
        if all(naive_oracle(rel, ax) for ax in ("L1", "L2", "L3", "L4")):
            yield rel


def brute_force_tables(n: int) -> Iterator[ProximityRelation]:
    """All (2^n x 2^n) tables whatsoever; n <= 2 keeps this at 65536 tables."""
    if n > BRUTE_FORCE_CAP:
        raise ValueError(
            f"brute force capped at n <= {BRUTE_FORCE_CAP}: size {n} means"
            f" 2^{(1 << n) * (1 << n)} tables"
        )
    space = default_space(n)
    m = 1 << n
    row_mask = (1 << m) - 1
    for code in range(1 << (m * m)):
        rows = tuple((code >> (a * m)) & row_mask for a in range(m))
        yield ProximityRelation(space, rows, "explicit")


# ---------------------------------------------------------------------------
# census


def relation_payload(rel: ProximityRelation) -> dict:
    """JSON-able full serialization of a relation table."""
    return {
        "labels": list(rel.space.labels),
        "rows": list(rel.rows),
        "provenance": rel.provenance,
        "near_pair_count": rel.near_pair_count(),
    }


def relation_from_payload(payload: dict) -> ProximityRelation:
    return ProximityRelation(
        FiniteSpace(tuple(payload["labels"])),
        tuple(payload["rows"]),
        payload.get("provenance", "explicit"),
    )


@dataclass(frozen=True)
class RelationCensus:
    """Counts per axiom class plus minimal separating exemplars.

    Exemplars are minimal by near-pair count, ties broken by lexicographic
    row order; None when the classes coincide at this carrier size.
    """

    n: int
    counts: dict[str, int]
    cech_not_lodato: ProximityRelation | None
    cech_not_ef: ProximityRelation | None

    def to_payload(self) -> dict:
        return {
            "n": self.n,
            "counts": dict(sorted(self.counts.items())),
            "exemplars": {
                "cech_not_lodato": (
                    relation_payload(self.cech_not_lodato)
                    if self.cech_not_lodato
                    else None
                ),
                "cech_not_ef": (
                    relation_payload(self.cech_not_ef) if self.cech_not_ef else None
                ),
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_payload(), sort_keys=True, indent=2) + "\n"


def mine_separating_examples(n: int) -> RelationCensus:
    """Census of the axiom classes with minimal separating exemplars."""
    if n > CENSUS_CAP:
        raise ValueError(f"census capped at n <= {CENSUS_CAP}")
    counts = {"cech": 0, "lodato": 0, "efremovic": 0, "lodato_and_ef": 0}
    best_not_lodato: tuple[tuple[int, tuple[int, ...]], ProximityRelation] | None = None
    best_not_ef: tuple[tuple[int, tuple[int, ...]], ProximityRelation] | None = None
    for rel in enumerate_relations(n, "cech"):
        counts["cech"] += 1
        lodato_ok = check_lodato(rel).ok
        ef_ok = check_efremovic(rel).ok
        if lodato_ok:
            counts["lodato"] += 1
        if ef_ok:
            counts["efremovic"] += 1
        if lodato_ok and ef_ok:
            counts["lodato_and_ef"] += 1
        key = (rel.near_pair_count(), rel.rows)
        if not lodato_ok and (best_not_lodato is None or key < best_not_lodato[0]):
            best_not_lodato = (key, rel)
        if not ef_ok and (best_not_ef is None or key < best_not_ef[0]):
            best_not_ef = (key, rel)
    return RelationCensus(
        n,
        counts,
        best_not_lodato[1] if best_not_lodato else None,
        best_not_ef[1] if best_not_ef else None,
    )


# ---------------------------------------------------------------------------
# theorem fuzzer


@dataclass(frozen=True)
class FuzzScope:
    """Bounds of a sweep: maximum group/carrier order and relation sources.

    Relation sources are constructor names ("discrete", "coarse") or axiom
    class names ("cech", "lodato", "efremovic") meaning the enumerated stream
    of that class.
    """

    max_order: int
    relation_classes: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.max_order < 1:
            raise ValueError(f"max_order must be at least 1, got {self.max_order}")
        if not self.relation_classes or not all(self.relation_classes):
            raise ValueError(
                "relation_classes must name at least one relation source,"
                f" got {self.relation_classes!r}"
            )


@dataclass(frozen=True)
class FuzzOutcome:
    theorem: str
    instances: int
    counterexamples: tuple[dict, ...]
    elapsed: float


def _relations_for(space: FiniteSpace, classes: Sequence[str]) -> Iterator[tuple[str, str, ProximityRelation]]:
    """(source name, axiom class for verification, relation) triples."""
    for cls in classes:
        if cls == "discrete":
            yield "discrete", "efremovic", make_discrete_proximity(space)
        elif cls == "coarse":
            yield "coarse", "efremovic", make_coarse_proximity(space)
        elif cls in RELATION_CLASSES:
            for idx, rel in enumerate(enumerate_relations(space.size, cls)):
                relabeled = ProximityRelation(space, rel.rows, "explicit")
                yield f"{cls}[{idx}]", cls, relabeled
        else:
            raise ValueError(f"unknown relation class {cls!r}")


def _group_payload(name: str, g: FiniteGroup) -> dict:
    return {
        "name": name,
        "labels": list(g.space.labels),
        "cayley": [list(row) for row in g.cayley],
    }


def _group_from_payload(payload: dict) -> FiniteGroup:
    return FiniteGroup.from_table(
        FiniteSpace(tuple(payload["labels"])),
        payload["cayley"],
    )


def _verified_structures(scope: FuzzScope) -> Iterator[tuple[str, FiniteGroup, str, str, ProximityRelation]]:
    """Catalog structures in scope that pass the proximal-group check."""
    for gname, g in all_groups_up_to(scope.max_order):
        for rname, axiom_class, rel in _relations_for(g.space, scope.relation_classes):
            report = check_proximal_group(
                g, rel, axiom_class=axiom_class, max_size=max(6, g.order)
            )
            if report.ok:
                yield gname, g, rname, axiom_class, rel


def _all_homomorphisms(g1: FiniteGroup, g2: FiniteGroup) -> Iterator[SpaceMap]:
    """Every group homomorphism g1 -> g2 by exhaustive image search."""
    n1, n2 = g1.order, g2.order
    images = [0] * n1
    # backtracking over images in element order
    def extend(i: int) -> Iterator[SpaceMap]:
        if i == n1:
            f = SpaceMap(g1.space, g2.space, tuple(images), "hom")
            if homomorphism_violation(f, g1, g2) is None:
                yield f
            return
        for v in range(n2):
            images[i] = v
            yield from extend(i + 1)

    yield from extend(0)


def _run_translations(scope: FuzzScope) -> tuple[int, list[dict]]:
    instances = 0
    bad = []
    for gname, g, rname, _, rel in _verified_structures(scope):
        instances += 1
        if not check_translations(g, rel, max_size=max(6, g.order)).ok:
            bad.append(
                {"group": _group_payload(gname, g), "relation": relation_payload(rel), "relation_class": rname}
            )
    return instances, bad


def _run_subgroups(scope: FuzzScope) -> tuple[int, list[dict]]:
    instances = 0
    bad = []
    for gname, g, rname, axiom_class, rel in _verified_structures(scope):
        for h in all_subgroups(g):
            instances += 1
            report = subgroup_proximal_group(
                g, rel, h, axiom_class=axiom_class, max_size=max(6, g.order)
            )
            if not report.ok:
                bad.append(
                    {
                        "group": _group_payload(gname, g),
                        "relation": relation_payload(rel),
                        "relation_class": rname,
                        "subgroup_mask": h,
                    }
                )
    return instances, bad


def _run_products(scope: FuzzScope) -> tuple[int, list[dict]]:
    instances = 0
    bad = []
    structures = list(_verified_structures(scope))
    for gname1, g1, rname1, cls1, rel1 in structures:
        for gname2, g2, rname2, cls2, rel2 in structures:
            if g1.order * g2.order > scope.max_order:
                continue
            if cls1 != cls2:
                continue
            instances += 1
            report = product_proximal_group(
                g1, rel1, g2, rel2, axiom_class=cls1, max_size=max(6, g1.order, g2.order)
            )
            if not report.ok:
                bad.append(
                    {
                        "group": _group_payload(gname1, g1),
                        "relation": relation_payload(rel1),
                        "group2": _group_payload(gname2, g2),
                        "relation2": relation_payload(rel2),
                    }
                )
    return instances, bad


def _normal_chain_instances(scope: FuzzScope) -> Iterator[tuple[str, FiniteGroup, str, ProximityRelation, int, int]]:
    for gname, g in all_groups_up_to(scope.max_order):
        normals = normal_subgroups(g)
        for rname, _, rel in _relations_for(g.space, scope.relation_classes):
            for n_mask in normals:
                for k_mask in normals:
                    if n_mask & ~k_mask:
                        continue
                    yield gname, g, rname, rel, n_mask, k_mask


def _run_third_iso(scope: FuzzScope) -> tuple[int, list[dict]]:
    instances = 0
    bad = []
    for gname, g, rname, rel, n_mask, k_mask in _normal_chain_instances(scope):
        instances += 1
        report = third_iso_harness(g, rel, n_mask, k_mask, max_size=max(6, g.order))
        if not report.ok:
            bad.append(
                {
                    "group": _group_payload(gname, g),
                    "relation": relation_payload(rel),
                    "relation_class": rname,
                    "normal_mask": n_mask,
                    "containing_mask": k_mask,
                }
            )
    return instances, bad


def _run_second_iso(scope: FuzzScope) -> tuple[int, list[dict]]:
    instances = 0
    bad = []
    for gname, g in all_groups_up_to(scope.max_order):
        subgroups = all_subgroups(g)
        normals = normal_subgroups(g)
        for rname, _, rel in _relations_for(g.space, scope.relation_classes):
            for h in subgroups:
                for n_mask in normals:
                    instances += 1
                    report = second_iso_harness(g, rel, h, n_mask, max_size=max(6, g.order))
                    if not report.ok:
                        bad.append(
                            {
                                "group": _group_payload(gname, g),
                                "relation": relation_payload(rel),
                                "relation_class": rname,
                                "subgroup_mask": h,
                                "normal_mask": n_mask,
                            }
                        )
    return instances, bad


def _run_first_iso(scope: FuzzScope) -> tuple[int, list[dict]]:
    instances = 0
    bad = []
    groups = all_groups_up_to(scope.max_order)
    for gname1, g1 in groups:
        for gname2, g2 in groups:
            if g1.order < g2.order:
                continue
            homs = [
                f
                for f in _all_homomorphisms(g1, g2)
                if set(f.images) == set(range(g2.order))
            ]
            if not homs:
                continue
            for rname1, _, rel1 in _relations_for(g1.space, scope.relation_classes):
                for rname2, _, rel2 in _relations_for(g2.space, scope.relation_classes):
                    for eta in homs:
                        if not check_pcont(eta, rel1, rel2, max_size=max(6, g1.order)).ok:
                            continue
                        instances += 1
                        report = first_iso_harness(
                            eta, g1, rel1, g2, rel2, max_size=max(6, g1.order)
                        )
                        if not report.ok:
                            bad.append(
                                {
                                    "group": _group_payload(gname1, g1),
                                    "relation": relation_payload(rel1),
                                    "group2": _group_payload(gname2, g2),
                                    "relation2": relation_payload(rel2),
                                    "map_images": list(eta.images),
                                }
                            )
    return instances, bad


def _run_hom_criterion(scope: FuzzScope) -> tuple[int, list[dict]]:
    instances = 0
    bad = []
    structures = list(_verified_structures(scope))
    for gname1, g1, rname1, cls1, rel1 in structures:
        for gname2, g2, rname2, cls2, rel2 in structures:
            for eta in _all_homomorphisms(g1, g2):
                instances += 1
                report = hom_criterion_check(
                    eta, g1, rel1, g2, rel2, axiom_class=cls2, max_size=max(6, g1.order, g2.order)
                )
                if not report.implication_ok:
                    bad.append(
                        {
                            "group": _group_payload(gname1, g1),
                            "relation": relation_payload(rel1),
                            "group2": _group_payload(gname2, g2),
                            "relation2": relation_payload(rel2),
                            "map_images": list(eta.images),
                        }
                    )
    return instances, bad


def _run_inversion_lemma(scope: FuzzScope) -> tuple[int, list[dict]]:
    instances = 0
    bad = []
    for gname, g in all_groups_up_to(scope.max_order):
        for rname, _, rel in _relations_for(g.space, scope.relation_classes):
            instances += 1
            report = inversion_continuity_harness(g, rel, max_size=max(6, g.order))
            if not report.implication_ok:
                bad.append(
                    {
                        "group": _group_payload(gname, g),
                        "relation": relation_payload(rel),
                        "relation_class": rname,
                    }
                )
    return instances, bad


def _run_multiplication(mode: str) -> Callable[[FuzzScope], tuple[int, list[dict]]]:
    def run(scope: FuzzScope) -> tuple[int, list[dict]]:
        instances = 0
        bad = []
        for gname, g in all_groups_up_to(scope.max_order):
            for rname, _, rel in _relations_for(g.space, scope.relation_classes):
                instances += 1
                report = multiplication_continuity_harness(
                    g, rel, mode, max_size=max(6, g.order)
                )
                if not report.implication_ok:
                    bad.append(
                        {
                            "group": _group_payload(gname, g),
                            "relation": relation_payload(rel),
                            "relation_class": rname,
                            "mode": mode,
                        }
                    )
        return instances, bad

    return run


def _run_t1_agreement(scope: FuzzScope) -> tuple[int, list[dict]]:
    instances = 0
    bad = []
    for gname, g, rname, cls, rel in _verified_structures(scope):
        instances += 1
        report = hausdorff_check(g, rel, axiom_class=cls, max_size=max(6, g.order))
        if not report.readings_agree:
            bad.append(
                {
                    "group": _group_payload(gname, g),
                    "relation": relation_payload(rel),
                    "relation_class": rname,
                }
            )
    return instances, bad


def _run_cech_is_lodato(scope: FuzzScope) -> tuple[int, list[dict]]:
    instances = 0
    bad = []
    for n in range(1, scope.max_order + 1):
        for rel in enumerate_relations(n, "cech"):
            instances += 1
            if not check_lodato(rel).ok:
                bad.append({"relation": relation_payload(rel)})
    return instances, bad


THEOREMS: dict[str, tuple[FuzzScope, Callable[[FuzzScope], tuple[int, list[dict]]]]] = {
    "translations-are-proximal-isomorphisms": (
        FuzzScope(4, ("cech",)),
        _run_translations,
    ),
    "subgroups-inherit-proximal-group": (FuzzScope(4, ("cech",)), _run_subgroups),
    "products-inherit-proximal-group": (
        FuzzScope(4, ("discrete", "coarse")),
        _run_products,
    ),
    "first-isomorphism-theorem": (
        FuzzScope(3, ("discrete", "coarse")),
        _run_first_iso,
    ),
    "second-isomorphism-theorem": (
        FuzzScope(8, ("discrete", "coarse")),
        _run_second_iso,
    ),
    "third-isomorphism-theorem": (
        FuzzScope(8, ("discrete", "coarse")),
        _run_third_iso,
    ),
    "hom-criterion-implies-pcont": (
        FuzzScope(4, ("discrete", "coarse")),
        _run_hom_criterion,
    ),
    "multiplication-continuity-gives-inversion": (
        FuzzScope(3, ("cech",)),
        _run_inversion_lemma,
    ),
    "translations-and-transitivity-give-proximal-group": (
        FuzzScope(3, ("cech",)),
        _run_multiplication("ef-transitivity"),
    ),
    "translations-and-pointwise-lodato-give-proximal-group": (
        FuzzScope(3, ("cech",)),
        _run_multiplication("lodato-pointwise"),
    ),
    "t1-equals-identity-closure": (FuzzScope(4, ("cech",)), _run_t1_agreement),
    "every-cech-is-lodato": (FuzzScope(3, ("cech",)), _run_cech_is_lodato),
}


def fuzz_theorem(theorem: str, scope: FuzzScope | None = None) -> FuzzOutcome:
    """Sweep every instance in scope through the named harness.

    Expected-true statements should come back with zero counterexamples;
    statements shipped as failure demonstrations return the full serialized
    counterexample instances.
    """
    if theorem not in THEOREMS:
        known = ", ".join(sorted(THEOREMS))
        raise ValueError(f"unknown theorem id {theorem!r}; known ids: {known}")
    default_scope, runner = THEOREMS[theorem]
    scope = scope or default_scope
    start = time.monotonic()
    instances, bad = runner(scope)
    elapsed = time.monotonic() - start
    return FuzzOutcome(theorem, instances, tuple(bad), elapsed)


def replay_counterexample(theorem: str, instance: dict) -> bool:
    """Re-run a serialized counterexample; True iff the failure reproduces."""
    if theorem == "every-cech-is-lodato":
        rel = relation_from_payload(instance["relation"])
        return not check_lodato(rel).ok
    if theorem == "first-isomorphism-theorem":
        g1 = _group_from_payload(instance["group"])
        g2 = _group_from_payload(instance["group2"])
        rel1 = relation_from_payload(instance["relation"])
        rel2 = relation_from_payload(instance["relation2"])
        eta = SpaceMap(g1.space, g2.space, tuple(instance["map_images"]), "replay")
        report = first_iso_harness(eta, g1, rel1, g2, rel2, max_size=max(6, g1.order))
        return not report.ok
    if theorem == "translations-are-proximal-isomorphisms":
        g = _group_from_payload(instance["group"])
        rel = relation_from_payload(instance["relation"])
        return not check_translations(g, rel, max_size=max(6, g.order)).ok
    if theorem == "subgroups-inherit-proximal-group":
        g = _group_from_payload(instance["group"])
        rel = relation_from_payload(instance["relation"])
        return not subgroup_proximal_group(
            g, rel, instance["subgroup_mask"], max_size=max(6, g.order)
        ).ok
    if theorem == "third-isomorphism-theorem":
        g = _group_from_payload(instance["group"])
        rel = relation_from_payload(instance["relation"])
        return not third_iso_harness(
            g, rel, instance["normal_mask"], instance["containing_mask"],
            max_size=max(6, g.order),
        ).ok
    raise ValueError(f"no replay recipe for theorem id {theorem!r}")

"""Exhaustive relation generators, an independent naive oracle, census
mining, and the theorem fuzzer.

The naive oracle is one table of violation predicates, quantified over
explicit element sets: ``VIOLATIONS`` maps each axiom id to its arity and
to whether a tuple of that many sets violates the axiom, read straight from
its quantifier.  :func:`naive_oracle` passes an axiom when no tuple
violates it and :func:`witness_violates` tests one tuple.  There is no
pruning beyond short-circuiting and no code shared with the optimized
checkers; the oracle certifies both the checkers and every witness they
emit.

Enumeration generates each class from its structure, with no checker call.
Symmetry plus the union axiom (an iff) force every L1-L4 relation to be
determined by a reflexive symmetric relation on points, near meaning "some
member pair is point-related", and every such graph extends to a Cech
relation; the Lodato and Efremovic relations are those whose point relation
is transitive, that is the set partitions.  The sweeps over proximal
groups take, from each class, one relation per normal subgroup of the
group (:func:`_coset_relations`) in place of filtering the class.  The
independent cross-checks (branching over free subset pairs, brute force
over all tables, and the filter over :func:`_structures`) live in
``tests/test_enumeration.py``.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cache
from itertools import combinations, product
from math import comb
from typing import Callable, Iterator, Sequence

from .axioms import check_efremovic, check_lodato
from .groups import (
    FiniteGroup,
    all_groups_up_to,
    all_subgroups,
    check_proximal_group,  # unused here; perfbench.spans.VERIFY_SITE patches it
    check_translations,
    coset_partition,
    is_proximal_group,
    normal_subgroups,
    product_proximal_group,
    subgroup_group,
)
from .harnesses import (
    first_iso_harness,
    hausdorff_check,
    hom_criterion_check,
    inversion_continuity_harness,
    multiplication_continuity_harness,
    second_iso_harness,
    third_iso_harness,
)
from .maps import SpaceMap, check_pcont
from .relations import (
    ProximityRelation,
    make_coarse_proximity,
    make_discrete_proximity,
    relation_from_point_pairs,
    subspace_proximity,
)
from .spaces import MAX_CARRIER, FiniteSpace, bits, default_space, memo

ENUMERATION_CAP = 4
PARTITION_CAP = 8

RELATION_CLASSES = ("cech", "lodato", "efremovic")


# ---------------------------------------------------------------------------
# naive oracle


@cache
def _subsets_and_masks(n: int) -> tuple[list[frozenset[int]], dict[frozenset[int], int]]:
    """Every subset of range(n) as an element set, indexed by its mask, and
    the mask of each set."""
    subsets = [frozenset(i for i in range(n) if (mask >> i) & 1) for mask in range(1 << n)]
    return subsets, {s: mask for mask, s in enumerate(subsets)}


class _ExplicitSets:
    """Every subset of a relation's carrier as an explicit element set, with
    nearness and closure read on those sets."""

    def __init__(self, rel: ProximityRelation) -> None:
        self.points = range(rel.space.size)
        self.subsets, self._mask = _subsets_and_masks(rel.space.size)
        self.carrier = self.subsets[-1]
        self._rel = rel

    def near(self, s: frozenset[int], t: frozenset[int]) -> bool:
        return self._rel.near(self._mask[s], self._mask[t])

    def cl(self, b: frozenset[int]) -> frozenset[int]:
        return frozenset(y for y in self.points if self.near(frozenset([y]), b))


# Each axiom id maps to its arity and to whether a tuple of that many sets
# violates it, straight from the axiom's quantifier.  K1 speaks of the
# empty set alone, so only the 1-tuple (empty set,) can witness it.
VIOLATIONS: dict[str, tuple[int, Callable[..., bool]]] = {
    "L1": (2, lambda x, s, t: x.near(s, t) and not x.near(t, s)),
    "L2": (2, lambda x, s, t: x.near(s, t) and (not s or not t)),
    "L3": (2, lambda x, s, t: bool(s & t) and not x.near(s, t)),
    "L4": (3, lambda x, s, t, u: x.near(s, t | u) != (x.near(s, t) or x.near(s, u))),
    "L5": (
        3,
        lambda x, s, t, u: x.near(s, t)
        and all(x.near(frozenset([p]), u) for p in t)
        and not x.near(s, u),
    ),
    "EF": (
        2,
        lambda x, s, t: not x.near(s, t)
        and not any(not x.near(s, k) and not x.near(x.carrier - k, t) for k in x.subsets),
    ),
    "transitivity": (
        3, lambda x, s, t, u: x.near(s, t) and x.near(t, u) and not x.near(s, u)
    ),
    "K1": (1, lambda x, b: not b and bool(x.cl(b))),
    "K2": (1, lambda x, b: not b <= x.cl(b)),
    "K3": (2, lambda x, s, t: x.cl(s | t) != x.cl(s) | x.cl(t)),
    "K4": (1, lambda x, b: x.cl(x.cl(b)) != x.cl(b)),
}


def _violation(axiom: str) -> tuple[int, Callable[..., bool]]:
    if axiom not in VIOLATIONS:
        raise ValueError(f"unknown axiom id {axiom!r}")
    return VIOLATIONS[axiom]


def naive_oracle(rel: ProximityRelation, axiom: str) -> bool:
    """Ground-truth verdict for one axiom: no tuple of its arity violates it.

    Works on explicit element sets with no shortcuts; used only to certify
    the optimized checkers and their witnesses.
    """
    arity, violates = _violation(axiom)
    x = _ExplicitSets(rel)
    return not any(violates(x, *sets) for sets in product(x.subsets, repeat=arity))


def witness_violates(rel: ProximityRelation, axiom: str, witness: tuple[int, ...]) -> bool:
    """Re-evaluate a witness tuple against the raw axiom definition.

    True iff the tuple is a genuine violation.  Descriptive axiom ids map to
    their relation-level readings (DL3 excepted: it needs the probe table and
    is validated where the probes are available).
    """
    axiom = {"DL1": "L1", "DL2": "L2", "DL4": "L4", "DL5": "L5", "DEF": "EF"}.get(
        axiom, axiom
    )
    arity, violates = _violation(axiom)
    if len(witness) != arity:
        raise ValueError(f"a {axiom} witness has {arity} masks, got {witness!r}")
    x = _ExplicitSets(rel)
    return violates(x, *(x.subsets[w] for w in witness))


# ---------------------------------------------------------------------------
# generators


def _bell_number(n: int) -> int:
    """Number of set partitions of n elements: B(k+1) = sum_j C(k, j) B(j)."""
    bell = [1]
    for k in range(n):
        bell.append(sum(comb(k, j) * b for j, b in enumerate(bell)))
    return bell[n]


def _partition_codes(n: int, pairs: Sequence[tuple[int, int]]) -> list[int]:
    """Pair code of every set partition of range(n), ascending: bit k is set
    when the k-th pair of ``pairs`` shares a block.  A partition is its
    restricted growth string: the block of element i, at most one above
    the largest block before it."""
    strings: list[tuple[int, ...]] = [()]
    for _ in range(n):
        strings = [s + (b,) for s in strings for b in range(max(s, default=-1) + 2)]
    return sorted(
        sum(1 << k for k, (i, j) in enumerate(pairs) if s[i] == s[j]) for s in strings
    )


def _table(n: int) -> str:
    return f"{(1 << n) * (1 << n)}-entry table"


def _require_partition_cap(n: int, axiom_class: str) -> None:
    if n > PARTITION_CAP:
        raise ValueError(
            f"enumeration of {axiom_class} relations capped at n <= {PARTITION_CAP}:"
            f" a carrier of size {n} has Bell({n}) = {_bell_number(n)} set partitions,"
            f" each with a {_table(n)}"
        )


@cache
def _partition_ranks(n: int) -> dict[int, int]:
    """Index of each set partition of range(n) in the ``lodato`` and
    ``efremovic`` streams of :func:`enumerate_relations`, by pair code."""
    codes = _partition_codes(n, list(combinations(range(n), 2)))
    return {code: i for i, code in enumerate(codes)}


def enumerate_relations(n: int, axiom_class: str = "cech") -> Iterator[ProximityRelation]:
    """Every relation of the class on n elements, exactly once, in a fixed order.

    Each relation is the existential extension of a reflexive symmetric point
    relation, listed by ascending pair code (bit k for the k-th pair i < j).
    ``cech`` yields all 2^(n*(n-1)/2) of them: each extends to a Cech table
    (see ``ProximityRelation.point_graph``).  ``lodato`` and ``efremovic``
    yield the transitive ones, the Bell(n) set partitions: on a Cech table
    L5 and EF each hold exactly when the point relation is transitive (see
    :func:`check_lodato` and :func:`check_efremovic`).  Both orders are the
    order in which filtering every graph by the class checker finds them.
    """
    if axiom_class not in RELATION_CLASSES:
        raise ValueError(f"relation class must be one of {RELATION_CLASSES}, got {axiom_class!r}")
    pairs = list(combinations(range(n), 2))
    if axiom_class == "cech":
        if n > ENUMERATION_CAP:
            raise ValueError(
                f"enumeration of cech relations capped at n <= {ENUMERATION_CAP}: a carrier"
                f" of size {n} means {2 ** len(pairs)} candidate point relations, each"
                f" with a {_table(n)}"
            )
        codes: Sequence[int] = range(1 << len(pairs))
    else:
        _require_partition_cap(n, axiom_class)
        codes = _partition_codes(n, pairs)
    space = default_space(n)
    for code in codes:
        rows = [1 << i for i in range(n)]
        for k, (i, j) in enumerate(pairs):
            if (code >> k) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
        yield relation_from_point_pairs(space, rows, "explicit")


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


def mine_separating_examples(n: int) -> RelationCensus:
    """Census of the axiom classes with minimal separating exemplars, over
    the Cech relations (so the enumeration cap bounds it)."""
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


def _relations_for(space: FiniteSpace, classes: Sequence[str]) -> Iterator[tuple[str, ProximityRelation]]:
    """(source name, relation) pairs on ``space``, which is
    ``default_space(n)``: the enumerated classes are built there, and so is
    every catalog group."""
    for cls in classes:
        if cls == "discrete":
            yield "discrete", make_discrete_proximity(space)
        elif cls == "coarse":
            yield "coarse", make_coarse_proximity(space)
        elif cls in RELATION_CLASSES:
            for idx, rel in enumerate(enumerate_relations(space.size, cls)):
                yield f"{cls}[{idx}]", rel
        else:
            raise ValueError(f"unknown relation class {cls!r}")


def _axiom_class(source: str) -> str:
    """efremovic for the discrete and coarse constructors, ``cls`` for the
    enumerated source ``cls[i]``.

    Only :func:`_product_instances` reads it, to pair structures whose
    sources share a class; that pairing fixes the product sweep's instances.
    No verdict depends on it (see :func:`groups.is_proximal_group`).  The
    sources are those :func:`_relations_for` accepted.
    """
    return "efremovic" if source in ("discrete", "coarse") else source.partition("[")[0]


_GROUP_KEYS = ("group", "group2")
_RELATION_KEYS = ("relation", "relation2")


def instance_payload(instance: dict) -> dict:
    """JSON-able payload of a live fuzz instance.

    ``group``/``group2`` hold (catalog name, group) pairs,
    ``relation``/``relation2`` relations and ``map_images`` a map from the
    first group to the second; every other field is plain JSON, copied as is.
    """
    payload = {}
    for key, value in instance.items():
        if key in _GROUP_KEYS:
            name, g = value
            payload[key] = {
                "name": name,
                "labels": list(g.space.labels),
                "cayley": [list(row) for row in g.cayley],
            }
        elif key in _RELATION_KEYS:
            payload[key] = relation_payload(value)
        elif key == "map_images":
            payload[key] = list(value.images)
        else:
            payload[key] = value
    return payload


def instance_from_payload(payload: dict) -> dict:
    """The live fuzz instance of a payload; inverse of :func:`instance_payload`."""
    instance = {}
    for key, value in payload.items():
        if key in _GROUP_KEYS:
            space = FiniteSpace(tuple(value["labels"]))
            instance[key] = (value["name"], FiniteGroup.from_table(space, value["cayley"]))
        elif key in _RELATION_KEYS:
            instance[key] = relation_from_payload(value)
        elif key != "map_images":
            instance[key] = value
    if "map_images" in payload:
        domain, codomain = instance["group"][1].space, instance["group2"][1].space
        instance["map_images"] = SpaceMap(domain, codomain, tuple(payload["map_images"]), "hom")
    return instance


def _all_homomorphisms(g1: FiniteGroup, g2: FiniteGroup) -> Iterator[SpaceMap]:
    """Every group homomorphism g1 -> g2, by ascending image tuple.

    Images are chosen in element order, each trying the codomain in order;
    a product i*j = k is checked as soon as i, j and k all have images, and
    a broken one prunes every extension.  A complete assignment has passed
    every product, so it is a homomorphism.
    """
    n1, n2 = g1.order, g2.order
    # products whose last element, in choice order, is t
    closing: list[list[tuple[int, int, int]]] = [[] for _ in range(n1)]
    for i, row in enumerate(g1.cayley):
        for j, k in enumerate(row):
            closing[max(i, j, k)].append((i, j, k))
    cay = g2.cayley
    images = [0] * n1

    def extend(t: int) -> Iterator[SpaceMap]:
        if t == n1:
            yield SpaceMap(g1.space, g2.space, tuple(images), "hom")
            return
        for v in range(n2):
            images[t] = v
            if all(cay[images[i]][images[j]] == images[k] for i, j, k in closing[t]):
                yield from extend(t + 1)

    yield from extend(0)


# -- instance generators: scope -> live instances, in sweep order -----------


def _structures(scope: FuzzScope, **fields) -> Iterator[dict]:
    """Every catalog group in scope with every relation source on it."""
    for gname, g in all_groups_up_to(scope.max_order):
        for rname, rel in _relations_for(g.space, scope.relation_classes):
            yield {"group": (gname, g), "relation": rel, "relation_class": rname, **fields}


def _coset_relations(g: FiniteGroup, axiom_class: str) -> list[tuple[str, ProximityRelation]]:
    """The relations of the ``axiom_class`` stream on g that make g a
    proximal group, named and ordered as in that stream: one per normal
    subgroup N, the existential extension of its coset partition.

    * Each relation of the stream is the Cech extension of its point
      relation P (:func:`enumerate_relations`), and by
      :func:`groups.is_proximal_group` it makes g a proximal group exactly
      when P relates a to the members of aN for a normal subgroup N.
    * Such a P is an equivalence, so its extension is Lodato and Efremovic
      as well as Cech and lies in every stream.
    * Distinct normal subgroups have distinct coset partitions.

    So these are exactly the relations the filter keeps, with no checker
    call.  The filter keeps them in stream order, which is ascending pair
    code: the index of ``cech[i]`` is its code, that of ``lodato[i]`` and
    ``efremovic[i]`` the rank of its code among the set partitions.  The
    ``cech`` enumeration cap does not apply; the partition classes keep
    ``PARTITION_CAP`` for that rank.
    """
    n = g.order
    if axiom_class != "cech":
        _require_partition_cap(n, axiom_class)
    pairs = list(combinations(range(n), 2))
    coded = []
    for n_mask in normal_subgroups(g):
        points = [0] * n
        for block in coset_partition(g, n_mask):
            for i in bits(block):
                points[i] = block
        code = sum(1 << k for k, (i, j) in enumerate(pairs) if (points[i] >> j) & 1)
        coded.append((code, relation_from_point_pairs(g.space, points, "explicit")))
    coded.sort(key=lambda c: c[0])
    ranks = None if axiom_class == "cech" else _partition_ranks(n)
    return [
        (f"{axiom_class}[{code if ranks is None else ranks[code]}]", rel) for code, rel in coded
    ]


def _verified_relations(g: FiniteGroup, classes: Sequence[str]) -> Iterator[tuple[str, ProximityRelation]]:
    """(source name, relation) pairs of :func:`_relations_for` on g's
    carrier that pass the proximal-group check, with no checker call: the
    enumerated classes through :func:`_coset_relations`, and ``discrete``
    and ``coarse`` as constructed, being the coset relations of {e} and of
    g.

    Each class's pairs are built once per group and kept in its memo, so on
    a catalog group every sweep gets the same relations, and with them the
    pullbacks and verdicts memoized on those relations.
    """
    for cls in classes:
        yield from memo(g, ("relations", cls), lambda: tuple(
            _coset_relations(g, cls) if cls in RELATION_CLASSES
            else _relations_for(g.space, (cls,))
        ))


def _verified_structures(scope: FuzzScope) -> Iterator[dict]:
    """The structures in scope that pass the proximal-group check, in the
    order in which filtering :func:`_structures` by that check finds them."""
    for gname, g in all_groups_up_to(scope.max_order):
        for rname, rel in _verified_relations(g, scope.relation_classes):
            yield {"group": (gname, g), "relation": rel, "relation_class": rname}


def _second(s: dict) -> dict:
    """A structure's fields renamed for the second structure of a pair."""
    return {key + "2": value for key, value in s.items()}


def _subgroup_instances(scope: FuzzScope) -> Iterator[dict]:
    for s in _verified_structures(scope):
        for h in all_subgroups(s["group"][1]):
            yield {**s, "subgroup_mask": h}


def _product_instances(scope: FuzzScope) -> Iterator[dict]:
    structures = list(_verified_structures(scope))
    for s1 in structures:
        for s2 in structures:
            if (
                s1["group"][1].order * s2["group"][1].order <= scope.max_order
                and _axiom_class(s1["relation_class"]) == _axiom_class(s2["relation_class"])
            ):
                yield {**s1, **_second(s2)}


def _homomorphism_instances(scope: FuzzScope) -> Iterator[dict]:
    structures = list(_verified_structures(scope))
    homs: dict[tuple[str, str], list[SpaceMap]] = {}
    for s1 in structures:
        for s2 in structures:
            (name1, g1), (name2, g2) = s1["group"], s2["group"]
            if (name1, name2) not in homs:
                homs[name1, name2] = list(_all_homomorphisms(g1, g2))
            for eta in homs[name1, name2]:
                yield {**s1, **_second(s2), "map_images": eta}


def _first_iso_instances(scope: FuzzScope) -> Iterator[dict]:
    """Surjective homomorphisms that are pcont between two verified structures."""
    groups = all_groups_up_to(scope.max_order)
    relations = {
        gname: [rel for _, rel in _verified_relations(g, scope.relation_classes)]
        for gname, g in groups
    }
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
            for rel1 in relations[gname1]:
                for rel2 in relations[gname2]:
                    for eta in homs:
                        if check_pcont(eta, rel1, rel2).ok:
                            yield {
                                "group": (gname1, g1),
                                "relation": rel1,
                                "group2": (gname2, g2),
                                "relation2": rel2,
                                "map_images": eta,
                            }


def _second_iso_instances(scope: FuzzScope) -> Iterator[dict]:
    for s in _verified_structures(scope):
        g = s["group"][1]
        normals = normal_subgroups(g)
        for h in all_subgroups(g):
            for n_mask in normals:
                yield {**s, "subgroup_mask": h, "normal_mask": n_mask}


def _normal_chain_instances(scope: FuzzScope) -> Iterator[dict]:
    for s in _verified_structures(scope):
        normals = normal_subgroups(s["group"][1])
        for n_mask in normals:
            for k_mask in normals:
                if not n_mask & ~k_mask:
                    yield {**s, "normal_mask": n_mask, "containing_mask": k_mask}


def _carrier_relations(scope: FuzzScope) -> Iterator[dict]:
    """The relation sources on the default carriers of sizes 1..max_order."""
    for n in range(1, scope.max_order + 1):
        for _, rel in _relations_for(default_space(n), scope.relation_classes):
            yield {"relation": rel}


# -- verdicts: live instance -> the statement holds -------------------------
# They name the checkers at call time, so a checker patched on this module is
# the one that runs.  Every sweep source yields Cech relations, and so do
# their subspace and quotient pullbacks, so the checkers decide them on the
# point relation and no verdict reaches a capped read.  The isomorphism
# verdicts read only a harness's ``ok``, which keeps the group half on G and
# tests the relation half on P: no side group, map or witness is built.  The
# multiplication harness is the exception: its transitivity-chain and
# pointwise-nearness reads always scan, and a sweep's cost is bounded by its
# scope, so it scans up to MAX_CARRIER rather than stopping at the scan cap.


def _translations_hold(i: dict) -> bool:
    g = i["group"][1]
    return check_translations(g, i["relation"]).ok


def _subgroup_holds(i: dict) -> bool:
    g, h = i["group"][1], i["subgroup_mask"]
    return is_proximal_group(subgroup_group(g, h), subspace_proximity(i["relation"], h))


def _product_holds(i: dict) -> bool:
    g1, g2 = i["group"][1], i["group2"][1]
    return product_proximal_group(g1, i["relation"], g2, i["relation2"]).ok


def _first_iso_holds(i: dict) -> bool:
    g1, g2 = i["group"][1], i["group2"][1]
    return first_iso_harness(i["map_images"], g1, i["relation"], g2, i["relation2"]).ok


def _second_iso_holds(i: dict) -> bool:
    g = i["group"][1]
    return second_iso_harness(g, i["relation"], i["subgroup_mask"], i["normal_mask"]).ok


def _third_iso_holds(i: dict) -> bool:
    g = i["group"][1]
    return third_iso_harness(g, i["relation"], i["normal_mask"], i["containing_mask"]).ok


def _hom_criterion_holds(i: dict) -> bool:
    g1, g2 = i["group"][1], i["group2"][1]
    return hom_criterion_check(
        i["map_images"], g1, i["relation"], g2, i["relation2"]
    ).implication_ok


def _inversion_holds(i: dict) -> bool:
    g = i["group"][1]
    return inversion_continuity_harness(g, i["relation"]).implication_ok


def _multiplication_holds(i: dict) -> bool:
    g = i["group"][1]
    return multiplication_continuity_harness(
        g, i["relation"], i["mode"], max_size=MAX_CARRIER
    ).implication_ok


def _t1_readings_agree(i: dict) -> bool:
    g = i["group"][1]
    return hausdorff_check(g, i["relation"]).readings_agree


@dataclass(frozen=True)
class Theorem:
    """A fuzzable statement: its default scope, the live instances a scope
    covers (fields as in :func:`instance_payload`) and whether the statement
    holds on one instance.  Sweep and replay both decide with ``holds``."""

    scope: FuzzScope
    instances: Callable[[FuzzScope], Iterator[dict]]
    holds: Callable[[dict], bool]


THEOREMS: dict[str, Theorem] = {
    "translations-are-proximal-isomorphisms": Theorem(
        FuzzScope(4, ("cech",)), _verified_structures, _translations_hold
    ),
    "subgroups-inherit-proximal-group": Theorem(
        FuzzScope(4, ("cech",)), _subgroup_instances, _subgroup_holds
    ),
    "products-inherit-proximal-group": Theorem(
        FuzzScope(4, ("discrete", "coarse")), _product_instances, _product_holds
    ),
    "first-isomorphism-theorem": Theorem(
        FuzzScope(3, ("discrete", "coarse")), _first_iso_instances, _first_iso_holds
    ),
    "second-isomorphism-theorem": Theorem(
        FuzzScope(8, ("discrete", "coarse")), _second_iso_instances, _second_iso_holds
    ),
    "third-isomorphism-theorem": Theorem(
        FuzzScope(8, ("discrete", "coarse")), _normal_chain_instances, _third_iso_holds
    ),
    "hom-criterion-implies-pcont": Theorem(
        FuzzScope(4, ("discrete", "coarse")), _homomorphism_instances, _hom_criterion_holds
    ),
    "multiplication-continuity-gives-inversion": Theorem(
        FuzzScope(3, ("cech",)), _structures, _inversion_holds
    ),
    "translations-and-transitivity-give-proximal-group": Theorem(
        FuzzScope(3, ("cech",)),
        lambda scope: _structures(scope, mode="ef-transitivity"),
        _multiplication_holds,
    ),
    "translations-and-pointwise-lodato-give-proximal-group": Theorem(
        FuzzScope(3, ("cech",)),
        lambda scope: _structures(scope, mode="lodato-pointwise"),
        _multiplication_holds,
    ),
    "t1-equals-identity-closure": Theorem(
        FuzzScope(4, ("cech",)), _verified_structures, _t1_readings_agree
    ),
    "every-cech-is-lodato": Theorem(
        FuzzScope(3, ("cech",)),
        _carrier_relations,
        lambda i: check_lodato(i["relation"]).ok,
    ),
}


def lookup_theorem(theorem: str) -> Theorem:
    """The registry entry of a theorem id; ValueError lists the known ids."""
    if theorem not in THEOREMS:
        known = ", ".join(sorted(THEOREMS))
        raise ValueError(f"unknown theorem id {theorem!r}; known ids: {known}")
    return THEOREMS[theorem]


def fuzz_theorem(theorem: str, scope: FuzzScope | None = None) -> FuzzOutcome:
    """Sweep every instance in scope through the theorem's verdict.

    Expected-true statements should come back with zero counterexamples;
    statements shipped as failure demonstrations return the full serialized
    counterexample instances.
    """
    entry = lookup_theorem(theorem)
    start = time.monotonic()
    instances = 0
    bad = []
    for instance in entry.instances(scope or entry.scope):
        instances += 1
        if not entry.holds(instance):
            bad.append(instance_payload(instance))
    return FuzzOutcome(theorem, instances, tuple(bad), time.monotonic() - start)


def replay_counterexample(theorem: str, instance: dict) -> bool:
    """Re-run a serialized counterexample through the verdict its sweep used;
    True iff the failure reproduces."""
    return not lookup_theorem(theorem).holds(instance_from_payload(instance))

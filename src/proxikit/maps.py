"""Maps between carriers and proximal continuity checks."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .axioms import SCAN_CAP, AxiomReport, require_scan_size
from .relations import ProximityRelation
from .spaces import FiniteSpace, bits, image, union_table


@dataclass(frozen=True)
class SpaceMap:
    """A function between carriers given by its element images."""

    domain: FiniteSpace
    codomain: FiniteSpace
    images: tuple[int, ...]
    name: str = ""

    def __post_init__(self) -> None:
        if len(self.images) != self.domain.size:
            raise ValueError(
                f"map needs {self.domain.size} images, got {len(self.images)}"
            )
        for i, img in enumerate(self.images):
            if not 0 <= img < self.codomain.size:
                raise ValueError(f"image of element {i} out of range: {img}")

    def image_mask(self, mask: int) -> int:
        return image(self.images, mask)

    def is_bijective(self) -> bool:
        return self.domain.size == self.codomain.size and len(set(self.images)) == len(
            self.images
        )

    def inverse(self) -> "SpaceMap":
        if not self.is_bijective():
            raise ValueError("only bijections can be inverted")
        inv = [0] * self.codomain.size
        for i, img in enumerate(self.images):
            inv[img] = i
        return SpaceMap(self.codomain, self.domain, tuple(inv), f"{self.name}^-1")


def identity_map(space: FiniteSpace, name: str = "id") -> SpaceMap:
    return SpaceMap(space, space, tuple(range(space.size)), name)


def compose(f: SpaceMap, g: SpaceMap) -> SpaceMap:
    """Apply f first, then g."""
    if f.codomain != g.domain:
        raise ValueError(
            f"cannot compose: codomain {f.codomain.labels} != domain {g.domain.labels}"
        )
    images = tuple(g.images[i] for i in f.images)
    return SpaceMap(f.domain, g.codomain, images, f"{g.name}.{f.name}")


def _table_pcont_witness(
    f: SpaceMap, rel1: ProximityRelation, rel2: ProximityRelation
) -> tuple[int, int] | None:
    """The first near pair (A, B) of ``rel1``, A outermost, whose images are
    far in ``rel2``, read off the tables."""
    img = union_table([1 << y for y in f.images])
    return next(
        ((a, b) for a, row in enumerate(rel1.rows) for b in bits(row)
         if not rel2.near(img[a], img[b])),
        None,
    )


def pcont_point_witness(
    images: Sequence[int], p1: Sequence[int], p2: Sequence[int]
) -> tuple[int, int] | None:
    """The pcont witness of the map with these images between the Cech
    tables with point relations P1 and P2, or None when it is pcont.

    The map f is pcont exactly when it is a homomorphism of the point
    graphs: i P1 j implies f(i) P2 f(j).  A near pair A, B has i P1 j with
    i in A and j in B, so f(i) P2 f(j) with f(i) in f(A) and f(j) in f(B),
    and the images are near; singletons give the converse.

    When it fails, the witness is ({i}, {j}) for the first point pair, i
    outermost, with i P1 j but not f(i) P2 f(j).  A violating pair (A, B)
    has such a point pair i in A, j in B: the i P1 j that makes A near B,
    with f(A) far f(B).  Every such i is at least the first one, so A is
    at least {i}, and ({i}, {j}) violates.  With A = {i}, a violating B
    holds such a j for that i, so B is at least {j}.
    """
    return next(
        ((1 << i, 1 << j) for i, row in enumerate(p1) for j in bits(row)
         if not (p2[images[i]] >> images[j]) & 1),
        None,
    )


def check_pcont(
    f: SpaceMap,
    rel1: ProximityRelation,
    rel2: ProximityRelation,
    *,
    max_size: int = SCAN_CAP,
) -> AxiomReport:
    """Pass iff every near pair maps to a near pair of images: read off the
    point relations when both tables are Cech (:func:`pcont_point_witness`),
    else off the tables.  The report has the one key ``pcont``."""
    if f.domain != rel1.space or f.codomain != rel2.space:
        raise ValueError("map endpoints do not match the relation carriers")
    p1, p2 = rel1.point_graph, rel2.point_graph
    if p1 is not None and p2 is not None:
        witness = pcont_point_witness(f.images, p1, p2)
    else:
        require_scan_size(f.domain.size, max_size, "pcont table")
        witness = _table_pcont_witness(f, rel1, rel2)
    if witness is None:
        return AxiomReport({"pcont": True})
    return AxiomReport({"pcont": False}, {"pcont": witness})


def _bijection_violation(f: SpaceMap) -> tuple[int, ...] | None:
    """None when f is a bijection; else the singletons of the first two
    elements with one image, or, for an injective f, the singleton of the
    lowest codomain point that f misses."""
    seen: dict[int, int] = {}
    for i, img in enumerate(f.images):
        if img in seen:
            return (1 << seen[img], 1 << i)
        seen[img] = i
    return next(((1 << y,) for y in range(f.codomain.size) if y not in seen), None)


def check_proximal_isomorphism(
    f: SpaceMap,
    rel1: ProximityRelation,
    rel2: ProximityRelation,
    *,
    max_size: int = SCAN_CAP,
) -> AxiomReport:
    """Bijective, proximally continuous, with proximally continuous inverse.

    A non-bijective map is reported through the ``bijective`` verdict; the
    ``inverse_pcont`` verdict is omitted since no inverse exists to test.
    Witness carriers: ``bijective`` ``({i}, {j})``, the first two elements
    with one image, and ``pcont`` on the domain; ``bijective`` ``({y},)``,
    the lowest point an injective map misses, and ``inverse_pcont`` on the
    codomain.  ``pcont`` is the ``pcont`` witness of :func:`check_pcont` on
    f, and ``inverse_pcont`` that of f^-1 from ``rel2`` to ``rel1``.
    """
    bijective = f.is_bijective()
    found = {
        "bijective": None if bijective else _bijection_violation(f),
        "pcont": check_pcont(f, rel1, rel2, max_size=max_size).witnesses.get("pcont"),
    }
    if bijective:
        inverse = check_pcont(f.inverse(), rel2, rel1, max_size=max_size)
        found["inverse_pcont"] = inverse.witnesses.get("pcont")
    return AxiomReport.from_witnesses(found)


def points_isomorphic(images: Sequence[int], p1: Sequence[int], p2: Sequence[int]) -> bool:
    """Whether the map f with these images is a proximal isomorphism between
    the Cech tables with point relations P1 and P2: a bijection with
    f(P1[i]) = P2[f(i)] for every i.

    By :func:`pcont_point_witness`, f is pcont exactly when i P1 j implies
    f(i) P2 f(j), that is f(P1[i]) is inside P2[f(i)] for every i.  For a
    bijection, f^-1 is pcont exactly when y P2 z implies f^-1(y) P1 f^-1(z);
    with y = f(i) and z = f(j) that says f(j) in P2[f(i)] implies j in
    P1[i], that is P2[f(i)] is inside f(P1[i]).  The two inclusions are the
    equality.
    """
    n = len(p2)
    return (
        len(images) == len(p1) == n
        and set(images) == set(range(n))
        and all(image(images, p1[i]) == p2[y] for i, y in enumerate(images))
    )

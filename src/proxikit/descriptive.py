"""Descriptive proximity: probe functions, description sets, and the
relation "near iff the description sets intersect".

Feature values are discrete ints so description equality is exact; fixtures
with fractional probe values encode them by fixed-point scaling.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .axioms import AxiomReport, check_efremovic, check_lodato
from .maps import SpaceMap, check_pcont
from .relations import ProximityRelation, relation_from_point_pairs
from .spaces import FiniteSpace, bits, product_space

DescriptionSet = frozenset  # frozenset of feature-value tuples


@dataclass(frozen=True)
class ProbeTable:
    """Per-element feature vectors; element i is described by values[i]."""

    space: FiniteSpace
    arity: int
    values: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.values) != self.space.size:
            raise ValueError(
                f"probe table needs {self.space.size} rows, got {len(self.values)}"
            )
        for i, vec in enumerate(self.values):
            if len(vec) != self.arity:
                raise ValueError(
                    f"element {i} has {len(vec)} feature values, expected {self.arity}"
                )


def probe_table(space: FiniteSpace, values: Sequence[Sequence[int]]) -> ProbeTable:
    rows = tuple(tuple(v) for v in values)
    arity = len(rows[0]) if rows else 0
    return ProbeTable(space, arity, rows)


def describe(probes: ProbeTable, b: int) -> DescriptionSet:
    """The set of description vectors of the members of B."""
    probes.space.check_mask(b)
    return frozenset(probes.values[i] for i in bits(b))


def descriptive_proximity(probes: ProbeTable) -> ProximityRelation:
    """Near iff some members share a description vector.  The point
    relation puts each point in the class of points with its vector, the
    classes gathered in one pass over the vectors."""
    classes: dict[tuple[int, ...], int] = {}
    for i, vec in enumerate(probes.values):
        classes[vec] = classes.get(vec, 0) | 1 << i
    return relation_from_point_pairs(
        probes.space, [classes[vec] for vec in probes.values], "descriptive"
    )


def descriptive_intersection(probes: ProbeTable, a: int, b: int) -> int:
    """Members of A or B whose description is shared between A and B."""
    shared = describe(probes, a) & describe(probes, b)
    out = 0
    for i in bits(a | b):
        if probes.values[i] in shared:
            out |= 1 << i
    return out


def _descriptive_keys(report: AxiomReport) -> AxiomReport:
    """The report with every axiom key prefixed by "D" (L1 -> DL1, EF -> DEF)."""
    return AxiomReport(
        {"D" + k: v for k, v in report.verdicts.items()},
        {"D" + k: w for k, w in report.witnesses.items()},
    )


def check_descriptive_lodato(probes: ProbeTable) -> AxiomReport:
    """DL1-DL5: the Lodato axioms L1-L5 on the induced relation, renamed.

    DL3 asks that A and B be near whenever their descriptive intersection
    is nonempty.  That intersection is nonempty exactly when some a in A
    and b in B share a description, which is exactly when the induced
    relation puts A near B, so DL3 holds by construction.  L3 holds too:
    if A and B share a point x, x shares its own description, so A near B.
    Both always pass, and the renamed L3 verdict is the DL3 verdict.  The
    other DL axioms are L1, L2, L4 and L5 of that relation verbatim.

    "Same description" is an equivalence on points, so the induced table
    is Cech with a transitive point relation and every verdict is decided
    on it: no table scan runs, at any carrier size.
    """
    return _descriptive_keys(check_lodato(descriptive_proximity(probes)))


def check_descriptive_ef(probes: ProbeTable) -> AxiomReport:
    """DL1-DL4 plus DEF: the checks of :func:`check_efremovic` on the induced
    relation, renamed as in :func:`check_descriptive_lodato`, and likewise
    decided without a table scan."""
    return _descriptive_keys(check_efremovic(descriptive_proximity(probes)))


def check_dpcont(f: SpaceMap, probes1: ProbeTable, probes2: ProbeTable) -> AxiomReport:
    """Descriptive proximal continuity of f between the induced relations:
    the one key ``dpcont``, with the ``pcont`` witness of :func:`check_pcont`."""
    if f.domain != probes1.space or f.codomain != probes2.space:
        raise ValueError("map endpoints do not match the probe-table carriers")
    rel1 = descriptive_proximity(probes1)
    rel2 = descriptive_proximity(probes2)
    pcont = check_pcont(f, rel1, rel2)
    return AxiomReport.from_witnesses({"dpcont": pcont.witnesses.get("pcont")})


@dataclass(frozen=True)
class MappingSpaceVerdict:
    """Outcome of the map-set nearness test, with a witness when far."""

    near: bool
    witness: tuple[int, int, str, str] | None = None


def _map_identity(which: str, index: int, f: SpaceMap) -> str:
    return f.name if f.name else f"{which}[{index}]"


def mapping_space_relation(
    maps1: Sequence[SpaceMap],
    maps2: Sequence[SpaceMap],
    probes1: ProbeTable,
    probes2: ProbeTable,
) -> MappingSpaceVerdict:
    """Near iff every near pair stays near under every pair of maps.

    Both map sets must consist of descriptively continuous maps from the
    first carrier to the second; a non-continuous member is rejected by name.

    Both relations are Cech, with the "same description" point relations
    P1 and P2, so the test runs on points: the sets are near exactly when
    x P1 y implies f(x) P2 g(y) for every f in ``maps1`` and g in
    ``maps2``, as for :func:`~proxikit.maps.pcont_point_witness`.  When
    they are far, the witness is ({x}, {y}, f, g) for the first x, y, f,
    g, in that order, that break it: a violating (A, B, f, g) holds such
    an x in A and y in B for that f and g, so as for
    ``pcont_point_witness`` the first violating A is {x}, then B is {y},
    and then come the first maps.

    That first (x, y, f, g) is found per point.  Each f is pcont, so
    x P1 y gives f(x) P2 f(y), and P2 is an equivalence, so f(x) P2 g(y)
    exactly when f(y) P2 g(y).  Hence (x, y, f, g) breaks the test exactly
    when x P1 y and y is bad for (f, g): f(y) not P2 g(y).  The bad points
    and each one's first (f, g) take O(n·|maps1|·|maps2|); x is then the
    first point whose P1-class holds a bad point, y the first bad point
    in that class, and f, g the first maps that y is bad for.
    """
    rel1 = descriptive_proximity(probes1)
    rel2 = descriptive_proximity(probes2)
    for which, maps in (("maps1", maps1), ("maps2", maps2)):
        for index, f in enumerate(maps):
            if not check_pcont(f, rel1, rel2).ok:
                raise ValueError(
                    f"map {_map_identity(which, index, f)} is not descriptively"
                    " proximally continuous"
                )
    p1, p2 = rel1.point_graph, rel2.point_graph
    first_maps = {}  # bad point y: the first (f, g) with f(y) not P2 g(y)
    for y in range(probes1.space.size):
        for i, f in enumerate(maps1):
            near = p2[f.images[y]]
            j = next((j for j, g in enumerate(maps2) if not (near >> g.images[y]) & 1), None)
            if j is not None:
                first_maps[y] = (_map_identity("maps1", i, f), _map_identity("maps2", j, maps2[j]))
                break
    bad = sum(1 << y for y in first_maps)
    for x, cls in enumerate(p1):
        hit = cls & bad
        if hit:
            y = (hit & -hit).bit_length() - 1
            return MappingSpaceVerdict(False, (1 << x, 1 << y, *first_maps[y]))
    return MappingSpaceVerdict(True)


def product_probe_table(p1: ProbeTable, p2: ProbeTable) -> ProbeTable:
    """Probes on the product carrier: concatenated coordinate descriptions.

    On rectangle subsets the induced relation agrees with the coordinatewise
    conjunction of the factor relations.
    """
    space = product_space(p1.space, p2.space)
    values = tuple(v1 + v2 for v1 in p1.values for v2 in p2.values)
    return ProbeTable(space, p1.arity + p2.arity, values)


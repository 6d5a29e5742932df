"""Axiom checkers for proximity relations.

Every checker decides its quantifier exhaustively and returns an
:class:`AxiomReport`.  Failure is a verdict with a witness, never an
exception.  Witnesses are the lexicographically smallest violating tuple
of subset masks, scanning the first argument outermost, so reports are
deterministic and reproducible.

The axiom vocabulary:

* L1 symmetry, L2 nonemptiness, L3 intersection implies near, L4 the union
  axiom (an iff), L5 the Lodato chaining axiom.
* EF: every far pair is separated by some subset K.
* K1..K4: the Kuratowski closure axioms for B -> { y : {y} near B }.

A Cech table (one whose ``point_graph`` is not None) is decided on its
point relation P, at most n^2 point pairs, and its rows are never read:
L1-L4 and K1-K3 hold, and L5, EF and K4 hold exactly when P is
transitive.  When P is not, the first point whose neighbourhood P leaves
(:func:`_first_unclosed`) gives all three witnesses, each made of
singletons.  Each reduction is proved in the checker's docstring.

Any other table is read, and on m = 2^n subsets no read is cubic: each
works on whole rows as bitsets.  L1 and EF read the transposed table
(:func:`~proxikit.spaces.transpose`), L2 and L3 one mask per row, L4 one
row-shape test per row and then a single row (:func:`_union_row`), L5 one
mask per near pair.  So L1-L4 cost O(m n) big-int operations plus one
O(m^2) row scan, and EF, L5 and K3 at most O(m^2).  One cap, ``SCAN_CAP``,
bounds those 4^n reads: :func:`require_scan_size` is called just before
the first of them, so a Cech table is checked at any size, and a scan
above the cap raises unless the caller raises ``max_size`` explicitly.

Reports hold only verdicts and witnesses.  The smallest subset separating
each far pair is computed on request by :func:`ef_separators`.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .relations import ProximityRelation
from .spaces import FiniteSpace, bits, meeting_table, transpose, union_over, union_table

SCAN_CAP = 7  # the slowest known table of every capped scan runs in under 1 s (README)


@dataclass(frozen=True)
class AxiomReport:
    """Per-axiom verdicts with minimal counterexample witnesses.

    ``witnesses`` holds a mask tuple for every failed axiom and nothing for
    passed ones.  Treat instances as read-only.
    """

    verdicts: Mapping[str, bool]
    witnesses: Mapping[str, tuple[int, ...]] = field(default_factory=dict)

    @classmethod
    def from_witnesses(cls, found: Mapping[str, tuple[int, ...] | None]) -> "AxiomReport":
        """The report of the first violation found for each axiom, None where
        the axiom holds."""
        return cls(
            {axiom: w is None for axiom, w in found.items()},
            {axiom: w for axiom, w in found.items() if w is not None},
        )

    @property
    def ok(self) -> bool:
        return all(self.verdicts.values())

    def failed(self) -> tuple[str, ...]:
        return tuple(k for k, v in self.verdicts.items() if not v)


def require_scan_size(size: int, max_size: int, what: str) -> None:
    """Refuse the ``what`` scan over a carrier of ``size`` elements above
    ``max_size``; called just before the scan runs."""
    if size > max_size:
        raise ValueError(
            f"exhaustive {what} scan on a {size}-element carrier exceeds the"
            f" cap {max_size}; pass max_size={size} to run it anyway"
        )


def _first_set_bit(masks: Iterable[int]) -> tuple[int, int] | None:
    """(a, b) for the first nonzero ``masks[a]`` and its lowest set bit b."""
    for a, mask in enumerate(masks):
        if mask:
            return a, (mask & -mask).bit_length() - 1
    return None


def _union_row(row: int, meeting: Sequence[int], n: int) -> bool:
    """Whether a row R passes L4 for every (b, c): exactly when R is the full
    row or R = ``meeting[S]``, for S the points x with {x} in R.

    * If the empty set is in R, the pair (empty, c) asks R[c] = R[c] or 1,
      so every c is in R: R is full.
    * Otherwise R[B | {x}] = R[B] or R[{x}] for every B and x, and induction
      on |B| from R[empty] = 0 gives R[B] = 1 exactly when B meets S.
    * Both forms pass: the full row trivially, ``meeting[S]`` because B | C
      meets S exactly when B or C does.
    """
    points = sum(1 << x for x in range(n) if (row >> (1 << x)) & 1)
    return row == (1 << len(meeting)) - 1 or row == meeting[points]


def _first_union_violation(
    rows: Sequence[int], meeting: Sequence[int], n: int
) -> tuple[int, int, int] | None:
    """The first (a, b, c) with (a near b | c) != (a near b or a near c).

    L4 constrains each row on its own, so the first row that fails
    :func:`_union_row`, found in O(n) per row, holds the lexicographically
    first witness, and only that row is scanned for (b, c), b outermost:
    O(m n + m^2) for m = 2^n subsets.
    """
    for a, row in enumerate(rows):
        if _union_row(row, meeting, n):
            continue
        for b in range(len(rows)):
            rb = (row >> b) & 1
            for c in range(len(rows)):
                if ((row >> (b | c)) & 1) != (rb | (row >> c) & 1):
                    return a, b, c
    return None


def _l1_l4_violations(rel: ProximityRelation, max_size: int) -> dict[str, tuple[int, ...] | None]:
    """The first violation of each of L1-L4 in scan order, None where it holds.

    They all pass exactly when ``rel.point_graph`` is not None (proof in
    :attr:`~proxikit.relations.ProximityRelation.point_graph`).  Any other
    table is read row by row, each axiom with a bitset per row:

    * L1: the b with a near b but b far a are ``rows[a] & ~cols[a]``, for
      ``cols`` the transposed table.
    * L2: a nonempty ``rows[0]`` gives (0, its lowest bit); otherwise the
      first row holding the empty set gives (a, 0).
    * L3: the b meeting a but far from it are ``meeting[a] & ~rows[a]``.
    * L4: see :func:`_first_union_violation`.
    """
    if rel.point_graph is not None:
        return dict.fromkeys(("L1", "L2", "L3", "L4"))
    require_scan_size(rel.space.size, max_size, "L1-L4 table")
    rows = rel.rows
    meeting = meeting_table(rel.space.size)
    return {
        "L1": _first_set_bit(row & ~col for row, col in zip(rows, transpose(rows))),
        "L2": _first_set_bit([rows[0], *(row & 1 for row in rows[1:])]),
        "L3": _first_set_bit(meet & ~row for meet, row in zip(meeting, rows)),
        "L4": _first_union_violation(rows, meeting, rel.space.size),
    }


def check_cech(rel: ProximityRelation, *, max_size: int = SCAN_CAP) -> AxiomReport:
    """L1-L4 over all pairs/triples of subsets."""
    return AxiomReport.from_witnesses(_l1_l4_violations(rel, max_size))


def _first_unclosed(points: Sequence[int]) -> dict[str, tuple[int, ...] | None]:
    """The L5, EF and K4 witnesses of the Cech table of the point relation
    P, all None when P is transitive.

    They are read off the first point i, and the first j in P[i], with
    P[j] not inside P[i]; no such i exists exactly when P is transitive.
    Write R(A) for the union of P over A (the closure of A, see
    :func:`closure_table`).  The first A, in ascending mask order, with
    R(R(A)) != R(A) is {i}: R(R(A)) is the union of R(P[x]) over x in A,
    so such an A has a member x with R(P[x]) outside P[x], that is a j in
    P[x] with P[j] outside P[x]; that x is at least i, so A is at least
    {i}, and {i} is such an A.  Each checker's docstring proves that its
    witness comes from that A.
    """
    for i, near in enumerate(points):
        for j in bits(near):
            chained = points[j] & ~near
            if chained:
                escaped = union_over(points, near) & ~near
                return {
                    "L5": (1 << i, 1 << j, chained & -chained),
                    "EF": (1 << i, escaped & -escaped),
                    "K4": (1 << i,),
                }
    return dict.fromkeys(("L5", "EF", "K4"))


def _singleton_row_meet(rel: ProximityRelation) -> list[int]:
    """For each subset B, the set of C near every singleton of B (as a bitset):
    by De Morgan, the complement of the union of the far rows of B's
    singletons."""
    everything = (1 << rel.space.n_subsets) - 1
    far = union_table([everything ^ rel.rows[1 << i] for i in range(rel.space.size)])
    return [everything ^ row for row in far]


def first_chain_violation(
    rows: Sequence[int], through: Sequence[int]
) -> tuple[int, int, int] | None:
    """The first (a, b, c) with a near b and c in ``through[b]`` but a far c.

    ``rows`` and ``through`` are bitset tables over the same masks.  The scan
    takes a ascending, then b ascending over row a, then the smallest c, so
    the triple is the lexicographically smallest violation.
    """
    for a, row in enumerate(rows):
        for b in bits(row):
            bad = through[b] & ~row
            if bad:
                return a, b, (bad & -bad).bit_length() - 1
    return None


def check_lodato(rel: ProximityRelation, *, max_size: int = SCAN_CAP) -> AxiomReport:
    """L1-L4 plus the chaining axiom L5.

    On a Cech table with point relation P, L5 holds exactly when P is
    transitive.  If P is transitive and A near B, {b} near C for every b
    in B: some a in A, b in B have a P b, and b P c for some c in C, so
    a P c and A near C.  If x P y and y P z, then L5 with A = {x},
    B = {y}, C = {z} gives {x} near {z}, that is x P z.

    When P is not transitive, the witness is ({i}, {j}, {c}), for (i, j)
    as in :func:`_first_unclosed` and c the lowest point of P[j] - P[i].
    A row A with R(R(A)) = R(A) holds no violation: B near A has a point
    b in R(A), C near {b} a point c in R(b), inside R(R(A)) = R(A), so A
    near C.  So the first row with one is A = {i}, where R(A) = P[i].
    There, (B, C) violates exactly when B meets P[i], C meets P[b] for
    every b in B, and C misses P[i].  A point b of B in P[i] then has P[b]
    outside P[i], so b is at least j and B at least {j}; ({j}, C) violates
    exactly when C meets P[j] - P[i], and the smallest such C is {c}.
    """
    found = _l1_l4_violations(rel, max_size)
    points = rel.point_graph
    if points is None:
        found["L5"] = first_chain_violation(rel.rows, _singleton_row_meet(rel))
    else:
        found["L5"] = _first_unclosed(points)["L5"]
    return AxiomReport.from_witnesses(found)


def _separating_cols(rows: Sequence[int]) -> list[int]:
    """For each mask B, the set of K whose complement is far B (as a bitset),
    read off the transposed table."""
    everything = (1 << len(rows)) - 1
    # row full ^ k of the table is row k of rows[::-1]
    return [everything ^ col for col in transpose(rows[::-1])]


def _first_unseparated(rows: Sequence[int]) -> tuple[int, int] | None:
    """The first far pair (a, b), a outermost, that no K separates: the first
    with ``~rows[a] & cols[b]`` empty (see :func:`check_efremovic`)."""
    everything = (1 << len(rows)) - 1
    cols = _separating_cols(rows)
    for a, row in enumerate(rows):
        for b in bits(everything ^ row):
            if not cols[b] & ~row:
                return a, b
    return None


def check_efremovic(rel: ProximityRelation, *, max_size: int = SCAN_CAP) -> AxiomReport:
    """L1-L4 plus EF: each far pair admits a separating subset K.

    When EF fails, the witness is the first far pair, a outermost, that no
    K separates.

    On any table, K separates the far pair (A, B) when A far K and
    (carrier - K) far B.  With ``cols[B]`` the set of K whose complement is
    far B (:func:`_separating_cols`), the separating K are
    ``~rows[A] & cols[B]``, and there is none when it is 0.  That is one
    big-int operation per far pair, and the scan stops at the first far
    pair with none.

    On a Cech table with point relation P the verdict comes from P.  Write
    R(B) for the union of P over B.  A far K exactly when K misses R(A), and
    (carrier - K) far B exactly when K contains R(B) (P is symmetric), so
    the separating K of a far pair are the masks from R(B) up to
    carrier - R(A), and there is one exactly when R(A) and R(B) are
    disjoint.  A far pair (A, B) has B outside R(A); if R(R(A)) = R(A)
    and z lay in both, the b in B with b P z would lie in R(R(A)) = R(A),
    so the pair is separated.  So EF holds exactly when P is
    transitive, and then the numerically smallest separating mask is R(B)
    itself.  If x P y and y P z but not x P z, no K separates {x} from
    {z}: K containing y is near {x}, and K missing y leaves y, which is
    near {z}, in the complement.

    When P is not transitive, the witness is ({i}, {y}), for i as in
    :func:`_first_unclosed` and y the lowest point of R(P[i]) - P[i].  Rows
    A with R(R(A)) = R(A) hold no unseparated far pair, so the first row
    with one is A = {i}, where R(A) = P[i].  There a far B is unseparated
    exactly when R(B) meets P[i], that is when B meets R(P[i]); it misses
    P[i], so the smallest such B is {y}.
    """
    found = _l1_l4_violations(rel, max_size)
    points = rel.point_graph
    if points is None:
        found["EF"] = _first_unseparated(rel.rows)
    else:
        found["EF"] = _first_unclosed(points)["EF"]
    return AxiomReport.from_witnesses(found)


def ef_separators(rel: ProximityRelation) -> dict[tuple[int, int], int] | None:
    """The smallest K separating each far pair (A, B), keyed in scan order
    (A outermost, then B ascending), or None when some far pair has no
    separating K, that is when EF fails.

    The smallest separating K is the lowest bit of ``~rows[A] & cols[B]``
    (see :func:`check_efremovic`); on a Cech table with a transitive point
    relation P it is the union of P over B.  The map has one entry per far
    pair, up to 4^n of them; the checks decide EF without it.
    """
    rows = rel.rows
    everything = (1 << len(rows)) - 1
    cols = _separating_cols(rows)
    separators: dict[tuple[int, int], int] = {}
    for a, row in enumerate(rows):
        for b in bits(everything ^ row):
            separating = cols[b] & ~row
            if not separating:
                return None
            separators[(a, b)] = (separating & -separating).bit_length() - 1
    return separators


def closure(rel: ProximityRelation, b: int) -> int:
    """Points whose singleton is near B (the closure of B under the relation)."""
    rel.space.check_mask(b)
    out = 0
    for i in range(rel.space.size):
        if (rel.rows[1 << i] >> b) & 1:
            out |= 1 << i
    return out


def closure_table(rel: ProximityRelation) -> tuple[int, ...]:
    """Closure of every subset, indexed by mask.

    On a Cech table with point relation P, {y} near B iff y P b for some b
    in B, so by the symmetry of P the closure of B is the union of P over B.
    """
    points = rel.point_graph
    if points is not None:
        return tuple(union_table(points))
    return tuple(closure(rel, b) for b in range(rel.space.n_subsets))


def check_kuratowski(rel: ProximityRelation, *, max_size: int = SCAN_CAP) -> AxiomReport:
    """K1 cl(empty)=empty, K2 B<=clB, K3 cl(A|B)=clA|clB, K4 idempotence.

    On a Cech table with point relation P, cl(B) is the union of P over B
    (see :func:`closure_table`): K1 and K3 hold for any such union, K2 by
    reflexivity.  K4 holds exactly when P is transitive: then cl(B) is a
    union of classes and closed; if x P y and y P z but not x P z, then y
    is in cl({z}) and x in cl(cl({z})) but not in cl({z}).  Its witness
    is the first B with cl(cl(B)) != cl(B), which is {i} for i as in
    :func:`_first_unclosed`.  Any other table is scanned for K1-K4, K3
    over every pair of masks.
    """
    points = rel.point_graph
    if points is not None:
        return AxiomReport.from_witnesses(
            {"K1": None, "K2": None, "K3": None, "K4": _first_unclosed(points)["K4"]}
        )
    require_scan_size(rel.space.size, max_size, "Kuratowski pair")
    cl = closure_table(rel)
    subsets = range(rel.space.n_subsets)
    return AxiomReport.from_witnesses({
        "K1": (0,) if cl[0] else None,
        "K2": next(((b,) for b in subsets if b & ~cl[b]), None),
        "K3": next(
            ((a, b) for a in subsets for b in subsets if cl[a | b] != cl[a] | cl[b]),
            None,
        ),
        "K4": next(((b,) for b in subsets if cl[cl[b]] != cl[b]), None),
    })


@dataclass(frozen=True)
class TopologySnapshot:
    """Closed/open families of the closure operator induced by a relation.

    ``kuratowski`` is the :func:`check_kuratowski` report of the closure
    operator; ``is_topology`` says whether the closed family holds the empty
    set and the carrier and is closed under pairwise union and intersection
    (always so on a Cech table, see :func:`induced_topology`).  The
    snapshot is returned even when the families fail to form a topology.
    """

    space: FiniteSpace
    closed_sets: tuple[int, ...]
    open_sets: tuple[int, ...]
    kuratowski: AxiomReport
    is_topology: bool

    @property
    def kuratowski_ok(self) -> bool:
        """Whether the closure operator is a genuine Kuratowski operator."""
        return self.kuratowski.ok


def induced_topology(rel: ProximityRelation, *, max_size: int = SCAN_CAP) -> TopologySnapshot:
    """Fixed points of the closure operator, with their complements as opens.

    On a Cech table cl(B) = R(B), the union of P over B (see
    :func:`closure_table`), and its fixed points always form a topology, so
    the closed-family pair check is skipped: R(empty) = empty; X <= R(X) by
    reflexivity, so X is fixed; R(A|B) = R(A)|R(B) = A|B for fixed A and B;
    and A&B <= R(A&B) <= R(A)&R(B) = A&B, by reflexivity and because R is
    monotone.  Any other table is checked over every pair of closed sets.
    """
    cl = closure_table(rel)
    full = rel.space.full_mask
    closed = tuple(b for b in range(rel.space.n_subsets) if cl[b] == b)
    opens = tuple(sorted(full ^ c for c in closed))
    if rel.point_graph is not None:
        is_topology = True
    else:
        require_scan_size(rel.space.size, max_size, "closed-family pair")
        closed_set = set(closed)
        is_topology = (
            0 in closed_set
            and full in closed_set
            and all(a | b in closed_set and a & b in closed_set for a in closed for b in closed)
        )
    report = check_kuratowski(rel, max_size=max_size)
    return TopologySnapshot(rel.space, closed, opens, report, is_topology)

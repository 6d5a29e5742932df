"""Finite carriers and subset-mask algebra.

Subsets of a carrier are plain ints: bit ``i`` set means element ``i`` is a
member.  Mask ``0`` is the empty subset.  Everything downstream (relations,
axiom checkers, group subset algebra) works on these masks, so the bit order
is part of the on-disk format: bit ``i`` always refers to ``labels[i]``.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Hashable, Iterable, Iterator, Sequence, TypeVar

MAX_CARRIER = 12

T = TypeVar("T")

_LETTERS = "abcdefghijkl"


@dataclass(frozen=True)
class FiniteSpace:
    """An ordered carrier of distinct element labels (1 to 12 elements)."""

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if not 1 <= len(self.labels) <= MAX_CARRIER:
            raise ValueError(
                f"carrier size must be between 1 and {MAX_CARRIER}, got {len(self.labels)}"
            )
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("carrier labels must be distinct")

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def n_subsets(self) -> int:
        return 1 << len(self.labels)

    @property
    def full_mask(self) -> int:
        return (1 << len(self.labels)) - 1

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(f"unknown element label {label!r}") from None

    def mask_of(self, labels: Iterable[str]) -> int:
        mask = 0
        for label in labels:
            mask |= 1 << self.index_of(label)
        return mask

    def label_set(self, mask: int) -> tuple[str, ...]:
        """Labels of a subset mask, in carrier order."""
        self.check_mask(mask)
        return tuple(self.labels[i] for i in bits(mask))

    def format_mask(self, mask: int) -> str:
        return "{" + ",".join(self.label_set(mask)) + "}"

    def check_mask(self, mask: int) -> int:
        if not 0 <= mask <= self.full_mask:
            raise ValueError(f"mask {mask} out of range for carrier of size {self.size}")
        return mask

    def subsets(self) -> range:
        return range(self.n_subsets)


def bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def union_table(images: Sequence[int]) -> list[int]:
    """``table[mask]`` = union of ``images[i]`` over the members i of mask,
    for every mask over ``len(images)`` elements."""
    table = [0] * (1 << len(images))
    for mask in range(1, len(table)):
        low = mask & -mask
        table[mask] = table[mask ^ low] | images[low.bit_length() - 1]
    return table


def union_over(rows: Sequence[int], mask: int) -> int:
    """Union of ``rows[i]`` over the members i of mask: one entry,
    ``union_table(rows)[mask]``, with no table built."""
    out = 0
    for i in bits(mask):
        out |= rows[i]
    return out


def image(images: Sequence[int], mask: int) -> int:
    """Mask of ``images[i]`` over the members i of mask: the image of the
    subset under the element map ``images``."""
    out = 0
    for i in bits(mask):
        out |= 1 << images[i]
    return out


@lru_cache(maxsize=None)
def meeting_table(n: int) -> tuple[int, ...]:
    """``table[c]`` = bitset over the 2^n masks of those that meet mask c.

    Row ``c`` of the discrete relation on n elements; built once per size.
    """
    m = 1 << n
    containing = [sum(1 << b for b in range(m) if (b >> j) & 1) for j in range(n)]
    return tuple(union_table(containing))


@lru_cache(maxsize=None)
def _swap_steps(m: int) -> tuple[tuple[int, int], ...]:
    """(delta, mask) per block size s = m/2, m/4, ..., 1 for :func:`transpose`.

    The mask selects the bits (r, c), at position r*m + c, with bit s clear
    in r and set in c; each is swapped with (r + s, c - s), delta = s*(m - 1)
    positions higher.
    """
    steps = []
    s = m >> 1
    while s:
        column = sum(1 << c for c in range(m) if c & s)
        mask = sum(column << (r * m) for r in range(m) if not r & s)
        steps.append((s * (m - 1), mask))
        s >>= 1
    return tuple(steps)


def transpose(rows: Sequence[int]) -> list[int]:
    """``out[c]`` = bitset of the r with bit c set in ``rows[r]``.

    ``rows`` is a square bitset table whose length m is a power of two.  The
    table is packed into one m*m-bit int and transposed in log2(m) rounds of
    delta swaps, each exchanging the off-diagonal blocks of every aligned
    2s x 2s block (Hacker's Delight, section 7-3): O(m^2 log m) bit work in
    a handful of big-int operations, against m^2 single-bit tests.
    """
    m = len(rows)
    packed = 0
    for row in reversed(rows):
        packed = (packed << m) | row
    for delta, mask in _swap_steps(m):
        t = ((packed >> delta) ^ packed) & mask
        packed ^= t ^ (t << delta)
    everything = (1 << m) - 1
    return [(packed >> (r * m)) & everything for r in range(m)]


def memo(obj, key: Hashable, build: Callable[[], T]) -> T:
    """``build()``, stored under ``key`` in the ``_derived`` dict of the
    immutable object ``obj`` that the result is derived from.

    The first call for a key runs ``build`` with every validation in it; a
    build that raises stores nothing.  Later calls return the stored object
    itself.  The dict lives and dies with ``obj``.
    """
    derived = obj._derived
    if key not in derived:
        derived[key] = build()
    return derived[key]


def default_space(n: int) -> FiniteSpace:
    """Carrier with letter labels a, b, c, ... (n <= 12)."""
    if not 1 <= n <= MAX_CARRIER:
        raise ValueError(f"carrier size must be between 1 and {MAX_CARRIER}, got {n}")
    return FiniteSpace(tuple(_LETTERS[:n]))


def product_space(s1: FiniteSpace, s2: FiniteSpace) -> FiniteSpace:
    """Carrier of pairs; element (i, j) gets index i * s2.size + j."""
    labels = tuple(
        f"({l1},{l2})" for l1 in s1.labels for l2 in s2.labels
    )
    return FiniteSpace(labels)


def rectangle_mask(s1: FiniteSpace, s2: FiniteSpace, mask1: int, mask2: int) -> int:
    """Product-carrier mask of the rectangle mask1 x mask2."""
    out = 0
    for i in bits(mask1):
        out |= mask2 << (i * s2.size)
    return out


def split_rectangle(s1: FiniteSpace, s2: FiniteSpace, mask: int) -> tuple[int, int]:
    """Decompose a product-carrier mask into factors, or raise if non-rectangle.

    The empty mask decomposes canonically as (0, 0).
    """
    if mask == 0:
        return 0, 0
    row_full = s2.full_mask
    mask1 = 0
    mask2 = 0
    for i in range(s1.size):
        row = (mask >> (i * s2.size)) & row_full
        if row:
            mask1 |= 1 << i
            mask2 |= row
    if rectangle_mask(s1, s2, mask1, mask2) != mask:
        raise ValueError(f"non-rectangle subset mask {mask} over product carrier")
    return mask1, mask2

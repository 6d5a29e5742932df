import random

import pytest
from hypothesis import given, strategies as st

from proxikit import FiniteSpace, bits, default_space, product_space
from proxikit.spaces import MAX_CARRIER, _scan_bits, image, union_over, union_table


def test_default_space_letters():
    s = default_space(3)
    assert s.labels == ("a", "b", "c")
    assert s.size == 3
    assert s.n_subsets == 8
    assert s.full_mask == 7


def test_subspace_and_quotient_carriers():
    s = default_space(4)
    assert s.subspace(0b1010).labels == ("b", "d")
    assert s.quotient((0b0101, 0b1010)).labels == ("a|c", "b|d")
    assert s.quotient((0b1111,)).subspace(1).labels == ("a|b|c|d",)


def test_size_bounds():
    with pytest.raises(ValueError):
        FiniteSpace(())
    with pytest.raises(ValueError):
        default_space(13)
    assert default_space(12).size == 12


def test_labels_distinct():
    with pytest.raises(ValueError):
        FiniteSpace(("a", "a"))


def test_mask_roundtrip():
    s = default_space(4)
    assert s.label_set(0b0101) == ("a", "c")
    assert s.format_mask(0) == "{}"
    assert s.format_mask(0b1010) == "{b,d}"
    with pytest.raises(ValueError):
        s.check_mask(16)


@given(st.integers(min_value=0, max_value=(1 << 12) - 1))
def test_bits_reconstructs_mask(mask):
    assert sum(1 << i for i in bits(mask)) == mask
    assert list(bits(mask)) == sorted(bits(mask))


def _set_bits(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if (mask >> i) & 1)


def test_bits_table_equals_the_scan():
    # every carrier mask is read from the table, built once and kept;
    # a wider mask, such as a table row, is scanned
    rng = random.Random(4096)
    wide = [rng.getrandbits(rng.randrange(13, 4097)) for _ in range(200)] + [1 << 4096]
    for mask in [*range(1 << MAX_CARRIER), *wide]:
        found = tuple(bits(mask))
        assert found == tuple(_scan_bits(mask)) == _set_bits(mask), mask
    for mask in range(1 << MAX_CARRIER):
        assert bits(mask) is bits(mask)
    assert not isinstance(bits(1 << MAX_CARRIER), tuple)


def test_product_space_indexing():
    s1, s2 = default_space(2), default_space(3)
    p = product_space(s1, s2)
    assert p.size == 6
    assert p.labels[0] == "(a,a)"
    assert p.labels[1 * 3 + 2] == "(b,c)"


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
def test_image_and_union_over_match_their_definitions(n):
    rng = random.Random(n)
    for _ in range(8):
        images = [rng.randrange(n) for _ in range(n)]
        rows = [rng.randrange(1 << n) for _ in range(n)]
        table = union_table(rows)
        for mask in range(1 << n):
            members = [i for i in range(n) if (mask >> i) & 1]
            assert image(images, mask) == sum(1 << y for y in {images[i] for i in members})
            covered = {x for i in members for x in range(n) if (rows[i] >> x) & 1}
            assert union_over(rows, mask) == sum(1 << x for x in covered) == table[mask]

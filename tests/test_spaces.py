import random

import pytest
from hypothesis import given, strategies as st

from proxikit import FiniteSpace, bits, default_space, product_space
from proxikit.spaces import image, rectangle_mask, split_rectangle, union_over, union_table


def test_default_space_letters():
    s = default_space(3)
    assert s.labels == ("a", "b", "c")
    assert s.size == 3
    assert s.n_subsets == 8
    assert s.full_mask == 7


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
    assert s.mask_of(["a", "c"]) == 0b0101
    assert s.label_set(0b0101) == ("a", "c")
    assert s.format_mask(0) == "{}"
    assert s.format_mask(0b1010) == "{b,d}"
    with pytest.raises(ValueError):
        s.mask_of(["z"])
    with pytest.raises(ValueError):
        s.check_mask(16)


@given(st.integers(min_value=0, max_value=(1 << 12) - 1))
def test_bits_reconstructs_mask(mask):
    assert sum(1 << i for i in bits(mask)) == mask
    assert list(bits(mask)) == sorted(bits(mask))


def test_product_space_indexing():
    s1, s2 = default_space(2), default_space(3)
    p = product_space(s1, s2)
    assert p.size == 6
    assert p.labels[0] == "(a,a)"
    assert p.labels[1 * 3 + 2] == "(b,c)"


def test_rectangle_mask_and_split():
    s1, s2 = default_space(2), default_space(3)
    m = rectangle_mask(s1, s2, 0b11, 0b001)
    assert split_rectangle(s1, s2, m) == (0b11, 0b001)
    assert split_rectangle(s1, s2, 0) == (0, 0)


def test_split_rejects_non_rectangle():
    s1, s2 = default_space(2), default_space(2)
    # {(a,a), (b,b)} is not a rectangle
    diag = 0b1001
    with pytest.raises(ValueError, match="non-rectangle"):
        split_rectangle(s1, s2, diag)


@given(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=7),
)
def test_rectangle_split_inverts_mask(m1, m2):
    s1, s2 = default_space(2), default_space(3)
    m = rectangle_mask(s1, s2, m1, m2)
    got1, got2 = split_rectangle(s1, s2, m)
    if m1 and m2:
        assert (got1, got2) == (m1, m2)
    else:
        assert m == 0 and (got1, got2) == (0, 0)



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

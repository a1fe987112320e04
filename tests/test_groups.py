import numpy as np
import pytest

from fspt import (
    all_z2_homs,
    cyclic,
    dihedral,
    direct_product,
    klein,
    quaternion8,
    validate_group,
    validate_hom_z2,
)
from fspt.errors import NoIdentity, NoInverse, NotAssociative, NotHomomorphism


def test_z2_table():
    g = validate_group([[0, 1], [1, 0]])
    assert g.identity == 0
    assert g.inv(1) == 1


def test_klein_has_three_involutions():
    g = klein()
    assert g.n == 4
    involutions = [a for a in g.elements() if a != g.identity and g.mul(a, a) == g.identity]
    assert len(involutions) == 3


def test_no_inverse_detected():
    with pytest.raises(NoInverse):
        validate_group([[0, 1], [1, 1]])


def test_not_associative_detected():
    # a "random" Latin square that is not a group table
    with pytest.raises((NotAssociative, NoInverse)):
        validate_group([[0, 1, 2], [1, 2, 0], [2, 1, 0]])


def test_stock_groups_validate():
    for g, order in [
        (cyclic(5), 5),
        (dihedral(3), 6),
        (dihedral(4), 8),
        (quaternion8(), 8),
        (direct_product(cyclic(2), cyclic(4)), 8),
    ]:
        assert g.n == order
        # spot check associativity was certified: (ab)c == a(bc) for a sample
        assert g.mul(g.mul(1, 2), 3) == g.mul(1, g.mul(2, 3))


def test_hom_validation():
    z2 = cyclic(2)
    assert validate_hom_z2(z2, [0, 1])(1) == 1
    assert validate_hom_z2(z2, [0, 0]).is_trivial
    z3 = cyclic(3)
    with pytest.raises(NotHomomorphism):
        validate_hom_z2(z3, [0, 1, 0])


def test_hom_counts():
    assert len(all_z2_homs(cyclic(2))) == 2
    assert len(all_z2_homs(cyclic(3))) == 1
    assert len(all_z2_homs(klein())) == 4
    assert len(all_z2_homs(dihedral(4))) == 4
    assert len(all_z2_homs(quaternion8())) == 4


def test_no_inverse_names_first_element_without_one():
    # Z2 with an absorbing zero adjoined: element 1 is invertible, element 2 is not
    with pytest.raises(NoInverse, match="element 2 has"):
        validate_group([[0, 1, 2], [1, 0, 2], [2, 2, 2]])


def test_homs_match_brute_force_in_mask_order():
    stock = [cyclic(n) for n in range(1, 13)] + [dihedral(n) for n in range(2, 7)] + [
        klein(),
        quaternion8(),
        direct_product(cyclic(2), cyclic(4)),
        direct_product(klein(), cyclic(2)),
        direct_product(cyclic(2), cyclic(6)),
        direct_product(cyclic(3), klein()),
        direct_product(cyclic(2), dihedral(3)),
    ]
    for g in stock:
        # every value table, in increasing mask sum_g v_g 2^g, kept if a homomorphism
        v = (np.arange(1 << g.n)[:, None] >> np.arange(g.n)) & 1
        v = v[(v[:, g.table] == (v[:, :, None] + v[:, None, :]) % 2).all(axis=(1, 2))]
        assert np.array_equal([h.values for h in all_z2_homs(g)], v)


def test_hom_addition():
    v4 = klein()
    homs = all_z2_homs(v4)
    for q1 in homs:
        for q2 in homs:
            s = q1.plus(q2)
            assert any(s.same_as(h) for h in homs)


@pytest.mark.parametrize(
    "table", [[[0, 1.5], [1, 0]], [["0", "1"], ["1", "0"]], [["a", "1"], ["1", "0"]], [[0, 1], [1]]]
)
def test_non_integral_or_ragged_table_is_rejected(table):
    """Entries are not truncated or parsed from strings: NoIdentity instead."""
    with pytest.raises(NoIdentity, match="rectangular array of integers"):
        validate_group(table)


@pytest.mark.parametrize("values", [[0, 2], [0, -1], [2, 0]])
def test_hom_values_outside_z2_are_rejected(values):
    with pytest.raises(NotHomomorphism, match=r"values must lie in \{0, 1\}"):
        validate_hom_z2(cyclic(2), values)


@pytest.mark.parametrize("values", [[0.5, 0], ["0", "1"], ["x", 0], [[0], 1]])
def test_non_integral_hom_values_are_rejected(values):
    with pytest.raises(NotHomomorphism, match="rectangular array of integers"):
        validate_hom_z2(cyclic(2), values)

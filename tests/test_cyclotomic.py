"""Cyclotomic integers Z[zeta_m] in canonical reduced form.

The cyclotomic polynomials are cross-checked against hand-known
coefficient lists and against the product identity x^m - 1 = prod Phi_d.
"""

from operator import sub

import pytest
from hypothesis import given, settings, strategies as st

from groupdual import CycInt, cyclotomic_poly, root_power
from groupdual.cyclotomic import CycPoly, _reduce, power_height

KNOWN_PHI = {
    1: (-1, 1),
    2: (1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    5: (1, 1, 1, 1, 1),
    6: (1, -1, 1),
    8: (1, 0, 0, 0, 1),
    9: (1, 0, 0, 1, 0, 0, 1),
    12: (1, 0, -1, 0, 1),
}


@pytest.mark.parametrize("m,coeffs", sorted(KNOWN_PHI.items()))
def test_cyclotomic_polynomials_known_coefficients(m, coeffs):
    assert cyclotomic_poly(m).coeffs == coeffs


@pytest.mark.parametrize("m", range(1, 65))
def test_cyclotomic_product_identity(m):
    prod = CycPoly((1,))
    for d in range(1, m + 1):
        if m % d == 0:
            prod = prod * cyclotomic_poly(d)
    assert prod.coeffs == (-1,) + (0,) * (m - 1) + (1,)


MODULI = st.sampled_from([2, 3, 4, 6, 8, 12])


def cyc_ints(m):
    deg = cyclotomic_poly(m).degree
    return st.lists(
        st.integers(min_value=-9, max_value=9), min_size=deg, max_size=deg
    ).map(lambda cs: CycInt(m, tuple(cs)))


@given(MODULI, st.data())
@settings(max_examples=80, deadline=None)
def test_ring_axioms(m, data):
    x = data.draw(cyc_ints(m))
    y = data.draw(cyc_ints(m))
    z = data.draw(cyc_ints(m))
    zero = CycInt.zero(m)
    one = CycInt.from_int(m, 1)
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert x + zero == x
    assert x + (-x) == zero
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * one == x
    assert x * (y + z) == x * y + x * z


@given(st.integers(min_value=1, max_value=40), st.data())
@settings(max_examples=120, deadline=None)
def test_reduce_is_a_residue_modulo_the_cyclotomic_polynomial(m, data):
    # Oracle: exact division.  The residue has deg Phi_m coefficients and
    # differs from the input by a multiple of Phi_m.
    coeffs = data.draw(
        st.lists(st.integers(min_value=-50, max_value=50), max_size=3 * m)
    )
    phi = cyclotomic_poly(m)
    got = _reduce(m, coeffs)
    assert len(got) == phi.degree
    n = max(len(coeffs), len(got))
    padded = [list(v) + [0] * (n - len(v)) for v in (coeffs, got)]
    CycPoly(tuple(map(sub, *padded))).divide_exact(phi)


def test_power_height_is_the_largest_coefficient_of_a_reduced_power():
    # Oracle: each x^r, r < m, reduced by `_reduce` on its own.
    heights = {}
    for m in range(1, 401):
        want = max(max(map(abs, _reduce(m, (0,) * r + (1,)))) for r in range(m))
        assert power_height(m) == want, m
        heights[m] = want
    assert {m for m, h in heights.items() if h > 1} >= {105, 165, 385}
    assert min(m for m, h in heights.items() if h > 1) == 105
    assert (heights[105], heights[385]) == (2, 3)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 8, 9, 12])
def test_primitive_root_has_order_m(m):
    z = root_power(m, 1)
    power = CycInt.from_int(m, 1)
    for k in range(1, m):
        power = power * z
        assert power == root_power(m, k)
        assert power != CycInt.from_int(m, 1)
    assert power * z == CycInt.from_int(m, 1)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 8, 9, 12])
def test_vanishing_sum_of_all_roots(m):
    total = CycInt.zero(m)
    for e in range(m):
        total = total + root_power(m, e)
    assert total.is_zero()


def test_canonical_equalities_in_z12():
    # zeta_12^4 is a primitive cube root: 1 + z^4 + z^8 = 0.
    one = CycInt.from_int(12, 1)
    assert one + root_power(12, 4) + root_power(12, 8) == CycInt.zero(12)
    assert root_power(12, 6) == CycInt.from_int(12, -1)


def test_divide_exact():
    x = CycInt(6, (4, 6))
    assert x.divide_exact(2) == CycInt(6, (2, 3))
    with pytest.raises(ValueError):
        x.divide_exact(4)
    with pytest.raises(ZeroDivisionError):
        x.divide_exact(0)


def test_as_int():
    assert CycInt.from_int(8, -7).as_int() == -7
    assert CycInt.zero(8).as_int() == 0
    with pytest.raises(ValueError):
        root_power(8, 1).as_int()


def test_mixed_moduli_forbidden():
    with pytest.raises(ValueError):
        root_power(4, 1) + root_power(8, 2)


def test_embedding_is_a_ring_map_and_matches_root_identity():
    # zeta_4 = zeta_12^3.
    i4 = root_power(4, 1)
    assert i4.embed(12) == root_power(12, 3)
    x, y = CycInt(4, (2, 3)), CycInt(4, (-1, 5))
    assert (x * y).embed(12) == x.embed(12) * y.embed(12)
    assert (x + y).embed(12) == x.embed(12) + y.embed(12)
    with pytest.raises(ValueError):
        i4.embed(6)

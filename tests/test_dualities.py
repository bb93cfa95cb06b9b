"""Dualities, adjoints, congruence, and the symmetric-count formula."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from groupdual import (
    adjoint,
    all_dualities,
    all_subgroups,
    canonical_duality,
    code_from_subgroup,
    congruence_classes,
    congruent,
    conjugate_duality,
    count_symmetric_invertible,
    duality_from_matrix,
    extend_duality,
    gl_order,
    inner_product_exponent,
    is_symmetric,
    left_dual,
    make_group,
    negation_duality,
    power_duality,
    power_witness,
    right_dual,
    same_duals_everywhere,
    symmetric_ratio,
)
from groupdual import dualities as dualities_module
from groupdual.codes import PowerGroup
from groupdual.dualities import (
    _conjugate_gram,
    _gram,
    _pairing_forms,
    _rows_from_gram,
)
from groupdual.groups import automorphism_group, identity_automorphism


def test_duality_count_equals_aut_count():
    for orders in ([2, 2], [2, 4], [3, 3], [8], [9]):
        A = make_group(orders)
        assert len(all_dualities(A)) == len(automorphism_group(A))


def test_inner_product_is_biadditive_and_nondegenerate():
    A = make_group([2, 4])
    for phi in all_dualities(A):
        m = A.exponent
        for a, b, c in product(list(A.elements())[:4], repeat=3):
            assert (
                inner_product_exponent(phi, a + b, c)
                == (
                    inner_product_exponent(phi, a, c)
                    + inner_product_exponent(phi, b, c)
                )
                % m
            )
        for a in A.elements():
            left_kernel = all(
                inner_product_exponent(phi, a, b) == 0 for b in A.elements()
            )
            assert left_kernel == a.is_zero()


FORM_GROUPS = st.sampled_from(
    [make_group(o) for o in ([2, 2], [2, 4], [4, 2], [3, 3], [8], [6], [2, 6])]
)


@given(FORM_GROUPS, st.integers(1, 3), st.data())
@settings(max_examples=60, deadline=None)
def test_pairing_forms_agree_with_inner_product_exponent(A, n, data):
    phi = data.draw(st.sampled_from(all_dualities(A)))
    spec = PowerGroup(A, n).spec
    ext = extend_duality(phi, n)
    word = st.builds(spec.element, st.tuples(*(st.integers(0, d - 1) for d in spec.orders)))
    cs = data.draw(st.lists(word, min_size=1, max_size=3))
    x = data.draw(word)
    m = A.exponent
    for left in (True, False):
        for duality in (phi, ext):
            forms = _pairing_forms(duality, [c.coords for c in cs], left)
            for c, f in zip(cs, forms):
                expected = (
                    inner_product_exponent(ext, x, c)
                    if left
                    else inner_product_exponent(ext, c, x)
                )
                assert sum(a * b for a, b in zip(f, x.coords)) % m == expected


CENSUS_GROUPS = (
    [2], [2, 2], [2, 4], [3, 3], [2, 8], [4, 4], [2, 2, 2], [2, 2, 3], [27]
)


def test_adjoint_defining_identity_exhaustively():
    for orders in CENSUS_GROUPS:
        A = make_group(orders)
        elements = list(A.elements())
        for phi in all_dualities(A):
            star = adjoint(phi)
            for a in elements:
                for b in elements:
                    assert inner_product_exponent(
                        star, a, b
                    ) == inner_product_exponent(phi, b, a)


@pytest.mark.parametrize("orders", [[2, 4], [257]])
def test_adjoint_rejects_a_corrupted_result(monkeypatch, orders):
    # |A| = 257 > 256: the identity is checked for every group size.
    A = make_group(orders)
    dualities = all_dualities(A)[:8]
    assert all(adjoint(adjoint(phi)) == phi for phi in dualities)
    build = dualities_module._duality_from_gram
    monkeypatch.setattr(
        dualities_module,
        "_duality_from_gram",
        lambda A, G: negation_duality(build(A, G)),
    )
    for phi in dualities:
        with pytest.raises(AssertionError, match="defining identity"):
            adjoint(phi)


def test_adjoint_is_an_involution():
    A = make_group([2, 4])
    for phi in all_dualities(A):
        assert adjoint(adjoint(phi)) == phi


@pytest.mark.parametrize("orders", CENSUS_GROUPS + ([2, 4, 4],))
def test_is_symmetric_agrees_with_the_adjoint(orders):
    symmetric = [phi for phi in all_dualities(make_group(orders)) if adjoint(phi) == phi]
    assert [phi for phi in all_dualities(make_group(orders)) if is_symmetric(phi)] == symmetric


@pytest.mark.parametrize("orders", CENSUS_GROUPS + ([2, 4, 4],))
def test_is_symmetric_matches_the_gram_matrix_definition(orders):
    # is_symmetric compares w_j tau_ij with w_i tau_ji entry by entry; the
    # definition is G = G^T for the whole Gram matrix.
    for phi in all_dualities(make_group(orders)):
        G = _gram(phi)
        assert is_symmetric(phi) == (G == tuple(zip(*G)))


def test_symmetric_iff_matrix_symmetric_on_elementary_abelian():
    for orders in ([2, 2], [3, 3], [2, 2, 2]):
        A = make_group(orders)
        for phi in all_dualities(A):
            mat = phi.tau.matrix
            mat_symmetric = all(
                mat[i][j] == mat[j][i]
                for i in range(A.rank)
                for j in range(A.rank)
            )
            assert is_symmetric(phi) == mat_symmetric


@pytest.mark.parametrize("m", [2, 3, 4, 5, 8, 9, 12, 16, 25, 30, 31, 32])
def test_every_duality_of_a_cyclic_group_is_symmetric(m):
    A = make_group([m])
    for phi in all_dualities(A):
        assert is_symmetric(phi)


def test_canonical_duality_is_symmetric_everywhere():
    for orders in ([2, 2], [2, 4], [3, 3], [6, 4]):
        assert is_symmetric(canonical_duality(make_group(orders)))


def test_conjugation_identity():
    for orders in ([2, 4], [3, 3], [2, 2, 2]):
        A = make_group(orders)
        elements = list(A.elements())
        auts = automorphism_group(A)
        for phi in all_dualities(A)[:3]:
            for tau in auts:
                conj = conjugate_duality(phi, tau)
                for a in elements:
                    for b in elements:
                        assert inner_product_exponent(
                            conj, a, b
                        ) == inner_product_exponent(phi, tau.apply(a), tau.apply(b))
    phi = canonical_duality(make_group([2, 4]))
    with pytest.raises(ValueError, match="different group"):
        conjugate_duality(phi, identity_automorphism(make_group([4, 2])))


def test_congruent_returns_a_valid_witness():
    # (2,2,2) has 168 dualities, so only the first few are taken as phi1.
    for orders, first in (([2, 2], 6), ([3, 3], 48), ([2, 2, 2], 4), ([4, 4], 96)):
        A = make_group(orders)
        dualities = all_dualities(A)
        class_of = {
            phi: i for i, cls in enumerate(congruence_classes(A)) for phi in cls
        }
        for phi1 in dualities[:first]:
            for phi2 in dualities:
                tau = congruent(phi1, phi2)
                assert (tau is not None) == (class_of[phi1] == class_of[phi2])
                if tau is not None:
                    assert conjugate_duality(phi1, tau) == phi2


def _brute_force_congruence_classes(A):
    """Oracle: orbits of the dualities under phi -> tau* o phi o tau, each
    conjugate identified by its exponents inner_product_exponent(phi, g_i tau,
    g_j tau) on generator pairs; classes sorted and ordered as documented."""
    gens = A.generators()
    dualities = all_dualities(A)

    def exponents(phi, tau):
        images = [tau.apply(g) for g in gens]
        return tuple(
            tuple(inner_product_exponent(phi, x, y) for y in images) for x in images
        )

    identity = identity_automorphism(A)
    by_exponents = {exponents(phi, identity): phi for phi in dualities}
    auts = automorphism_group(A)
    seen = set()
    classes = []
    for phi in dualities:
        if phi in seen:
            continue
        orbit = {by_exponents[exponents(phi, tau)] for tau in auts}
        seen |= orbit
        classes.append(sorted(orbit, key=lambda d: d.tau.matrix))
    return classes


@pytest.mark.parametrize(
    "orders",
    [[2, 2], [2, 4], [3, 3], [2, 8], [4, 4], [2, 2, 2], [2, 2, 3], [27], [2, 6]],
)
def test_congruence_classes_match_brute_force_orbits(orders):
    A = make_group(orders)
    assert congruence_classes(A) == _brute_force_congruence_classes(A)


def _gram_scan_congruence_classes(A):
    """Oracle: each class representative's Gram matrix conjugated by every
    automorphism, #classes x |Aut| products S G S^T mod m."""
    dualities = all_dualities(A)
    index = {phi.tau.matrix: i for i, phi in enumerate(dualities)}
    m = A.exponent
    assigned = [False] * len(dualities)
    classes = []
    for i, phi in enumerate(dualities):
        if assigned[i]:
            continue
        G = _gram(phi)
        grams = {_conjugate_gram(G, S, m) for S in index}
        orbit = [index[mat] for mat in sorted(_rows_from_gram(A, H) for H in grams)]
        for j in orbit:
            assigned[j] = True
        classes.append([dualities[j] for j in orbit])
    return classes


@pytest.mark.parametrize(
    "orders",
    [[2], [2, 2], [2, 4], [3, 3], [2, 8], [4, 4], [2, 2, 2], [2, 2, 3], [27],
     [3, 3, 3], [2, 2, 6], [6, 6], [2, 12], [4, 8], [5, 5]],
)
def test_congruence_classes_match_the_gram_scan(orders):
    A = make_group(orders)
    assert congruence_classes(A) == _gram_scan_congruence_classes(A)


def test_klein_congruence_classes():
    sizes = sorted(len(c) for c in congruence_classes(make_group([2, 2])))
    assert sizes == [1, 2, 3]


def test_f9_congruence_classes():
    sizes = sorted(len(c) for c in congruence_classes(make_group([3, 3])))
    assert sizes == [2, 6, 8, 8, 12, 12]


def test_adjoint_congruent_to_self_on_f9():
    A = make_group([3, 3])
    for phi in all_dualities(A):
        assert congruent(phi, adjoint(phi)) is not None


def test_negation_pairing_on_f9():
    # phi_2 (tau = [[1,1],[0,1]]) and phi_5 (tau = [[2,2],[0,2]]) satisfy
    # phi_2 congruent to the negation of phi_5.
    A = make_group([3, 3])
    phi2 = duality_from_matrix(A, [[1, 1], [0, 1]])
    phi5 = duality_from_matrix(A, [[2, 2], [0, 2]])
    assert congruent(phi2, negation_duality(phi5)) is not None
    assert same_duals_everywhere(phi2, phi5)


def _duals_agree_everywhere_oracle(phi1, phi2):
    """Oracle: compare left and right duals on every subgroup directly."""
    A = phi1.parent
    for H in all_subgroups(A):
        CH = code_from_subgroup(A, 1, H)
        if left_dual(CH, phi1) != left_dual(CH, phi2):
            return False
        if right_dual(CH, phi1) != right_dual(CH, phi2):
            return False
    return True


@pytest.mark.parametrize("orders", [[2, 4], [3, 3], [8], [9]])
def test_same_duals_criterion_matches_exhaustive_oracle(orders):
    A = make_group(orders)
    dualities = all_dualities(A)
    base = dualities[0]
    for phi in dualities:
        assert same_duals_everywhere(base, phi) == _duals_agree_everywhere_oracle(
            base, phi
        )


def test_power_duality_identity():
    A = make_group([3, 3])
    phi = all_dualities(A)[5]
    m = 2
    powered = power_duality(phi, m)
    for a in A.elements():
        for b in A.elements():
            assert (
                inner_product_exponent(powered, a, b)
                == (m * inner_product_exponent(phi, a, b)) % A.exponent
            )
    assert power_witness(phi, powered) in (1, 2)
    with pytest.raises(ValueError):
        power_duality(phi, 3)


def _brute_force_symmetric_invertible(n, q):
    """Oracle: count symmetric invertible matrices over F_q directly."""
    A = make_group([q] * n) if n > 1 else make_group([q])
    count = 0
    upper_slots = n * (n + 1) // 2
    for entries in product(range(q), repeat=upper_slots):
        mat = [[0] * n for _ in range(n)]
        it = iter(entries)
        for i in range(n):
            for j in range(i, n):
                v = next(it)
                mat[i][j] = v
                mat[j][i] = v
        if _invertible_mod_prime(mat, q):
            count += 1
    return count


def _invertible_mod_prime(mat, p):
    n = len(mat)
    work = [row[:] for row in mat]
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col] % p), None)
        if pivot is None:
            return False
        work[col], work[pivot] = work[pivot], work[col]
        inv = pow(work[col][col], -1, p)
        work[col] = [(x * inv) % p for x in work[col]]
        for r in range(col + 1, n):
            f = work[r][col]
            if f:
                work[r] = [(x - f * y) % p for x, y in zip(work[r], work[col])]
    return True


@pytest.mark.parametrize(
    "n,q", [(1, 2), (2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (2, 5)]
)
def test_symmetric_invertible_count_formula(n, q):
    assert count_symmetric_invertible(n, q) == _brute_force_symmetric_invertible(n, q)


def test_symmetric_counts_known_values():
    assert count_symmetric_invertible(3, 2) == 28
    assert gl_order(3, 2) == 168
    assert symmetric_ratio(3, 2) == Fraction(1, 6)
    assert symmetric_ratio(2, 2) == Fraction(2, 3)


def test_symmetric_duality_census_matches_formula_on_elementary_abelian():
    for n, q in [(2, 2), (2, 3), (3, 2)]:
        A = make_group([q] * n)
        sym = sum(is_symmetric(phi) for phi in all_dualities(A))
        assert sym == count_symmetric_invertible(n, q)

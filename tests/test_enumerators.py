"""Weight enumerators, MacWilliams transforms, Fourier and Poisson."""

import random

import pytest

from groupdual import (
    CycInt,
    all_dualities,
    all_subgroups,
    code_from_generators,
    code_from_subgroup,
    cwe,
    hwe,
    left_dual,
    make_group,
    mw_complete_transform,
    mw_hamming_transform,
    right_dual,
)
from groupdual.codes import PowerGroup
from groupdual.cyclotomic import root_power
from groupdual.dualities import inner_product_exponent
from groupdual.enumerators import (
    CompleteEnumerator,
    NonIntegralError,
    complete_value_function,
    fourier_inverse_check,
    hamming_weight,
    poisson_check,
)


def test_hwe_basics():
    A = make_group([2, 2])
    C = code_from_generators(A, 2, [PowerGroup(A, 2).word([A.element([1, 1]), A.element([1, 0])])])
    E = hwe(C)
    assert E.coeffs == (1, 0, 1)
    assert E.total == C.order


def test_cwe_specializes_to_hwe():
    A = make_group([2, 4])
    for H in all_subgroups(A):
        C = code_from_subgroup(A, 1, H)
        assert cwe(C).hamming_specialization() == hwe(C)
    P = PowerGroup(A, 2)
    C2 = code_from_generators(
        A, 2, [P.word([A.element([1, 2]), A.element([0, 1])])]
    )
    assert cwe(C2).hamming_specialization() == hwe(C2)


def test_hamming_weight():
    A = make_group([3, 3])
    P = PowerGroup(A, 3)
    w = P.word([A.element([0, 0]), A.element([1, 0]), A.element([2, 2])])
    assert hamming_weight(P, w) == 2


@pytest.mark.parametrize("orders,n", [([2, 2], 1), ([2, 2], 2), ([2, 4], 1), ([3, 3], 1), ([8], 1)])
def test_hamming_macwilliams_both_orientations(orders, n):
    A = make_group(orders)
    spec = PowerGroup(A, n).spec
    for H in all_subgroups(spec):
        C = code_from_subgroup(A, n, H)
        for phi in all_dualities(A)[:4]:
            for dual in (left_dual(C, phi), right_dual(C, phi)):
                # dual enumerator from code enumerator ...
                assert (
                    mw_hamming_transform(hwe(C), A.cardinality, C.order)
                    == hwe(dual)
                )
                # ... and code enumerator back from dual enumerator.
                assert (
                    mw_hamming_transform(hwe(dual), A.cardinality, dual.order)
                    == hwe(C)
                )


@pytest.mark.parametrize("orders", [[2, 2], [2, 4], [3, 3]])
def test_complete_macwilliams_all_orientations(orders):
    A = make_group(orders)
    for H in all_subgroups(A):
        C = code_from_subgroup(A, 1, H)
        for phi in all_dualities(A)[:6]:
            L, R = left_dual(C, phi), right_dual(C, phi)
            assert mw_complete_transform(cwe(C), phi, "left") == cwe(L)
            assert mw_complete_transform(cwe(C), phi, "right") == cwe(R)
            assert (
                mw_complete_transform(cwe(L), phi, "left", "code_from_dual")
                == cwe(C)
            )
            assert (
                mw_complete_transform(cwe(R), phi, "right", "code_from_dual")
                == cwe(C)
            )


def test_complete_macwilliams_orientation_matters_for_nonsymmetric():
    A = make_group([2, 2])
    phi = next(p for p in all_dualities(A) if p.tau.matrix == ((1, 1), (0, 1)))
    H = next(s for s in all_subgroups(A) if s.order == 2)
    C = code_from_subgroup(A, 1, H)
    L, R = left_dual(C, phi), right_dual(C, phi)
    assert L != R
    assert mw_complete_transform(cwe(C), phi, "left") == cwe(L)
    assert mw_complete_transform(cwe(C), phi, "left") != cwe(R)


def test_complete_macwilliams_length_two():
    A = make_group([2, 4])
    P = PowerGroup(A, 2)
    C = code_from_generators(
        A, 2, [P.word([A.element([1, 0]), A.element([0, 1])])]
    )
    phi = all_dualities(A)[2]
    assert mw_complete_transform(cwe(C), phi, "left") == cwe(left_dual(C, phi))


def test_non_integral_transform_is_an_error():
    # A fake "enumerator" whose total does not divide the transform.
    from groupdual.enumerators import HammingEnumerator

    fake = HammingEnumerator(1, (1, 2))
    with pytest.raises(NonIntegralError):
        mw_hamming_transform(fake, 4, 7)


def test_non_integral_complete_transform_is_an_error():
    # Three monomials, so the transform is divided by 3, which does not
    # divide the coefficients that come out over (2,2).
    A = make_group([2, 2])
    phi = all_dualities(A)[0]
    fake = CompleteEnumerator(
        A, 1, (((1, 0, 0, 0), 1), ((0, 1, 0, 0), 1), ((0, 0, 1, 0), 1))
    )
    for side in ("left", "right"):
        for direction in ("dual_from_code", "code_from_dual"):
            with pytest.raises(NonIntegralError):
                mw_complete_transform(fake, phi, side, direction)


# Phi(b, a) (True) or Phi(a, b) (False) for the substituted index b, per
# (direction, side); kept apart from the library's own table.
_REFERENCE_B_FIRST = {
    ("code_from_dual", "left"): True,
    ("code_from_dual", "right"): False,
    ("dual_from_code", "left"): False,
    ("dual_from_code", "right"): True,
}


def _reference_complete_transform(E, phi, side, direction):
    """The transform expanded in Z[zeta_m], one CycInt product and reduction
    per term: the reference for the group-ring expansion."""
    A = E.base
    b_first = _REFERENCE_B_FIRST[(direction, side)]
    m = A.exponent
    elements = list(A.elements())
    card = A.cardinality
    forms = [
        [
            root_power(
                m,
                inner_product_exponent(phi, b, a)
                if b_first
                else inner_product_exponent(phi, a, b),
            )
            for a in elements
        ]
        for b in elements
    ]
    acc = {}
    for counts, coeff in E.terms:
        poly = {(0,) * card: CycInt.from_int(m, 1)}
        for b_idx, mult in enumerate(counts):
            for _ in range(mult):
                nxt = {}
                for key, val in poly.items():
                    for a_idx in range(card):
                        new_key = list(key)
                        new_key[a_idx] += 1
                        tk = tuple(new_key)
                        term = val * forms[b_idx][a_idx]
                        nxt[tk] = nxt[tk] + term if tk in nxt else term
                poly = nxt
        for key, val in poly.items():
            scaled = val * coeff
            acc[key] = acc[key] + scaled if key in acc else scaled
    out = {}
    for key, val in acc.items():
        c = val.divide_exact(E.total).as_int()
        if c:
            out[key] = c
    return CompleteEnumerator(A, E.n, tuple(sorted(out.items())))


@pytest.mark.parametrize(
    "orders", [[2, 4], [3, 3], [8], [9], [5], [7], [2, 6]]
)
def test_complete_transform_matches_cycint_reference(orders):
    rng = random.Random(sum(orders) * 1000 + len(orders))
    A = make_group(orders)
    dualities = all_dualities(A)
    for n in (1, 2, 3):
        P = PowerGroup(A, n)
        if P.spec.cardinality > 512:
            continue
        for _ in range(3):
            gens = [
                P.spec.element([rng.randrange(d) for d in P.spec.orders])
                for _ in range(rng.randint(1, 2))
            ]
            C = code_from_generators(A, n, gens)
            phi = rng.choice(dualities)
            cases = [
                (cwe(C), "left", "dual_from_code"),
                (cwe(C), "right", "dual_from_code"),
                (cwe(left_dual(C, phi)), "left", "code_from_dual"),
                (cwe(right_dual(C, phi)), "right", "code_from_dual"),
            ]
            for E, side, direction in cases:
                assert mw_complete_transform(
                    E, phi, side, direction
                ) == _reference_complete_transform(E, phi, side, direction)


def test_fourier_inversion_on_seeded_random_functions():
    rng = random.Random(20260823)
    for orders in ([2, 4], [3, 3]):
        A = make_group(orders)
        m = A.exponent
        for _ in range(5):
            f = {
                a.coords: {("k",): CycInt.from_int(m, rng.randint(-5, 5))}
                for a in A.elements()
            }
            assert fourier_inverse_check(A, f)


def test_poisson_summation_on_seeded_random_instances():
    rng = random.Random(99)
    for orders in ([2, 4], [3, 3], [8]):
        A = make_group(orders)
        m = A.exponent
        subs = all_subgroups(A)
        for _ in range(10):
            H = rng.choice(subs)
            f = {
                a.coords: {("k",): CycInt.from_int(m, rng.randint(-4, 4))}
                for a in A.elements()
            }
            assert poisson_check(H, f)


def test_poisson_with_complete_value_function_recovers_macwilliams():
    # Summing the complete value function over a code and over its dual via
    # Poisson gives an independent derivation of the MacWilliams identity.
    A = make_group([2, 2])
    P = PowerGroup(A, 1)
    fn = complete_value_function(P)
    for H in all_subgroups(A):
        f = {a.coords: fn(a) for a in A.elements()}
        assert poisson_check(H, f)

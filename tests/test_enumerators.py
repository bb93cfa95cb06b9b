"""Weight enumerators, MacWilliams transforms, Fourier and Poisson."""

import functools
import random
from collections import Counter
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from groupdual import (
    CycInt,
    all_dualities,
    all_subgroups,
    canonical_duality,
    code_from_generators,
    code_from_subgroup,
    cwe,
    hwe,
    is_symmetric,
    left_dual,
    make_group,
    mw_complete_transform,
    mw_hamming_transform,
    right_dual,
)
from groupdual.characters import Character, pairing_exponent
from groupdual.codes import PowerGroup
from groupdual.cyclotomic import _reduce, cyclotomic_poly, power_height, root_power
from groupdual.dualities import _pairing_forms, inner_product_exponent
from groupdual.groups import _coords
from groupdual.enumerators import (
    CompleteEnumerator,
    HammingEnumerator,
    NonIntegralError,
    _forward_follows,
    fourier_transform,
    hamming_weight,
    poisson_check,
)


def _count_key(power, coords, base_index):
    """Oracle for `cwe`'s keys: the count vector of a word, one loop over
    its blocks."""
    k = power.base.rank
    counts = [0] * len(base_index)
    for i in range(0, len(coords), k):
        counts[base_index[coords[i : i + k]]] += 1
    return tuple(counts)


# A value is a mapping monomial-key -> CycInt under pointwise addition.


def _value_add(u, v):
    out = dict(u)
    for k, c in v.items():
        prev = out.get(k)
        out[k] = c if prev is None else prev + c
    return out


def _value_scale(u, c):
    return {k: v * c for k, v in u.items()}


def _value_normalize(u):
    return {k: v for k, v in u.items() if not v.is_zero()}


def _object_fourier_transform(A, f):
    """Oracle: f-hat(pi) = sum_a <pi, a> f(a), one `Character`, checked
    `pairing_exponent` and `root_power` per pair (pi, a)."""
    m = A.exponent
    out = {}
    for pi_elem in A.elements():
        pi = Character(A, pi_elem.coords)
        total = {}
        for a in A.elements():
            val = f.get(a.coords)
            if not val:
                continue
            scalar = root_power(m, pairing_exponent(pi, a))
            total = _value_add(total, _value_scale(val, scalar))
        out[pi_elem.coords] = _value_normalize(total)
    return out


def _hamming_specialization(E):
    """Oracle: Z_0 -> X, Z_a -> Y for a != 0."""
    coeffs = [0] * (E.n + 1)
    for counts, c in E.terms:
        coeffs[E.n - counts[0]] += c
    return HammingEnumerator(E.n, tuple(coeffs))


def _fourier_inverse_check(A, f):
    """Oracle: f(a) = (1/|A|) sum_pi <pi, -a> f-hat(pi), checked exactly."""
    m = A.exponent
    fhat = fourier_transform(A, f)
    for a in A.elements():
        total = {}
        for pi_elem in A.elements():
            pi = Character(A, pi_elem.coords)
            scalar = root_power(m, pairing_exponent(pi, -a))
            total = _value_add(total, _value_scale(fhat[pi_elem.coords], scalar))
        recovered = {
            k: v.divide_exact(A.cardinality)
            for k, v in _value_normalize(total).items()
        }
        if recovered != _value_normalize(dict(f.get(a.coords, {}))):
            return False
    return True


def _complete_value_function(power):
    """Oracle: x -> prod_i Z_{x_i} as a value keyed by count vectors."""
    m = power.spec.exponent
    base_index = {a: i for i, a in enumerate(_coords(power.base))}
    return lambda x: {_count_key(power, x.coords, base_index): CycInt.from_int(m, 1)}


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
        assert _hamming_specialization(cwe(C)) == hwe(C)
    P = PowerGroup(A, 2)
    C2 = code_from_generators(
        A, 2, [P.word([A.element([1, 2]), A.element([0, 1])])]
    )
    assert _hamming_specialization(cwe(C2)) == hwe(C2)


@pytest.mark.parametrize(
    "orders, n", [((2, 4), 3), ((5,), 4), ((3, 3), 2), ((12,), 2), ((2,), 9), ((2,), 300)]
)
def test_cwe_matches_the_count_vector_oracle(orders, n):
    # cwe packs each word's count vector into one integer, one byte per
    # letter (two at n = 300); the oracle counts the letters of every word
    # one block at a time.
    from collections import Counter

    A = make_group(orders)
    power = PowerGroup(A, n)
    base_index = {a: i for i, a in enumerate(_coords(A))}
    rng = random.Random(n)
    for _ in range(4):
        words = [
            power.spec.element([rng.randrange(d) for d in power.spec.orders])
            for _ in range(rng.randint(1, 2))
        ]
        C = code_from_generators(A, n, words)
        want = Counter(_count_key(power, c, base_index) for c in C.subgroup.members)
        assert cwe(C).terms == tuple(sorted(want.items()))


@pytest.mark.parametrize(
    "orders, n", [((130,), 3), ((65, 2), 2), ((2, 2, 4), 5), ((7,), 1), ((2, 130), 2), ((17, 17), 1)]
)
def test_cwe_and_hwe_read_the_letters_of_any_slot_width(orders, n):
    # Letters are read from the packed members, in 8- or 16-bit slots, when
    # |A| <= 256, and from coordinate tuples above; both enumerators agree
    # with the count vectors and weights of the decoded members.
    A = make_group(orders)
    power = PowerGroup(A, n)
    base_index = {a: i for i, a in enumerate(_coords(A))}
    rng = random.Random(sum(orders) + n)
    for _ in range(3):
        # Coordinates of order at most 6 keep the codes small.
        words = [
            power.spec.element([d // t * rng.randrange(t) for d in power.spec.orders
                                for t in [rng.choice([t for t in range(1, 7) if d % t == 0])]])
            for _ in range(rng.randint(1, 2))
        ]
        C = code_from_generators(A, n, words)
        members = C.subgroup.members
        want = Counter(_count_key(power, c, base_index) for c in members)
        assert cwe(C).terms == tuple(sorted(want.items()))
        weights = Counter(hamming_weight(power, power.spec.element(c)) for c in members)
        assert hwe(C).coeffs == tuple(weights[w] for w in range(n + 1))


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


def _group_ring_slots(E, phi, side, direction):
    """The transform expanded term by term in Z[x]/(x^m - 1), one linear
    factor at a time, keyed by (count vector, power of x): per count vector,
    the m coefficients of its powers of x, before the division."""
    A = E.base
    b_first = _REFERENCE_B_FIRST[(direction, side)]
    m = A.exponent
    elements = list(A.elements())
    card = A.cardinality
    forms = [
        [
            (
                inner_product_exponent(phi, b, a)
                if b_first
                else inner_product_exponent(phi, a, b)
            )
            % m
            for a in elements
        ]
        for b in elements
    ]
    acc = {}
    for counts, coeff in E.terms:
        poly = {((0,) * card, 0): coeff}
        for b_idx, mult in enumerate(counts):
            row = forms[b_idx]
            for _ in range(mult):
                nxt = {}
                for (key, s), val in poly.items():
                    for a_idx, e in enumerate(row):
                        tk = (
                            key[:a_idx] + (key[a_idx] + 1,) + key[a_idx + 1 :],
                            (s + e) % m,
                        )
                        nxt[tk] = nxt.get(tk, 0) + val
                poly = nxt
        for (key, s), val in poly.items():
            acc.setdefault(key, [0] * m)[s] += val
    return acc


def _group_ring_complete_transform(E, phi, side, direction):
    """The second reference: the slots of `_group_ring_slots` reduced by
    CycInt, with the library's NonIntegralError on a non-integral result."""
    m = E.base.exponent
    out = {}
    for key, powers in _group_ring_slots(E, phi, side, direction).items():
        try:
            c = CycInt(m, tuple(powers)).divide_exact(E.total).as_int()
        except ValueError as exc:
            raise NonIntegralError(str(exc)) from exc
        if c:
            out[key] = c
    return CompleteEnumerator(E.base, E.n, tuple(sorted(out.items())))


def _non_integral_message(E, phi, side, direction):
    """The NonIntegralError text for the first count vector, in sorted
    order, whose folded slots `_reduce` to no integer divisible by the total;
    None if there is none."""
    m = E.base.exponent
    for key, powers in sorted(_group_ring_slots(E, phi, side, direction).items()):
        c, *rest = _reduce(m, powers)
        if any(rest) or c % E.total:
            return (
                f"transform coefficient {(c, *rest)} in powers of zeta_{m} "
                f"is not an integer divisible by {E.total}"
            )
    return None


_SIDES_AND_DIRECTIONS = [
    ("left", "dual_from_code"),
    ("right", "dual_from_code"),
    ("left", "code_from_dual"),
    ("right", "code_from_dual"),
]


def _richest_code(rng, A, n, draws=8):
    """Of `draws` seeded codes with one or two random generators, the one
    whose complete enumerator has the most terms."""
    P = PowerGroup(A, n)
    best, best_terms = None, -1
    for _ in range(draws):
        gens = [
            P.spec.element([rng.randrange(d) for d in P.spec.orders])
            for _ in range(rng.randint(1, 2))
        ]
        C = code_from_generators(A, n, gens)
        terms = len(cwe(C).terms)
        if terms > best_terms:
            best, best_terms = C, terms
    return best


@pytest.mark.parametrize("orders", [[9], [8], [7], [5], [3, 3], [2, 4]])
def test_complete_transform_matches_group_ring_reference_on_rich_codes(orders):
    rng = random.Random(sum(orders) * 7 + len(orders))
    A = make_group(orders)
    C = _richest_code(rng, A, 3)
    phi = rng.choice(all_dualities(A))
    for side, direction in _SIDES_AND_DIRECTIONS:
        if direction == "dual_from_code":
            E = cwe(C)
        else:
            E = cwe((left_dual if side == "left" else right_dual)(C, phi))
        got = mw_complete_transform(E, phi, side, direction)
        assert got == _group_ring_complete_transform(E, phi, side, direction)
        assert got.total * E.total == A.cardinality**3


def _edge_enumerators():
    """Hand-built enumerators that the constructor accepts but that `cwe`
    never returns."""
    A = make_group([2, 4])
    P = PowerGroup(A, 2)
    E1 = cwe(code_from_generators(A, 2, [P.word([A.element([1, 2]), A.element([0, 1])])]))
    E2 = cwe(code_from_generators(A, 2, [P.word([A.element([0, 2]), A.element([1, 3])])]))
    # 2 cwe(C1) - cwe(C2): a total of |C1| = |C2| and negative coefficients.
    difference = {k: 2 * c for k, c in E1.terms}
    for k, c in E2.terms:
        difference[k] = difference.get(k, 0) - c
    short = cwe(code_from_generators(A, 1, [A.element([1, 1])]))
    return {
        "unsorted": CompleteEnumerator(A, 2, tuple(reversed(E1.terms))),
        "repeated-counts": CompleteEnumerator(A, 2, E1.terms + E1.terms),
        "negative-coefficient": CompleteEnumerator(A, 2, tuple(difference.items())),
        "counts-below-n": CompleteEnumerator(A, 2, short.terms),
        "non-integral": CompleteEnumerator(
            make_group([3]), 1, (((1, 0, 0), 1), ((0, 1, 0), 1))
        ),
    }


@pytest.mark.parametrize("label", list(_edge_enumerators()))
def test_complete_transform_edge_enumerators_match_group_ring_reference(label):
    E = _edge_enumerators()[label]
    for phi in all_dualities(E.base)[:3]:
        for side, direction in _SIDES_AND_DIRECTIONS:
            try:
                expected = _group_ring_complete_transform(E, phi, side, direction)
            except NonIntegralError:
                assert label == "non-integral"
                with pytest.raises(NonIntegralError):
                    mw_complete_transform(E, phi, side, direction)
                continue
            assert mw_complete_transform(E, phi, side, direction) == expected


# Hand-built enumerators for the packed remainder, with negative coefficients
# and mass = sum|coeff| |A|^deg on 2^k - 1, the largest mass a width of
# (8 mass H_m).bit_length() bits takes (H_m = 1 here), or on 2^k, the
# smallest: (orders, n, terms, mass, whether the transform is an integral
# enumerator).
_FOLD_EDGES = {
    # 3 Z_0 - Z_1 - Z_2: transforms to 1 at a = 0 and 4 elsewhere.
    "2^4-1, integral": ((3,), 1, (((1, 0, 0), 3), ((0, 1, 0), -1), ((0, 0, 1), -1)), 15, True),
    # 3 Z_0^2 - (Z_1 + Z_2)^2, total -1; Z_1 + Z_2 goes to a rational form.
    "2^6-1, integral": (
        (3,), 2,
        (((2, 0, 0), 3), ((0, 2, 0), -1), ((0, 1, 1), -2), ((0, 0, 2), -1)),
        63, True,
    ),
    # Over (2,2) every pairing value is +-1, so both results are rational,
    # and even, as their totals 2 need.
    "2^4, integral": ((2, 2), 1, (((1, 0, 0, 0), 3), ((0, 1, 0, 0), -1)), 16, True),
    "2^6, integral": ((2, 2), 2, (((2, 0, 0, 0), 3), ((0, 1, 1, 0), -1)), 64, True),
    # 9 Z_0 - 7 Z_1 over Z/2: slots as large as 9 under a total of 2.
    "2^5, cancelling": ((2,), 1, (((1, 0), 9), ((0, 1), -7)), 32, True),
    # -Z_0 + 3 Z_2 over Z/4: Z_2 pairs to +-1, so the values are 2 and -4.
    "2^4 over Z/4, integral": ((4,), 1, (((1, 0, 0, 0), -1), ((0, 0, 1, 0), 3)), 16, True),
    # 3 Z_0 - (Z_1 + .. + Z_6): rational values -3 and 4, total -3.
    "2^6-1, rational, not divisible": (
        (7,), 1, (((1,) + (0,) * 6, 3),) + tuple(
            (tuple(int(a == b) for a in range(7)), -1) for b in range(1, 7)
        ),
        63, False,
    ),
    # 3 Z_0 - 2 Z_1, total 1: 3 - 2 zeta_3^e is not rational for e != 0.
    "2^4-1, not rational": ((3,), 1, (((1, 0, 0), 3), ((0, 1, 0), -2)), 15, False),
}


@pytest.mark.parametrize("label", list(_FOLD_EDGES))
def test_complete_transform_fold_edges_match_group_ring_reference(label):
    orders, n, terms, mass, integral = _FOLD_EDGES[label]
    A = make_group(orders)
    E = CompleteEnumerator(A, n, terms)
    assert sum(abs(c) for _, c in terms) * A.cardinality**n == mass
    assert any(c < 0 for _, c in terms)
    for phi in all_dualities(A):
        for side, direction in _SIDES_AND_DIRECTIONS:
            if integral:
                expected = _group_ring_complete_transform(E, phi, side, direction)
                assert mw_complete_transform(E, phi, side, direction) == expected
                continue
            with pytest.raises(NonIntegralError):
                _group_ring_complete_transform(E, phi, side, direction)
            with pytest.raises(NonIntegralError) as info:
                mw_complete_transform(E, phi, side, direction)
            assert str(info.value) == _non_integral_message(E, phi, side, direction)


def _combination(A, n, *scaled):
    """sum c E over the (c, E) in `scaled`, as one enumerator."""
    acc = {}
    for c, E in scaled:
        for k, v in E.terms:
            acc[k] = acc.get(k, 0) + c * v
    return CompleteEnumerator(A, n, tuple(sorted(acc.items())))


def _height_edges():
    """Hand-built enumerators with negative coefficients over Z/105, where
    H_105 = 2, and over Z/2, where deg Phi_2 = 1: (enumerator, whether the
    transform is an integral enumerator)."""
    Z105, Z2 = make_group([105]), make_group([2])

    def code(g):
        return cwe(code_from_generators(Z105, 1, [Z105.element([g])]))

    return {
        # 2 cwe(<35>) - cwe(<21>), total 2 * 3 - 5 = 1.
        "Z/105, integral": (
            _combination(Z105, 1, (2, code(35)), (-1, code(21))), True,
        ),
        # 3 cwe(<35>) - cwe(<21>), total 4: rational values 9, -5, 4 and 0.
        "Z/105, rational, not divisible": (
            _combination(Z105, 1, (3, code(35)), (-1, code(21))), False,
        ),
        # 3 Z_0 - 2 Z_1: 3 - 2 zeta_105^e is not rational for e != 0.
        "Z/105, not rational": (
            CompleteEnumerator(
                Z105, 1, (((1,) + (0,) * 104, 3), ((0, 1) + (0,) * 103, -2))
            ),
            False,
        ),
        # -Z_0 + 2 Z_1 -> Z_0 - 3 Z_1, total 1.
        "Z/2, integral": (
            CompleteEnumerator(Z2, 1, (((1, 0), -1), ((0, 1), 2))), True,
        ),
        # Z_0^2 - 2 Z_0 Z_1 + 2 Z_1^2, total 1.
        "Z/2 n=2, integral": (
            CompleteEnumerator(Z2, 2, (((2, 0), 1), ((1, 1), -2), ((0, 2), 2))), True,
        ),
        # 4 Z_0 - Z_1 -> 3 Z_0 + 5 Z_1, total 3.
        "Z/2, not divisible": (
            CompleteEnumerator(Z2, 1, (((1, 0), 4), ((0, 1), -1))), False,
        ),
    }


@pytest.mark.parametrize("label", list(_height_edges()))
def test_complete_transform_height_edges_match_group_ring_reference(label):
    E, integral = _height_edges()[label]
    assert any(c < 0 for _, c in E.terms)
    dualities = all_dualities(E.base)
    for phi in (dualities[0], dualities[-1]):
        for side, direction in _SIDES_AND_DIRECTIONS:
            message = _non_integral_message(E, phi, side, direction)
            assert (message is None) == integral
            if integral:
                expected = _group_ring_complete_transform(E, phi, side, direction)
                assert mw_complete_transform(E, phi, side, direction) == expected
                continue
            with pytest.raises(NonIntegralError) as info:
                mw_complete_transform(E, phi, side, direction)
            assert str(info.value) == message


# Exponents 2 to 9 and 12.
_PROPERTY_BASES = [
    [2], [3], [4], [5], [6], [7], [8], [9], [12], [2, 2], [2, 4], [3, 3], [2, 6]
]


@functools.cache
def _group_and_dualities(orders):
    A = make_group(list(orders))
    return A, all_dualities(A)


@given(st.sampled_from(_PROPERTY_BASES), st.integers(0, 2), st.data())
@settings(max_examples=300, deadline=None)
def test_complete_transform_matches_group_ring_reference_on_random_enumerators(
    orders, n, data
):
    A, dualities = _group_and_dualities(tuple(orders))
    terms = []
    for _ in range(data.draw(st.integers(1, 4))):
        counts = [0] * A.cardinality
        letters = st.integers(0, A.cardinality - 1)
        for a in data.draw(st.lists(letters, min_size=n, max_size=n)):
            counts[a] += 1
        terms.append((tuple(counts), data.draw(st.integers(-3, 3))))
    E = CompleteEnumerator(A, n, tuple(terms))
    phi = data.draw(st.sampled_from(dualities))
    side, direction = data.draw(st.sampled_from(_SIDES_AND_DIRECTIONS))
    if E.total == 0:
        with pytest.raises(ValueError, match="total 0"):
            mw_complete_transform(E, phi, side, direction)
        return
    try:
        expected = _group_ring_complete_transform(E, phi, side, direction)
    except NonIntegralError:
        with pytest.raises(NonIntegralError) as info:
            mw_complete_transform(E, phi, side, direction)
        assert str(info.value) == _non_integral_message(E, phi, side, direction)
        return
    assert mw_complete_transform(E, phi, side, direction) == expected


def test_a_zero_total_or_divisor_is_refused():
    A = make_group([2, 2])
    phi = canonical_duality(A)
    zero = CompleteEnumerator(A, 1, (((1, 0, 0, 0), 1), ((0, 1, 0, 0), -1)))
    assert zero.total == 0
    with pytest.raises(ValueError, match="total 0"):
        mw_complete_transform(zero, phi, "left")
    empty = CompleteEnumerator(A, 1, ())
    assert mw_complete_transform(empty, phi, "left") == empty
    with pytest.raises(ValueError, match="divisor of the transform is 0"):
        mw_hamming_transform(HammingEnumerator(1, (1, 3)), 4, 0)


def test_complete_transform_builds_no_cycint_and_never_reduces_on_success(monkeypatch):
    # On success the output stage takes one balanced remainder of each
    # monomial's packed int: no CycInt is built and no _reduce is called.
    from groupdual import cyclotomic

    A = make_group([9])
    C = _richest_code(random.Random(9), A, 3)
    phi = all_dualities(A)[1]
    cases = [
        (cwe(C), "left", "dual_from_code"),
        (cwe(right_dual(C, phi)), "right", "code_from_dual"),
    ]
    expected = [
        _group_ring_complete_transform(E, phi, side, direction)
        for E, side, direction in cases
    ]
    built, reduced = [], []
    post_init, reduce = CycInt.__post_init__, cyclotomic._reduce

    def counting_post_init(self):
        built.append(1)
        post_init(self)

    def counting_reduce(m, coeffs):
        reduced.append(1)
        return reduce(m, coeffs)

    monkeypatch.setattr(CycInt, "__post_init__", counting_post_init)
    monkeypatch.setattr(cyclotomic, "_reduce", counting_reduce)
    assert len(cases[0][0].terms) == 81
    for (E, side, direction), want in zip(cases, expected):
        assert mw_complete_transform(E, phi, side, direction) == want
    assert built == [] and reduced == []


def test_complete_transform_rejects_count_vectors_of_the_wrong_length():
    A = make_group([2, 2])
    bad = CompleteEnumerator(A, 1, (((1, 0, 0), 1),))
    with pytest.raises(ValueError, match="one entry per base element"):
        mw_complete_transform(bad, canonical_duality(A), "left")


def test_complete_transform_of_zero_code_over_a_large_base():
    # 1,024 letters: a walk that recursed once per letter would pass
    # Python's default recursion limit.
    A = make_group([2] * 10)
    zero = CompleteEnumerator(A, 1, (((1,) + (0,) * 1023, 1),))
    got = mw_complete_transform(zero, canonical_duality(A), "left")
    assert got.terms == tuple(
        (tuple(int(a == b) for b in range(1024)), 1) for a in reversed(range(1024))
    )


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


def _level_walk_transform(E, phi, side, direction):
    """The transform with the trie walked level by level, every node of a
    letter regrouped at once, deepest letter first, and each S_j added after
    its product: the oracle for the walk over the sorted terms.  Set-up and
    output stage as in `mw_complete_transform`."""
    A = E.base
    b_first = _REFERENCE_B_FIRST[(direction, side)]
    m, card, terms, divisor = A.exponent, A.cardinality, E.terms, E.total
    deg = max(sum(counts) for counts, _ in terms)
    radix = deg + 1
    mass = max(1, sum(abs(c) for _, c in terms)) * card**deg
    cyc, bound = cyclotomic_poly(m).coeffs, mass * power_height(m)
    width = (8 * max(bound, *map(abs, cyc))).bit_length()
    letters = _coords(A)
    z_key = [radix ** (card - 1 - a) for a in range(card)]
    forms = {
        b: {
            z_key[a]: width * (sum(map(mul, f, x)) % m)
            for a, x in enumerate(letters)
        }
        for b, f in enumerate(_pairing_forms(phi, letters, left=not b_first))
    }

    def times(p, form):
        out = {}
        for k2, sh in form.items():
            for k1, v1 in p.items():
                out[k1 + k2] = out.get(k1 + k2, 0) + (v1 << sh)
        return out

    level = {}
    for counts, coeff in terms:
        leaf = level.setdefault(counts, {0: 0})
        leaf[0] += coeff
    for b in reversed(range(card)):
        children = {}
        for prefix, poly in level.items():
            children.setdefault(prefix[:b], {})[prefix[b]] = poly
        level = {}
        for prefix, sums in children.items():
            top = max(sums)
            acc = sums[top]
            for j in reversed(range(top)):
                acc = times(acc, forms[b])
                for k, v in sums.get(j, {}).items():
                    acc[k] = acc.get(k, 0) + v
            level[prefix] = acc
    (expansion,) = level.values()

    modulus = sum(c << width * j for j, c in enumerate(cyc))
    half, out = modulus >> 1, []
    for key in sorted(expansion):
        c = (expansion[key] + half) % modulus - half
        if abs(c) > bound or c % divisor:
            slot, span = 1 << (width - 1), range(len(cyc) - 1)
            c += sum(slot << width * j for j in span)
            digits = tuple((c >> width * j) % (2 * slot) - slot for j in span)
            raise NonIntegralError(
                f"transform coefficient {digits} in powers of zeta_{m} "
                f"is not an integer divisible by {divisor}"
            )
        c //= divisor
        if c:
            counts = [0] * card
            for a in reversed(range(card)):
                key, counts[a] = divmod(key, radix)
            out.append((tuple(counts), c))
    return CompleteEnumerator(A, E.n, tuple(out))


@given(st.sampled_from(_PROPERTY_BASES), st.data())
@settings(max_examples=300, deadline=None)
def test_walk_matches_the_level_by_level_walk_on_arbitrary_enumerators(orders, data):
    # Degrees differ between terms, count vectors may repeat, and the
    # coefficients may be negative: enumerators that no code has.
    A, dualities = _group_and_dualities(tuple(orders))
    letters = st.integers(0, A.cardinality - 1)
    terms = []
    for _ in range(data.draw(st.integers(1, 5))):
        counts = [0] * A.cardinality
        for a in data.draw(st.lists(letters, max_size=3)):
            counts[a] += 1
        terms.append((tuple(counts), data.draw(st.integers(-3, 3))))
    E = CompleteEnumerator(A, data.draw(st.integers(0, 3)), tuple(terms))
    phi = data.draw(st.sampled_from(dualities))
    side, direction = data.draw(st.sampled_from(_SIDES_AND_DIRECTIONS))
    if E.total == 0:
        with pytest.raises(ValueError, match="total 0"):
            mw_complete_transform(E, phi, side, direction)
        return
    try:
        expected = _level_walk_transform(E, phi, side, direction)
    except NonIntegralError as exc:
        with pytest.raises(NonIntegralError) as info:
            mw_complete_transform(E, phi, side, direction)
        assert str(info.value) == str(exc)
        return
    assert mw_complete_transform(E, phi, side, direction) == expected


def _reverse_check(code, dual, phi, side):
    """What `macwilliams verify` checks before it prints dual as the forward
    transform of code: the preconditions, then the transform back."""
    if not _forward_follows(code, dual):
        return False
    try:
        return mw_complete_transform(dual, phi, side, "code_from_dual") == code
    except NonIntegralError:
        return False


# The groups of the census workload of the benchmark.
_CENSUS_BASES = [[2], [2, 2], [2, 4], [3, 3], [2, 8], [4, 4], [2, 2, 2], [2, 2, 3], [27]]


@pytest.mark.parametrize("orders", _CENSUS_BASES)
def test_reverse_check_holds_exactly_when_the_forward_transform_gives_the_dual(orders):
    # Genuine pairs on both sides, and a code against its dual on the other
    # side and against itself, under non-symmetric dualities and one other.
    rng = random.Random(len(orders) * 100 + sum(orders))
    A = make_group(orders)
    dualities = all_dualities(A)
    chosen = [phi for phi in dualities if not is_symmetric(phi)][:2] + dualities[:1]
    P = PowerGroup(A, 2)
    codes = [code_from_subgroup(A, 1, H) for H in all_subgroups(A)]
    codes.append(code_from_generators(
        A, 2, [P.spec.element([rng.randrange(d) for d in P.spec.orders]) for _ in range(2)]
    ))
    held = 0
    for C in codes:
        code = cwe(C)
        for phi in chosen:
            L, R = cwe(left_dual(C, phi)), cwe(right_dual(C, phi))
            for side, D, other in (("left", L, R), ("right", R, L)):
                forward = mw_complete_transform(code, phi, side)
                assert forward == D
                for dual in (D, other, code):
                    holds = _reverse_check(code, dual, phi, side)
                    assert holds == (forward == dual)
                    held += holds
    assert held >= 2 * len(codes) * len(chosen)


def _negation(A):
    index = {a: i for i, a in enumerate(_coords(A))}
    return [index[tuple(-x % d for x, d in zip(a, A.orders))] for a in index]


def _corrupted(dual):
    """(kind, enumerator) for each corruption of dual: one coefficient moved
    between two negation-invariant count vectors, total kept; one moved from
    a count vector that negation moves; one coefficient raised by 1."""
    neg = _negation(dual.base)
    terms = dict(dual.terms)

    def rebuilt(changes):
        new = dict(terms)
        for k, d in changes:
            new[k] = new.get(k, 0) + d
        return CompleteEnumerator(
            dual.base, dual.n, tuple(sorted((k, c) for k, c in new.items() if c))
        )

    fixed = [k for k in terms if tuple(k[i] for i in neg) == k]
    moved = [k for k in terms if tuple(k[i] for i in neg) != k]
    for src in fixed:
        for dst in fixed:
            if src != dst:
                yield "moved", rebuilt([(src, -1), (dst, 1)])
    for src in moved:
        yield "not-invariant", rebuilt([(src, -1), (fixed[0], 1)])
    for k in terms:
        yield "wrong-total", rebuilt([(k, 1)])


@pytest.mark.parametrize(
    "orders,n", [([2, 4], 3), ([2, 2], 3), ([3, 3], 2), ([8], 2), ([9], 2), ([5], 2)]
)
def test_corrupted_duals_fail_the_reverse_check(orders, n):
    # Of each kind, up to 12 corruptions per dual, drawn from all of them.
    rng = random.Random(len(orders) * 10 + n)
    A = make_group(orders)
    P = PowerGroup(A, n)
    kinds = Counter()
    for _ in range(3):
        word = P.spec.element([rng.randrange(d) for d in P.spec.orders])
        C = code_from_generators(A, n, [word])
        phi = rng.choice(all_dualities(A))
        for side, dual_fn in (("left", left_dual), ("right", right_dual)):
            code, dual = cwe(C), cwe(dual_fn(C, phi))
            assert _reverse_check(code, dual, phi, side)
            forward = mw_complete_transform(code, phi, side)
            by_kind = {}
            for kind, bad in _corrupted(dual):
                by_kind.setdefault(kind, []).append(bad)
            for kind, bads in by_kind.items():
                for bad in rng.sample(bads, min(12, len(bads))):
                    kinds[kind] += 1
                    # Only the transform back can refuse a moved coefficient.
                    assert _forward_follows(code, bad) == (kind == "moved")
                    assert not _reverse_check(code, bad, phi, side)
                    assert forward != bad
    assert kinds["wrong-total"] and kinds["moved"] + kinds["not-invariant"]


def test_forward_does_not_follow_for_a_dual_in_another_form():
    # The forward transform returns sorted, distinct, nonzero terms of
    # degree n, so a dual written any other way is never its result.
    A = make_group([2, 4])
    P = PowerGroup(A, 2)
    C = code_from_generators(A, 2, [P.word([A.element([1, 2]), A.element([0, 1])])])
    phi = all_dualities(A)[3]
    code, dual = cwe(C), cwe(left_dual(C, phi))
    assert _forward_follows(code, dual)
    i = next(i for i, (_, c) in enumerate(dual.terms) if c > 1)
    k, c = dual.terms[i]
    split = (*dual.terms[:i], (k, 1), (k, c - 1), *dual.terms[i + 1 :])
    zero = tuple(sorted([*dual.terms, ((0,) * 7 + (2,), 0)]))
    for terms in (tuple(reversed(dual.terms)), split, zero):
        assert not _forward_follows(code, CompleteEnumerator(A, 2, terms))
    assert not _forward_follows(code, CompleteEnumerator(A, 3, dual.terms))
    assert not _forward_follows(CompleteEnumerator(A, 3, code.terms), dual)
    (_, c), *rest = code.terms
    cubic = CompleteEnumerator(A, 2, (((3,) + (0,) * 7, c), *rest))
    assert cubic.total == code.total and not _forward_follows(cubic, dual)

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
            assert _fourier_inverse_check(A, f)


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
    fn = _complete_value_function(P)
    for H in all_subgroups(A):
        f = {a.coords: fn(a) for a in A.elements()}
        assert poisson_check(H, f)


def _seeded_two_key_function(rng, A):
    """A function on A with values under the keys "x" and "y": some
    elements missing, some with no value, and zero coefficients among the
    rest."""
    m = A.exponent
    f = {}
    for a in _coords(A):
        roll = rng.random()
        if roll < 0.15:
            continue
        if roll < 0.25:
            f[a] = {}
            continue
        f[a] = {
            key: CycInt(m, tuple(rng.randint(-3, 3) for _ in range(m)))
            if rng.random() < 0.7
            else CycInt.zero(m)
            for key in ("x", "y")
        }
    return f


@pytest.mark.parametrize(
    "orders", [[2, 4], [3, 3], [8], [9], [5], [7], [2, 2, 2], [8, 8]]
)
def test_fourier_transform_matches_the_object_oracle(orders):
    rng = random.Random(sum(orders) * 31 + len(orders))
    A = make_group(orders)
    m = A.exponent
    for _ in range(2 if A.cardinality > 16 else 4):
        f = _seeded_two_key_function(rng, A)
        assert fourier_transform(A, f) == _object_fourier_transform(A, f)
    # The same value on a nontrivial subgroup H and nowhere else: f-hat
    # vanishes off (A-hat : H), so some pi has an empty transform.
    H = all_subgroups(A)[1]
    value = {"x": CycInt(m, (1,) * m), "y": CycInt.from_int(m, -2)}
    f = {h: value for h in H.members}
    got = fourier_transform(A, f)
    assert got == _object_fourier_transform(A, f)
    assert {} in got.values()
    assert list(got) == _coords(A)


def test_a_value_of_another_modulus_raises():
    A = make_group([2, 4])
    H = all_subgroups(A)[1]
    outside = next(a for a in _coords(A) if a not in H.element_set())
    for foreign in (CycInt.from_int(8, 1), CycInt.zero(2)):
        f = {a: {"x": CycInt.from_int(4, 1)} for a in _coords(A)}
        f[outside] = {"x": CycInt.from_int(4, 1), "y": foreign}
        with pytest.raises(ValueError, match="mixed moduli"):
            _object_fourier_transform(A, f)
        with pytest.raises(ValueError, match="mixed moduli"):
            fourier_transform(A, f)
        with pytest.raises(ValueError, match="mixed moduli"):
            poisson_check(H, f)


def test_a_corrupted_transform_fails_the_poisson_check(monkeypatch):
    # A transform off by one at the trivial character leaves a sum over
    # (A-hat : H) that is not [A : H] = 4 times the sum over H.
    from groupdual import enumerators

    transform = enumerators._transform

    def corrupted(A, f, characters):
        out = transform(A, f, characters)
        zero = (0,) * A.rank
        out[zero] = {"x": out[zero]["x"] + CycInt.from_int(A.exponent, 1)}
        return out

    A = make_group([2, 4])
    H = next(H for H in all_subgroups(A) if H.order == 2)
    f = {a: {"x": CycInt.from_int(4, 1)} for a in _coords(A)}
    assert poisson_check(H, f)
    monkeypatch.setattr(enumerators, "_transform", corrupted)
    assert poisson_check(H, f) is False


@pytest.mark.parametrize("orders", [[2, 4], [3, 3], [8], [2, 2, 2]])
def test_poisson_transforms_only_at_the_annihilator(monkeypatch, orders):
    from groupdual import enumerators
    from groupdual.characters import annihilator

    transform, seen = enumerators._transform, []

    def spy(A, f, characters):
        characters = list(characters)
        seen.append(characters)
        return transform(A, f, characters)

    monkeypatch.setattr(enumerators, "_transform", spy)
    rng = random.Random(len(orders) + sum(orders))
    A = make_group(orders)
    for H in all_subgroups(A):
        seen.clear()
        assert poisson_check(H, _seeded_two_key_function(rng, A))
        assert seen == [list(annihilator(H).members)]
        assert len(seen[0]) == A.cardinality // H.order

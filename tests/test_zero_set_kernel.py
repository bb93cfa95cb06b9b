"""The dual kernel against the full scan it replaced.

`_zero_set` is the oracle: it tests every x of the ambient group against
every form.  `groups._zero_subgroup` finds generators of the same set by
extended-gcd steps and must return the same subgroup, down to its
generators, for the duals, the annihilator and `duals_table` under given
dualities.
"""

import math
import random
from itertools import product
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from groupdual import (
    Limits,
    LimitExceededError,
    all_dualities,
    all_subgroups,
    annihilator,
    code_from_generators,
    code_from_subgroup,
    duality_from_matrix,
    extend_duality,
    left_dual,
    make_group,
    right_dual,
    subgroup_closure,
    subgroup_from_elements,
)
from groupdual import groups
from groupdual.codes import PowerGroup, duals_table
from groupdual.dualities import _pairing_forms
from groupdual.groups import _kernel_generators, _zero_subgroup
from span_oracle import _span


def _zero_set(orders, m, forms):
    """Every x in prod Z/d_i with sum_i f_i x_i = 0 (mod m) for each form f,
    in canonical (lexicographic coordinate) order."""
    return [
        x
        for x in product(*map(range, orders))
        if not any(sum(map(mul, f, x)) % m for f in forms)
    ]


def _scanned(spec, forms):
    members = _zero_set(spec.orders, spec.exponent, forms)
    return subgroup_from_elements(spec, map(spec.element, members))


def _same(got, want):
    assert (got.elements, got.generators) == (want.elements, want.generators)


# Every base group the suite builds, plus (6), (12), (4,6) and (2,2,3).
AMBIENT_GROUPS = (
    [2], [3], [4], [5], [6], [7], [8], [9], [12], [27],
    [2, 2], [2, 4], [4, 2], [3, 3], [2, 6], [6, 4], [4, 6], [2, 8], [4, 4],
    [3, 9], [9, 3], [12, 2], [2, 2, 2], [2, 2, 3], [2, 2, 4], [2, 4, 4],
    [2, 2, 2, 2],
)


@pytest.mark.parametrize("orders", AMBIENT_GROUPS)
def test_duals_match_the_scan_on_every_ambient_group(orders):
    rng = random.Random(str(orders))
    A = make_group(orders)
    dualities = all_dualities(A)
    for n in (1, 2, 3):
        spec = PowerGroup(A, n).spec
        if spec.cardinality > 1024:
            break
        words = list(product(*map(range, spec.orders)))
        for phi in rng.sample(dualities, min(3, len(dualities))):
            gens = [spec.element(rng.choice(words)) for _ in range(rng.randint(1, 3))]
            C = code_from_generators(A, n, gens)
            coords = [g.coords for g in gens]
            for left, dual in ((True, left_dual), (False, right_dual)):
                want = _scanned(spec, _pairing_forms(phi, coords, left))
                _same(dual(C, phi).subgroup, want)


@pytest.mark.parametrize("orders", AMBIENT_GROUPS)
def test_annihilator_matches_the_scan(orders):
    A = make_group(orders)
    subs = all_subgroups(A) if A.cardinality <= 16 else [
        subgroup_closure(A, [A.element(c)]) for c in product(*map(range, orders))
    ]
    for H in subs:
        forms = [tuple(w * c for w, c in zip(A.weights, h.coords)) for h in H.generators]
        _same(annihilator(H), _scanned(A, forms))


@pytest.mark.parametrize("orders", [[2, 4], [6], [12], [4, 6], [2, 2, 3], [3, 9]])
def test_duals_by_image_match_the_scan(orders):
    A = make_group(orders)
    subs = all_subgroups(A)
    dualities = all_dualities(A)
    for phi, row in zip(dualities, duals_table(A, subs, dualities)):
        for H, duals in zip(subs, row["duals"]):
            L, R = duals["left"], duals["right"]
            coords = [g.coords for g in H.generators]
            _same(L, _scanned(A, _pairing_forms(phi, coords, True)))
            _same(R, _scanned(A, _pairing_forms(phi, coords, False)))


# (orders, n) with |A^n| <= 729.
SHAPES = st.sampled_from(
    [([2], 3), ([3], 3), ([4], 3), ([6], 2), ([12], 2), ([2, 2], 3), ([2, 4], 3),
     ([3, 3], 2), ([4, 6], 1), ([2, 2, 3], 2), ([2, 8], 2), ([3, 9], 1)]
)


@given(SHAPES, st.data())
@settings(max_examples=80, deadline=None)
def test_duals_match_the_scan_on_random_codes(shape, data):
    orders, n = shape
    A = make_group(orders)
    spec = PowerGroup(A, n).spec
    coord = st.tuples(*(st.integers(0, d - 1) for d in spec.orders))
    gens = data.draw(st.lists(coord, max_size=3))
    phi = data.draw(st.sampled_from(all_dualities(A)))
    C = code_from_generators(A, n, [spec.element(g) for g in gens])
    for left, dual in ((True, left_dual), (False, right_dual)):
        _same(dual(C, phi).subgroup, _scanned(spec, _pairing_forms(phi, gens, left)))


@given(
    st.sampled_from([[2], [6], [12], [2, 4], [4, 6], [2, 2, 3], [3, 9], [2, 6, 4]]),
    st.data(),
)
@settings(max_examples=80, deadline=None)
def test_kernel_generators_span_the_zero_set_of_any_characters(orders, data):
    # Admissible forms are characters: f_i = w_i e_i for exponent tuples e.
    A = make_group(orders)
    etuple = st.tuples(*(st.integers(0, d - 1) for d in orders))
    forms = [
        tuple(w * e for w, e in zip(A.weights, es))
        for es in data.draw(st.lists(etuple, max_size=4))
    ]
    gens = _kernel_generators(A.orders, A.exponent, forms)
    assert len(gens) <= A.rank
    assert sorted(_span(A.orders, gens)[1]) == _zero_set(A.orders, A.exponent, forms)


def test_no_forms_and_zero_forms_give_the_whole_group():
    A = make_group([2, 4, 3])
    whole = _scanned(A, [])
    _same(_zero_subgroup(A, [], 1), whole)
    _same(_zero_subgroup(A, [(0, 0, 0)] * 3, 1), whole)
    P = PowerGroup(make_group([2, 4]), 2)
    for gens in ([], [P.spec.zero()] * 2):
        C = code_from_generators(P.base, 2, gens)
        for phi in all_dualities(P.base):
            assert left_dual(C, phi).subgroup.is_whole_group()
            assert right_dual(C, phi).subgroup.is_whole_group()


def test_the_whole_space_has_the_trivial_dual():
    A = make_group([2, 4])
    spec = PowerGroup(A, 2).spec
    C = code_from_generators(A, 2, spec.generators())
    for phi in all_dualities(A):
        for dual in (left_dual, right_dual):
            assert dual(C, phi).subgroup.elements == (spec.zero(),)


@pytest.mark.parametrize(
    "orders,n,seed", [([2, 4], 2, 1), ([2, 2], 3, 2), ([3], 3, 3), ([4], 2, 4), ([6], 2, 5)]
)
def test_redundant_generators_and_coupled_dualities_match_the_scan(orders, n, seed):
    # The same codes and coupled A^n dualities as
    # test_duals_with_redundant_generators_match_full_scan in test_codes.
    rng = random.Random(seed)
    A = make_group(orders)
    spec = PowerGroup(A, n).spec
    elems = list(spec.elements())
    g1, g2 = rng.choice(elems), rng.choice(elems)
    gens = [g1, g2, g1 + g2, 2 * g1, g2, spec.zero()]
    coords = [g.coords for g in gens]
    C = code_from_generators(A, n, gens)
    C1 = code_from_subgroup(spec, 1, C.subgroup)
    k = A.rank
    for phi in rng.sample(all_dualities(A), min(3, len(all_dualities(A)))):
        coupled = []
        for i, j in ((0, k), (k, 0)):
            matrix = [list(r) for r in extend_duality(phi, n).tau.matrix]
            matrix[i][j] = spec.orders[j] // math.gcd(spec.orders[i], spec.orders[j])
            coupled.append(duality_from_matrix(spec, matrix))
        for psi in [phi] + coupled:
            for left, dual in ((True, left_dual), (False, right_dual)):
                want = _scanned(spec, _pairing_forms(psi, coords, left))
                _same(dual(C, psi).subgroup, want)
                if psi is not phi:
                    _same(dual(C1, psi).subgroup, want)


def test_the_certificate_rejects_a_dropped_generator(monkeypatch):
    A = make_group([2, 4])
    C = code_from_generators(A, 2, [PowerGroup(A, 2).spec.element((1, 2, 0, 1))])
    phi = all_dualities(A)[3]
    monkeypatch.setattr(
        groups, "_kernel_generators", lambda *args: _kernel_generators(*args)[:-1]
    )
    with pytest.raises(AssertionError, match="zero set of order"):
        left_dual(C, phi)
    with pytest.raises(AssertionError, match="zero set of order"):
        annihilator(subgroup_closure(A, [A.element((1, 2))]))


def test_the_certificate_rejects_a_generator_outside_the_zero_set(monkeypatch):
    A = make_group([2, 4])
    C = code_from_generators(A, 2, [PowerGroup(A, 2).spec.element((1, 2, 0, 1))])
    phi = all_dualities(A)[3]
    units = [tuple(int(i == j) for j in range(4)) for i in range(4)]
    monkeypatch.setattr(
        groups, "_kernel_generators", lambda *args: _kernel_generators(*args) + units
    )
    with pytest.raises(AssertionError, match="fails a form"):
        right_dual(C, phi)


def test_scan_bound_applies_to_the_order_of_the_dual():
    A = make_group([2, 4])
    phi = all_dualities(A)[1]
    C = code_from_generators(A, 3, [PowerGroup(A, 3).spec.element((1, 0, 0, 1, 1, 2))])
    # |A^3| = 512 and |C| = 4, so the dual has order 128.
    assert left_dual(C, phi, Limits(scan_bound=128)).order == 128
    with pytest.raises(LimitExceededError, match="dual code of order 128 exceeds scan bound 127"):
        right_dual(C, phi, Limits(scan_bound=127))
    H = subgroup_closure(A, [A.element((0, 1))])
    (row,) = duals_table(A, [H], [phi], Limits(scan_bound=2))
    assert row["duals"][0]["left"].order == 2
    with pytest.raises(LimitExceededError, match="dual code of order 2 exceeds scan bound 1"):
        duals_table(A, [H], [phi], Limits(scan_bound=1))

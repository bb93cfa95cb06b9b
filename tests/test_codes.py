"""Additive codes, left/right duals, pair construction, and filtrations."""

import hashlib
import json
import math
import random
from itertools import product

import pytest

from groupdual import (
    DualKind,
    LimitExceededError,
    Limits,
    UnsupportedPairError,
    adjoint,
    all_dualities,
    all_subgroups,
    code_from_generators,
    canonical_duality,
    code_from_subgroup,
    construct_duality_for_pair,
    duality_from_matrix,
    duals_table,
    extend_duality,
    is_characteristic,
    is_symmetric,
    left_dual,
    make_group,
    mult_by_p_filtration,
    right_dual,
    search_duality_for_pair,
    self_dual_kind,
    subgroup_closure,
    verify_filtration_duality,
)
from groupdual import codes as codes_module
from groupdual.codes import (
    PowerGroup,
    _swapped_by_l0,
    duality_dependence,
)
from groupdual.cyclotomic import CycInt
from groupdual.groups import _order
import census_oracle
from span_oracle import _span
from groupdual.dualities import inner_product_exponent, inner_product_value


def test_power_group_word_and_blocks_roundtrip():
    A = make_group([2, 4])
    P = PowerGroup(A, 3)
    blocks = [A.element([1, 2]), A.element([0, 3]), A.element([1, 0])]
    w = P.word(blocks)
    assert w.coords == (1, 2, 0, 3, 1, 0)
    k = A.rank
    assert [A.element(w.coords[i : i + k]) for i in range(0, len(w.coords), k)] == blocks


def test_power_group_spec_is_built_once():
    A = make_group([2, 4])
    P = PowerGroup(A, 3)
    assert P.spec is P.spec
    assert P.spec == make_group([2, 4, 2, 4, 2, 4])
    assert P == PowerGroup(A, 3) and hash(P) == hash(PowerGroup(A, 3))
    assert "spec" not in repr(P)


def test_size_condition_and_double_duals():
    for orders, n in [([2, 2], 2), ([2, 4], 1), ([3, 3], 1), ([8], 2)]:
        A = make_group(orders)
        spec = PowerGroup(A, n).spec
        for H in all_subgroups(spec):
            C = code_from_subgroup(A, n, H)
            for phi in all_dualities(A)[:4]:
                L = left_dual(C, phi)
                R = right_dual(C, phi)
                assert L.order * C.order == spec.cardinality
                assert R.order * C.order == spec.cardinality
                assert left_dual(R, phi) == C
                assert right_dual(L, phi) == C


def test_left_dual_under_adjoint_is_right_dual():
    A = make_group([2, 4])
    for phi in all_dualities(A):
        star = adjoint(phi)
        for H in all_subgroups(A):
            C = code_from_subgroup(A, 1, H)
            assert left_dual(C, star) == right_dual(C, phi)
            assert right_dual(C, star) == left_dual(C, phi)


def _dual_sum(C, phi, x):
    """Oracle: sum_{y in C} Phi(x, y), exactly; |C| or 0 by membership."""
    ext = extend_duality(phi, C.power.n)
    total = CycInt.zero(C.power.spec.exponent)
    for y in C.subgroup.elements:
        total = total + inner_product_value(ext, x, y)
    return total


def test_dual_sum_oracle():
    # sum_{y in C} Phi(x, y) = |C| when x is in the left dual, else 0.
    A = make_group([2, 4])
    C = code_from_generators(A, 1, [A.element([1, 2])])
    for phi in all_dualities(A):
        L = left_dual(C, phi)
        for x in A.elements():
            total = _dual_sum(C, phi, x)
            if x in L.subgroup:
                assert total.as_int() == C.order
            else:
                assert total.is_zero()


def test_self_dual_kinds_on_klein_table():
    A = make_group([2, 2])
    subs = {
        name: subgroup_closure(A, [A.parse_element(w)])
        for name, w in [("C_0", "10"), ("C_1", "11"), ("C_inf", "01")]
    }
    flip = duality_from_matrix(A, [[0, 1], [1, 0]])
    for H in subs.values():
        assert self_dual_kind(code_from_subgroup(A, 1, H), flip) == DualKind.SELF_DUAL
    ident = duality_from_matrix(A, [[1, 0], [0, 1]])
    kinds = {
        name: self_dual_kind(code_from_subgroup(A, 1, H), ident)
        for name, H in subs.items()
    }
    assert kinds == {
        "C_0": DualKind.NONE,
        "C_1": DualKind.SELF_DUAL,
        "C_inf": DualKind.NONE,
    }
    # The nonsymmetric dualities admit no self-dual codes of order 2.
    shear = duality_from_matrix(A, [[1, 1], [0, 1]])
    assert all(
        self_dual_kind(code_from_subgroup(A, 1, H), shear) != DualKind.SELF_DUAL
        for H in subs.values()
    )


def test_extended_duality_is_blockwise():
    A = make_group([2, 4])
    phi = all_dualities(A)[3]
    ext = extend_duality(phi, 2)
    P = PowerGroup(A, 2)
    for a1, a2, b1, b2 in product(list(A.elements())[:4], repeat=4):
        x = P.word([a1, a2])
        y = P.word([b1, b2])
        expected = (
            inner_product_exponent(phi, a1, b1)
            + inner_product_exponent(phi, a2, b2)
        ) % A.exponent
        assert inner_product_exponent(ext, x, y) == expected


def _self_dual_kind_by_duals(C, phi):
    """Oracle: both duals of C, built and compared with C."""
    left = left_dual(C, phi)
    right = right_dual(C, phi)
    cset = C.subgroup.element_set()
    left_orth = cset <= left.subgroup.element_set()
    right_orth = cset <= right.subgroup.element_set()
    if left_orth != right_orth:
        raise AssertionError("left/right self-orthogonality must agree")
    left_sd = C == left
    right_sd = C == right
    if left_sd != right_sd:
        raise AssertionError("left/right self-duality must agree")
    if left_sd:
        return DualKind.SELF_DUAL
    if left_orth:
        return DualKind.SELF_ORTHOGONAL
    return DualKind.NONE


def _coupled_dualities(phi, n):
    """Dualities over A^n that couple blocks 0 and 1 (none when n = 1): the
    extension of phi with one admissible entry set off the diagonal blocks."""
    spec, k = PowerGroup(phi.parent, n).spec, phi.parent.rank
    out = []
    for i, j in ((0, k), (k, 0))[: 2 * (n > 1)]:
        matrix = [list(r) for r in extend_duality(phi, n).tau.matrix]
        matrix[i][j] = spec.orders[j] // math.gcd(spec.orders[i], spec.orders[j])
        out.append(duality_from_matrix(spec, matrix))
    return out


@pytest.mark.parametrize("orders", [[2], [3], [4], [2, 2], [2, 4], [3, 3]])
def test_self_dual_kind_matches_the_two_duals(orders):
    rng = random.Random(sum(orders) * 10 + len(orders))
    A = make_group(orders)
    kinds = set()
    for n in (1, 2, 3):
        spec = PowerGroup(A, n).spec
        elems = list(spec.elements())
        codes = [code_from_generators(A, n, rng.choices(elems, k=rng.randint(1, 3))) for _ in range(6)]
        if n < 3:
            # Every subgroup of a small A^n, and each candidate self-dual one.
            subs = all_subgroups(spec)
            codes += [
                code_from_subgroup(A, n, H) for H in subs
                if spec.cardinality <= 16 or H.order**2 == spec.cardinality
            ]
        base = rng.sample(all_dualities(A), min(4, len(all_dualities(A))))
        dualities = base + [psi for phi in base[:2] for psi in _coupled_dualities(phi, n)]
        for C in codes:
            for phi in dualities:
                kind = self_dual_kind(C, phi)
                assert kind == _self_dual_kind_by_duals(C, phi)
                kinds.add(kind)
    assert kinds == set(DualKind)


def _spanned(orders, words):
    """The span of `words` by a breadth-first closure of sums: an oracle
    independent of `groups._span`."""
    zero = (0,) * len(orders)
    span, frontier = {zero}, [zero]
    while frontier:
        sums = {tuple((x + g) % d for x, g, d in zip(w, h, orders)) for w in frontier for h in words}
        frontier = list(sums - span)
        span |= sums
    return span


def _is_sublist(short, long):
    it = iter(long)
    return all(any(x == y for y in it) for x in short)


@pytest.mark.parametrize("orders, n", [((2, 4), 2), ((3,), 3), ((2, 2), 3), ((12, 3), 1)])
def test_a_basis_is_an_in_order_sublist_that_spans(orders, n):
    # A closure keeps the given words as `gens` and the greedy basis of
    # them, in order, as `basis`; a dual's basis has at most k n words.
    A = make_group(orders)
    spec = PowerGroup(A, n).spec
    elems = list(spec.elements())
    rng = random.Random(16)
    phi = all_dualities(A)[-1]
    for _ in range(12):
        words = rng.choices(elems, k=rng.randint(1, 6))
        words += [words[0], spec.zero(), words[-1] + words[0]]
        C = code_from_generators(A, n, words)
        H = C.subgroup
        assert H.gens == tuple(w.coords for w in words)
        assert _is_sublist(H.basis, H.gens)
        assert _spanned(spec.orders, H.basis) == set(H.members)
        for dual in (left_dual, right_dual):
            D = dual(C, phi).subgroup
            assert len(D.basis) <= A.rank * n
            assert _spanned(spec.orders, D.basis) == set(D.members)


def test_a_dual_of_a_dual_spans_no_member_set_again(monkeypatch):
    # The n = 8 CI code: each dual spans its own members once, and the
    # second dual reads D's basis, not D.subgroup.gens, which would span
    # all 262,144 words of D again.
    from groupdual import groups as groups_module

    A = make_group([2, 4])
    words = ["01:13:00:12:01:13:11:01", "01:10:01:02:02:13:13:10", "11:10:01:11:13:13:12:11"]
    spec = PowerGroup(A, 8).spec
    C = code_from_generators(A, 8, [spec.parse_element(w.replace(":", "")) for w in words])
    phi = all_dualities(A)[3]
    spans = []

    def counted(packing, gens):
        basis, span = real(packing, gens)
        spans.append(len(span))
        return basis, span

    real = groups_module._Packing.span
    monkeypatch.setattr(groups_module._Packing, "span", counted)
    D = right_dual(C, phi)
    assert left_dual(D, phi) == C
    assert spans == [8**8 // 64, 64]
    assert "gens" not in D.subgroup.__dict__


def test_self_dual_kind_of_long_codes_builds_no_dual():
    # The n = 8 CI code: 2.8 s when both duals of order 262,144 were built.
    import time

    A = make_group([2, 4])
    words = ["01:13:00:12:01:13:11:01", "01:10:01:02:02:13:13:10", "11:10:01:11:13:13:12:11"]
    spec = PowerGroup(A, 8).spec
    C = code_from_generators(A, 8, [spec.parse_element(w.replace(":", "")) for w in words])
    start = time.perf_counter()
    assert self_dual_kind(C, all_dualities(A)[3]) == DualKind.NONE
    assert time.perf_counter() - start < 0.5
    # An order-32 code in (Z/2)^30: its duals, of order 2^25, exceed the
    # scan bound, and the answer needs neither.
    B, n = make_group([2]), 30
    spec = PowerGroup(B, n).spec
    gens = [spec.element([int(i // 6 == j) for i in range(n)]) for j in range(5)]
    C = code_from_generators(B, n, gens)
    assert C.order == 32
    phi = canonical_duality(B)
    with pytest.raises(LimitExceededError):
        left_dual(C, phi)
    assert self_dual_kind(C, phi) == DualKind.SELF_ORTHOGONAL


def test_yes_no_questions_build_no_dual(monkeypatch):
    from groupdual import groups as groups_module

    def refuse(*args):
        raise AssertionError("a dual was built")

    monkeypatch.setattr(codes_module, "_zero_subgroup", refuse)
    monkeypatch.setattr(groups_module, "_zero_subgroup", refuse)
    A = make_group([2, 4])
    C = code_from_generators(A, 2, [PowerGroup(A, 2).spec.parse_element("0202")])
    assert self_dual_kind(C, all_dualities(A)[3]) == DualKind.SELF_ORTHOGONAL
    E = make_group([2, 2, 2])
    H = subgroup_closure(E, [E.parse_element("110")])
    K = subgroup_closure(E, [E.parse_element("110"), E.parse_element("011")])
    assert is_symmetric(construct_duality_for_pair(H, K))
    H = subgroup_closure(A, [A.element([1, 0])])
    K = subgroup_closure(A, [A.element([0, 1])])
    assert is_symmetric(construct_duality_for_pair(H, K))
    assert verify_filtration_duality(make_group([2, 4, 4]))


def test_pair_check_rejects_a_duality_that_does_not_pair(monkeypatch):
    # phi_0 is symmetric, but Phi_0(10, 10) = -1, so <10> is not its own dual.
    A = make_group([2, 2])
    H = subgroup_closure(A, [A.parse_element("10")])
    assert is_symmetric(construct_duality_for_pair(H, H))
    monkeypatch.setattr(codes_module, "_adapted_basis", lambda A, H, K: ([], canonical_duality(A)))
    with pytest.raises(AssertionError, match="does not pair H with K"):
        construct_duality_for_pair(H, H)


def test_construct_pair_elementary_abelian():
    A = make_group([2, 2, 2])
    H = subgroup_closure(A, [A.parse_element("110")])
    K = subgroup_closure(A, [A.parse_element("110"), A.parse_element("011")])
    phi = construct_duality_for_pair(H, K)
    assert is_symmetric(phi)
    assert left_dual(code_from_subgroup(A, 1, H), phi).subgroup == K


def test_construct_pair_direct_sum_in_z2xz4():
    A = make_group([2, 4])
    H = subgroup_closure(A, [A.element([1, 0])])
    K = subgroup_closure(A, [A.element([0, 1])])
    phi = construct_duality_for_pair(H, K)
    assert is_symmetric(phi)
    assert right_dual(code_from_subgroup(A, 1, K), phi).subgroup == H


def test_impossible_pair_is_signalled_and_search_confirms():
    # |l_inf| * |C_1| = |A| but no duality pairs them.
    A = make_group([2, 4])
    l_inf = subgroup_closure(A, [A.element([0, 2])])
    C_1 = subgroup_closure(A, [A.element([0, 1])])
    with pytest.raises(UnsupportedPairError):
        construct_duality_for_pair(l_inf, C_1)
    assert search_duality_for_pair(l_inf, C_1) is None


def test_size_condition_violation_is_an_error():
    A = make_group([2, 4])
    H = subgroup_closure(A, [A.element([0, 2])])
    with pytest.raises(ValueError):
        construct_duality_for_pair(H, H)


def _size_pairs(A):
    subs = all_subgroups(A)
    return [(H, K) for H in subs for K in subs if H.order * K.order == A.cardinality]


def test_construct_pair_outputs_are_pinned():
    # Every size-condition pair of thirteen groups: the tau matrix, or None
    # where the pair is unsupported.  The digest was recorded from the
    # elementary basis-completion and direct-sum factor constructions that
    # preceded the single pulled-back Gram matrix.
    groups = [
        (2,), (2, 2), (2, 4), (3, 3), (2, 8), (4, 4), (2, 2, 2), (2, 2, 3),
        (27,), (2, 2, 2, 2), (2, 4, 4), (6, 6), (4, 8),
    ]
    out = []
    for orders in groups:
        for H, K in _size_pairs(make_group(orders)):
            try:
                tau = [list(r) for r in construct_duality_for_pair(H, K).tau.matrix]
            except UnsupportedPairError:
                tau = None
            out.append([list(orders), str(H), str(K), tau])
    assert (len(out), sum(row[3] is not None for row in out)) == (3090, 2244)
    digest = hashlib.sha256(json.dumps(out).encode()).hexdigest()
    assert digest == "52dbd1d383d0dfc762d7566b4a6096954f8ecdbe547ad28d21be1a781d92a339"


def test_construct_pair_outputs_are_pinned_on_larger_groups():
    # The rows of the test above over seven more groups, among them bases
    # with more vectors than A has factors, as in Z/2 x Z/6 = <10, 03> (+)
    # <02>.  The digest was recorded from the elementary and direct-sum
    # constructions that preceded the single adapted basis.
    groups = [(2, 4, 8), (3, 3, 3), (2, 2, 4), (3, 9), (5, 5), (2, 6), (4, 4, 4)]
    out = []
    for orders in groups:
        for H, K in _size_pairs(make_group(orders)):
            try:
                tau = [list(r) for r in construct_duality_for_pair(H, K).tau.matrix]
            except UnsupportedPairError:
                tau = None
            out.append([list(orders), str(H), str(K), tau])
    assert (len(out), sum(row[3] is not None for row in out)) == (6605, 1684)
    digest = hashlib.sha256(json.dumps(out).encode()).hexdigest()
    assert digest == "585a54de490ad4c49c58a174e9075b485abcbaef4093d4148bdb4f87bf14c7a3"


@pytest.mark.parametrize("orders", [[2, 4], [4, 4], [2, 8], [2, 2, 3], [27], [6, 6]])
def test_direct_sum_pairs_against_kernel_and_search(orders):
    # None of these groups is elementary abelian, so every constructed pair
    # is a direct sum; each is checked without the construction's own
    # lattice check: symmetry, the kernel duals, and exhaustive search.
    A = make_group(orders)
    built = 0
    for H, K in _size_pairs(A):
        try:
            phi = construct_duality_for_pair(H, K)
        except UnsupportedPairError:
            continue
        assert is_symmetric(phi)
        CH = code_from_subgroup(A, 1, H)
        assert left_dual(CH, phi).subgroup == right_dual(CH, phi).subgroup == K
        assert search_duality_for_pair(H, K) is not None
        built += 1
    assert built > 0


def test_filtration_of_z2xz4():
    A = make_group([2, 4])
    pairs = mult_by_p_filtration(A, 2)
    orders = [(ker.order, im.order) for ker, im in pairs]
    assert orders == [(1, 8), (4, 2), (8, 1)]
    assert verify_filtration_duality(A)


@pytest.mark.parametrize("orders", [[8], [9], [2, 2, 2]])
def test_filtration_duality_more_groups(orders):
    assert verify_filtration_duality(make_group(orders))


@pytest.mark.parametrize("orders,passes", [([2, 2, 2, 2], 0), ([2, 4], 2), ([4, 4], 1)])
def test_filtration_tests_each_proper_level_once(monkeypatch, orders, passes):
    # {0} and A are characteristic in every group; (2,4) has the distinct
    # proper levels A[2] and 2A, (4,4) only A[2] = 2A.
    tested = []

    def counting(H, limits=None):
        tested.append(H)
        return is_characteristic(H, limits)

    monkeypatch.setattr(codes_module, "is_characteristic", counting)
    A = make_group(orders)
    mult_by_p_filtration(A, 2)
    assert len(tested) == passes == len(set(tested))
    assert all(1 < H.order < A.cardinality for H in tested)


def test_filtration_rejects_a_level_that_is_not_characteristic(monkeypatch):
    monkeypatch.setattr(codes_module, "is_characteristic", lambda H, limits=None: False)
    with pytest.raises(AssertionError, match="not characteristic"):
        mult_by_p_filtration(make_group([2, 4]), 2)


def test_filtration_checks_the_bound_before_building_a_level(monkeypatch):
    # Elementary abelian groups have no proper level to test for being
    # characteristic, so the bound must be checked before the levels.
    def refuse(*args):
        raise AssertionError("a filtration level was built")

    monkeypatch.setattr(codes_module, "_multiples", refuse)
    for orders in ([2] * 13, [3] * 9, [2] * 16, [4] * 7):
        A = make_group(orders)
        with pytest.raises(
            LimitExceededError,
            match=f"^group of order {A.cardinality} exceeds enumeration bound 4096$",
        ):
            mult_by_p_filtration(A, A.primes()[0], Limits())
    with pytest.raises(LimitExceededError, match="order 16 exceeds enumeration bound 15"):
        verify_filtration_duality(make_group([2, 2, 2, 2]), 2, Limits(enumeration_bound=15))


def test_filtration_rejects_non_p_groups():
    with pytest.raises(ValueError):
        mult_by_p_filtration(make_group([6]), 2)


def test_duality_dependence_matches_stabilizer_structure():
    A = make_group([2, 4])
    socle = subgroup_closure(A, [A.element([1, 0]), A.element([0, 2])])
    report = duality_dependence(socle)
    assert report.characteristic
    assert len(report.left_classes) == 1
    assert len(report.right_classes) == 1

    l0 = subgroup_closure(A, [A.element([1, 0])])
    report = duality_dependence(l0)
    assert not report.characteristic
    assert len(report.right_classes) == 2


def _stabilizer_cosets(H, auts):
    """Oracle: Aut(A) indices partitioned into the cosets stab(H) o tau,
    with stab(H) found from element sets and each coset by `compose`;
    cosets in order of their least index, each sorted."""
    members = H.element_set()
    stab = [
        s for s in auts if {s.apply(h).coords for h in H.elements} == members
    ]
    index = {tau.matrix: i for i, tau in enumerate(auts)}
    assigned, cosets = set(), []
    for tau in auts:
        if index[tau.matrix] in assigned:
            continue
        coset = sorted(index[s.compose(tau).matrix] for s in stab)
        assigned.update(coset)
        cosets.append(tuple(coset))
    return cosets


@pytest.mark.parametrize("orders", [[2, 2, 2], [4, 4], [2, 4], [3, 3], [2, 8]])
def test_duality_dependence_classes_are_stabilizer_cosets(orders):
    # Right duals R_phi(H) = L_0(H tau) are equal exactly on the cosets
    # stab(H) o tau; left duals L_phi(H) = L_0(H tau*) on those of tau*.
    # Index i is the duality with tau_i, so the cosets of the list of the
    # tau_i* give the left classes as sets of duality indices.
    A = make_group(orders)
    dualities = all_dualities(A)
    auts = [phi.tau for phi in dualities]
    stars = [adjoint(phi).tau for phi in dualities]
    for H in all_subgroups(A):
        report = duality_dependence(H)
        assert [ids for _, ids in report.right_classes] == _stabilizer_cosets(H, auts)
        assert [ids for _, ids in report.left_classes] == _stabilizer_cosets(H, stars)


def _full_scan_dual(C, phi, side):
    """Oracle: every member of C is a constraint, not just a basis."""
    ext = extend_duality(phi, C.power.n)
    members = C.subgroup.elements
    if side == "left":
        ok = lambda x: all(inner_product_exponent(ext, x, c) == 0 for c in members)
    else:
        ok = lambda x: all(inner_product_exponent(ext, c, x) == 0 for c in members)
    return frozenset(x.coords for x in C.power.spec.elements() if ok(x))


@pytest.mark.parametrize(
    "orders,n,seed", [([2, 4], 2, 1), ([2, 2], 3, 2), ([3], 3, 3), ([4], 2, 4), ([6], 2, 5)]
)
def test_duals_with_redundant_generators_match_full_scan(orders, n, seed):
    rng = random.Random(seed)
    A = make_group(orders)
    spec = PowerGroup(A, n).spec
    elems = list(spec.elements())
    g1, g2 = rng.choice(elems), rng.choice(elems)
    # Redundant generators: a sum, a multiple, a repeat and zero.
    gens = [g1, g2, g1 + g2, 2 * g1, g2, spec.zero()]
    C = code_from_generators(A, n, gens)
    for phi in rng.sample(all_dualities(A), min(3, len(all_dualities(A)))):
        L, R = left_dual(C, phi), right_dual(C, phi)
        assert L.subgroup.element_set() == _full_scan_dual(C, phi, "left")
        assert R.subgroup.element_set() == _full_scan_dual(C, phi, "right")
        # The duals' generators are a basis, so their own duals scan
        # against few constraints; they must still give back C.
        assert right_dual(L, phi).subgroup.element_set() == _full_scan_dual(L, phi, "right")
        assert right_dual(L, phi) == C
        assert left_dual(R, phi) == C
        # Dualities over A^n itself that couple the first two blocks: the
        # oracle scans the same subgroup as a length-1 code over A^n.
        C1 = code_from_subgroup(spec, 1, C.subgroup)
        k = A.rank
        for i, j in ((0, k), (k, 0)):
            matrix = [list(r) for r in extend_duality(phi, n).tau.matrix]
            matrix[i][j] = spec.orders[j] // math.gcd(spec.orders[i], spec.orders[j])
            coupled = duality_from_matrix(spec, matrix)
            for side, dual in (("left", left_dual), ("right", right_dual)):
                D = dual(C, coupled).subgroup
                assert D.element_set() == _full_scan_dual(C1, coupled, side)
                assert D == dual(C1, coupled).subgroup


def test_dual_rejects_a_duality_over_another_group():
    C = code_from_generators(make_group([2, 4]), 2, [])
    phi = all_dualities(make_group([2, 2]))[0]
    for dual in (left_dual, right_dual, self_dual_kind):
        with pytest.raises(ValueError, match="neither over the base nor the power group"):
            dual(C, phi)


CENSUS_GROUPS = (
    [2], [2, 2], [2, 4], [3, 3], [2, 8], [4, 4], [2, 2, 2], [2, 2, 3], [27]
)


@pytest.mark.parametrize("orders", CENSUS_GROUPS + ([2, 6], [3, 9]))
def test_duals_by_image_match_the_scan(orders):
    # Oracle: one scan per (duality, subgroup, side); the kernel must give
    # the same subgroups, down to their generators.  Both share
    # _pairing_forms, so on groups of order <= 8 the duals are also checked
    # against the full scan, which pairs every member through
    # inner_product_exponent.
    A = make_group(orders)
    subs = all_subgroups(A)
    dualities = all_dualities(A)
    rows = _dual_rows(A, subs, dualities)
    assert len(rows) == len(dualities)
    for phi, row in zip(dualities, rows):
        assert len(row) == len(subs)
        for H, (L, R) in zip(subs, row):
            CH = code_from_subgroup(A, 1, H)
            for got, want in (
                (L, left_dual(CH, phi).subgroup),
                (R, right_dual(CH, phi).subgroup),
            ):
                assert got.elements == want.elements
                assert got.generators == want.generators
            if A.cardinality <= 8:
                assert L.element_set() == _full_scan_dual(CH, phi, "left")
                assert R.element_set() == _full_scan_dual(CH, phi, "right")


def _dual_rows(A, subs, dualities):
    """The (left, right) dual pairs of each row of `duals_table` under the
    given dualities."""
    rows = duals_table(A, subs, dualities)
    return [[(d["left"], d["right"]) for d in row["duals"]] for row in rows]


def _same_rows(got, want):
    def key(rows):
        return [[(S.elements, S.generators) for pair in row for S in pair] for row in rows]

    assert key(got) == key(want)


@pytest.mark.parametrize("orders", [[2, 4], [3, 3], [2, 8], [2, 2, 2]])
def test_duals_by_image_rows_do_not_depend_on_the_duality_list(orders):
    # Right rows are memoised by tau within a call and read as left rows of
    # the adjoint; a list without phi* (one duality), in another order or
    # with repeats must still give each duality its row over the full list.
    A = make_group(orders)
    subs = all_subgroups(A)
    dualities = all_dualities(A)
    full = _dual_rows(A, subs, dualities)
    assert any(not is_symmetric(phi) for phi in dualities)
    for phi, row in zip(dualities, full):
        _same_rows(_dual_rows(A, subs, [phi]), [row])
    _same_rows(_dual_rows(A, subs, dualities[::-1]), full[::-1])
    picks = [i for i in range(0, len(dualities), 3) for _ in range(2)] + [0, 1, 0]
    _same_rows(
        _dual_rows(A, subs, [dualities[i] for i in picks]),
        [full[i] for i in picks],
    )


def test_duals_table_limit_applies_after_the_duals_are_cached():
    A = make_group([2, 2, 2])
    subs = [H for H in all_subgroups(A) if H.order == 2]
    # Every dual of an order-2 subgroup of (Z/2)^3 has order 4.
    assert len(list(duals_table(A, subs))) == 168
    # The rows are yielded lazily; the checks raise at the call, before any row.
    with pytest.raises(LimitExceededError, match="dual code of order 4 exceeds scan bound 3"):
        duals_table(A, subs, limits=Limits(scan_bound=3))
    with pytest.raises(LimitExceededError, match="exceeds enumeration bound 7"):
        duals_table(A, subs, limits=Limits(enumeration_bound=7))


def test_every_route_over_aut_checks_the_enumeration_bound_before_the_scan_bound():
    A = make_group([2, 2, 2])
    subs = all_subgroups(A)
    H = next(S for S in subs if S.order == 2)
    K = next(S for S in subs if S.order == 4)
    limits = Limits(enumeration_bound=1, scan_bound=1)
    calls = [
        lambda: duals_table(A, [H], limits=limits),
        lambda: search_duality_for_pair(H, K, limits),
        lambda: duality_dependence(H, limits),
    ]
    for call in calls:
        with pytest.raises(
            LimitExceededError, match="^group of order 8 exceeds enumeration bound 1$"
        ):
            call()


def _search_by_scans(H, K):
    """Oracle: the first duality in Aut order under which the left and the
    right dual of H are K and those of K are H, else None."""
    A = H.parent
    CH, CK = code_from_subgroup(A, 1, H), code_from_subgroup(A, 1, K)
    for phi in all_dualities(A):
        if (
            left_dual(CH, phi).subgroup == K
            and right_dual(CH, phi).subgroup == K
            and left_dual(CK, phi).subgroup == H
            and right_dual(CK, phi).subgroup == H
        ):
            return phi
    return None


def test_search_duality_for_pair_matches_the_scans():
    unpaired = []
    for orders in ([2, 4], [2, 8], [4, 4], [2, 2, 3]):
        A = make_group(orders)
        subs = all_subgroups(A)
        for H in subs:
            for K in subs:
                if H.order * K.order == A.cardinality:
                    got = search_duality_for_pair(H, K)
                    assert got == _search_by_scans(H, K)
                    unpaired.append(got is None)
    # Some size-condition pairs of (2,4), (2,8) and (4,4) have no duality.
    assert any(unpaired) and not all(unpaired)


def test_search_duality_for_pair_builds_one_zero_set(monkeypatch):
    # The search compares image ids with the id of L_0(K), so a cold
    # lattice builds L_0(K) alone, not L_0 of every image of H.
    from groupdual import groups as groups_module

    A = make_group([2, 2, 2, 2])
    fours = [S for S in all_subgroups(A) if S.order == 4]
    H, K = fours[0], fours[-1]
    built = []
    zero_subgroup = groups_module._zero_subgroup

    def counting(*args):
        built.append(1)
        return zero_subgroup(*args)

    groups_module._lattice.cache_clear()
    monkeypatch.setattr(groups_module, "_zero_subgroup", counting)
    phi = search_duality_for_pair(H, K)
    monkeypatch.setattr(groups_module, "_zero_subgroup", zero_subgroup)
    assert len(built) <= 1 and phi is not None
    CH = code_from_subgroup(A, 1, H)
    assert left_dual(CH, phi).subgroup == right_dual(CH, phi).subgroup == K


def _filtration_is_dual(A, pairs):
    """Whether every level is characteristic and L_0 swaps ker and im: by
    `_swapped_by_l0`, the filtration test the library runs."""
    if not all(is_characteristic(H) for level in pairs for H in level):
        return False
    return _swapped_by_l0(A, pairs)


def _filtration_dual_under_every_duality(A, pairs):
    """Oracle: the four duals of every level, scanned under every duality."""
    for phi in all_dualities(A):
        for ker, im in pairs:
            for H, K in ((ker, im), (im, ker)):
                CH = code_from_subgroup(A, 1, H)
                if left_dual(CH, phi).subgroup != K:
                    return False
                if right_dual(CH, phi).subgroup != K:
                    return False
    return True


def test_filtration_test_needs_characteristic_levels():
    A = make_group([2, 2])
    H = subgroup_closure(A, [A.element([1, 0])])
    L0 = left_dual(code_from_subgroup(A, 1, H), canonical_duality(A)).subgroup
    pairs = [(H, L0)]
    # The pair passes under phi_0 alone, but <10> is not characteristic.
    assert right_dual(code_from_subgroup(A, 1, H), canonical_duality(A)).subgroup == L0
    assert left_dual(code_from_subgroup(A, 1, L0), canonical_duality(A)).subgroup == H
    assert not _filtration_is_dual(A, pairs)
    assert not _filtration_dual_under_every_duality(A, pairs)


@pytest.mark.parametrize("orders", [[2, 2], [2, 4], [3, 3], [2, 8], [2, 2, 2]])
def test_filtration_test_matches_every_duality_on_every_pair(orders):
    A = make_group(orders)
    subs = all_subgroups(A)
    pairs = [(H, K) for H in subs for K in subs if H.order * K.order == A.cardinality]
    verdicts = set()
    for pair in pairs:
        verdict = _filtration_is_dual(A, [pair])
        assert verdict == _filtration_dual_under_every_duality(A, [pair])
        verdicts.add(verdict)
    assert verdicts == {True, False}
    levels = mult_by_p_filtration(A, A.primes()[0])
    assert _filtration_is_dual(A, levels) == _filtration_dual_under_every_duality(A, levels)


def test_duals_table_rejects_another_group():
    A, B = make_group([2, 4]), make_group([2, 2])
    with pytest.raises(ValueError, match="different group"):
        duals_table(A, all_subgroups(A), all_dualities(B))
    with pytest.raises(ValueError, match="does not live"):
        duals_table(A, all_subgroups(B))


def test_no_group_element_per_member_of_a_code_or_its_dual(capsys, monkeypatch):
    # Subgroups hold coordinates: the duals, the enumerators and the CLI
    # commands build as many GroupElements for a dual of order 1024 as for
    # one of order 64 (the same number of generator words in each code).
    from groupdual import cli, cwe, hwe
    from groupdual import groups as groups_module

    A, n = make_group([2, 4]), 4
    phi = all_dualities(A)[3]
    built = []
    post_init = groups_module.GroupElement.__post_init__

    def counting(self):
        built.append(1)
        post_init(self)

    def count(words):
        argv = ["--group", "2,4", "--n", str(n), "--duality-index", "3", "--code-gens", *words]
        gens = [PowerGroup(A, n).spec.parse_element(w.replace(":", "")) for w in words]
        C = code_from_generators(A, n, gens)
        monkeypatch.setattr(groups_module.GroupElement, "__post_init__", counting)
        built.clear()
        L, R = left_dual(C, phi), right_dual(C, phi)
        for E in (C, L, R):
            cwe(E), hwe(E)
        assert cli.run(["dual", *argv, "--side", "left"]) == 0
        for enumerator in ("complete", "hamming"):
            assert cli.run(
                ["macwilliams", "verify", *argv, "--side", "right", "--enumerator", enumerator]
            ) == 0
        monkeypatch.setattr(groups_module.GroupElement, "__post_init__", post_init)
        capsys.readouterr()
        return L.order, len(built)

    small, big = ["01:00:00:00"] * 3, ["01:00:00:00", "00:01:00:00", "00:00:01:00"]
    (order_small, built_small), (order_big, built_big) = count(small), count(big)
    assert (order_small, order_big) == (1024, 64)
    assert built_small == built_big < 64


def test_no_group_element_in_the_loops_over_a_group(monkeypatch):
    # Fourier, Poisson, the dual-dependence report and a cold Aut(A)
    # enumeration loop over A, or Aut(A), on coordinate tuples only.
    from groupdual import fourier_transform, groups as groups_module, poisson_check

    A = make_group([4, 4])
    m = A.exponent
    f = {a: {"x": CycInt(m, a + a)} for a in product(range(4), repeat=2)}
    subs = all_subgroups(A)
    built = []
    post_init = groups_module.GroupElement.__post_init__

    def counting(self):
        built.append(1)
        post_init(self)

    monkeypatch.setattr(groups_module.GroupElement, "__post_init__", counting)
    for cache in (groups_module._automorphisms, groups_module._lattice, groups_module._adjoints):
        cache.cache_clear()
    assert len(groups_module._automorphisms(A)) == 96
    fourier_transform(A, f)
    for H in subs:
        assert poisson_check(H, f)
        duality_dependence(H)
    assert built == []


@pytest.mark.parametrize("orders", CENSUS_GROUPS)
def test_extend_duality_is_the_constructor_built_block_diagonal(orders):
    from groupdual import Automorphism, Duality

    A = make_group(orders)
    for phi in all_dualities(A):
        for n in (1, 2, 3):
            spec = PowerGroup(A, n).spec
            rows = [
                tuple(
                    phi.tau.matrix[i][j - b * A.rank] if 0 <= j - b * A.rank < A.rank else 0
                    for j in range(spec.rank)
                )
                for b in range(n)
                for i in range(A.rank)
            ]
            assert extend_duality(phi, n) == Duality(Automorphism(spec, spec, tuple(rows)))


def test_extend_duality_does_not_span_the_power_group():
    # Checking bijectivity would enumerate all 8^8 = 16,777,216 words.
    import time

    phi = all_dualities(make_group([2, 4]))[3]
    start = time.perf_counter()
    ext = extend_duality(phi, 8)
    assert time.perf_counter() - start < 0.5
    assert ext.parent == PowerGroup(make_group([2, 4]), 8).spec
    assert ext.tau.matrix[14:] == ((0,) * 14 + phi.tau.matrix[0], (0,) * 14 + phi.tau.matrix[1])


def test_automorphisms_over_a_power_group_are_checked_without_a_span():
    # The adjoint's constructor checks bijectivity by a kernel, not by
    # spanning all 8^7 = 2,097,152 words of (Z/2 x Z/4)^7.
    import time

    from groupdual import Automorphism

    phi = all_dualities(make_group([2, 4]))[3]
    ext = extend_duality(phi, 7)
    start = time.perf_counter()
    star = adjoint(ext)
    assert time.perf_counter() - start < 0.5
    assert star == extend_duality(adjoint(phi), 7)
    singular = [list(r) for r in ext.tau.matrix]
    singular[13] = [0] * 14
    with pytest.raises(ValueError, match="does not define a bijection"):
        Automorphism(ext.parent, ext.parent, tuple(map(tuple, singular)))


def test_search_duality_for_pair_refuses_subgroups_of_different_groups():
    A, B = make_group([2, 2]), make_group([4])
    H = subgroup_closure(A, [A.element([1, 0])])
    K = subgroup_closure(B, [B.element([2])])
    for search in (construct_duality_for_pair, search_duality_for_pair):
        with pytest.raises(ValueError, match="subgroups of different groups"):
            search(H, K)


@pytest.mark.parametrize("orders", [[2, 4], [2, 2, 2], [3, 3], [2, 2, 3]])
def test_one_gram_index_per_group(monkeypatch, orders):
    # congruence_classes, duals_table and the pair search share one index
    # of Aut(A), built once per group: each tau is located by bisection
    # once for tau -> tau* and once in its congruence class.
    from groupdual import automorphism_group, congruence_classes
    from groupdual import dualities as dualities_module
    from groupdual import groups as groups_module

    A = make_group(orders)
    subs = all_subgroups(A)
    calls = []
    bisect_left = groups_module.bisect_left

    def counting(*args):
        calls.append(1)
        return bisect_left(*args)

    monkeypatch.setattr(groups_module, "bisect_left", counting)
    groups_module._adjoints.cache_clear()
    dualities_module._congruence_orbits.cache_clear()
    for _ in range(3):
        congruence_classes(A)
        list(duals_table(A, subs))
        search_duality_for_pair(subs[1], subs[-2])
    assert len(calls) == 2 * len(automorphism_group(A))


def _backtracking_cyclic_basis(orders, S):
    """Oracle: the depth-first search for a cyclic basis of S that the
    adapted basis replaced by one greedy pass.  Candidates come by
    (-order, x); a choice that cannot be completed is taken back."""
    candidates = sorted((-_order(orders, x), x) for x in S.members if any(x))

    def recurse(basis, size):
        if size == S.order:
            return basis
        for minus_o, x in candidates:
            grown = len(_span(orders, basis + [x])[1])
            if grown == -minus_o * size:
                out = recurse(basis + [x], grown)
                if out is not None:
                    return out
        return None

    return recurse([], 1)


@pytest.mark.parametrize("orders", CENSUS_GROUPS + ([2, 4, 8], [4, 4, 4], [4, 8, 8]))
def test_direct_sum_basis_matches_the_backtracking_search(orders):
    # The greedy pass never backtracks, so it picks the bases the search
    # did, on every pair H (+) K = A.
    A = make_group(orders)
    subs = all_subgroups(A)
    by_order = {}
    for S in subs:
        by_order.setdefault(S.order, []).append(S)
    oracle, pairs = {}, 0
    for H in subs:
        for K in by_order[A.cardinality // H.order]:
            if len(H.element_set() & K.element_set()) > 1:
                continue
            for S in (H, K):
                if S not in oracle:
                    oracle[S] = _backtracking_cyclic_basis(A.orders, S)
            basis, _ = codes_module._adapted_basis(A, H, K)
            assert basis == oracle[H] + oracle[K]
            pairs += 1
    assert pairs >= 2


FILTRATION_GROUPS = [o for o in CENSUS_GROUPS if len(make_group(o).primes()) == 1]


@pytest.mark.parametrize("orders", FILTRATION_GROUPS + [[2, 4, 8], [3, 9]])
def test_filtration_levels_keep_an_independent_basis(orders):
    # Each level's basis is independent: its span has the product of the
    # basis orders as its order, and that span is the level.  The
    # generators stay the greedy basis of the sorted members.
    A = make_group(orders)
    for level in mult_by_p_filtration(A, A.primes()[0]):
        for S in level:
            assert list(S.members) == sorted(S.members)
            span = _span(A.orders, S.basis)[1]
            assert len(span) == math.prod(_order(A.orders, b) for b in S.basis)
            assert span == S.element_set()
            assert [g.coords for g in S.generators] == _span(A.orders, S.members)[0]


def _supported_pairs(A):
    """The pairs construct-pair supports: the size condition in an
    elementary abelian group, complementary direct summands otherwise."""
    elementary = A.primes() == [A.exponent]
    return [(H, K) for H, K in _size_pairs(A)
            if elementary or H.element_set() & K.element_set() == {(0,) * A.rank}]


@pytest.mark.parametrize("orders", CENSUS_GROUPS)
def test_adapted_basis_matches_the_tuple_basis_on_the_census_pools(orders):
    # The packed pass picks the basis and the duality of the tuple pass on
    # every pair construct-pair supports.
    A = make_group(orders)
    pairs = _supported_pairs(A)
    for H, K in pairs:
        basis, phi = codes_module._adapted_basis(A, H, K)
        want_basis, want_phi = census_oracle._adapted_basis(A, H, K)
        assert (basis, phi.tau.matrix) == (want_basis, want_phi.tau.matrix)
    assert pairs


@pytest.mark.parametrize("orders,h_gens,k_gens", [
    ((2, 4, 8, 16), ["1,1,1,1"], ["1,0,0,0", "0,1,0,0", "0,0,1,0"]),
    ((4, 8, 8), ["122", "014"], ["001"]),
    ((2, 2, 2, 2), ["1100", "0110"], ["1100", "0011"]),
    ((2, 6), ["10", "03"], ["02"]),
])
def test_adapted_basis_matches_the_tuple_basis_on_the_ci_pairs(orders, h_gens, k_gens):
    # The CI's construct-pair cases: a basis with more vectors than A has
    # factors, and a swap with H cap K != 0.
    A = make_group(orders)
    H, K = (subgroup_closure(A, map(A.parse_element, gens)) for gens in (h_gens, k_gens))
    basis, phi = codes_module._adapted_basis(A, H, K)
    want_basis, want_phi = census_oracle._adapted_basis(A, H, K)
    assert (basis, phi.tau.matrix) == (want_basis, want_phi.tau.matrix)
    assert construct_duality_for_pair(H, K) == phi


@pytest.mark.parametrize("orders", CENSUS_GROUPS + ([2, 4, 8], [3, 9], [4, 8], [9, 27]))
def test_characteristic_test_matches_the_tuple_test(orders):
    # Every subgroup as enumerated (no stored basis), as closed from a
    # random generating set, and each filtration level (a stored basis).
    A = make_group(orders)
    rng = random.Random(str(orders))
    subs = all_subgroups(A)
    closed = [subgroup_closure(A, rng.sample(H.elements, min(3, H.order))) for H in subs]
    levels = [S for p in A.primes() if len(A.primes()) == 1
              for level in mult_by_p_filtration(A, p) for S in level]
    for H in subs + closed + levels:
        assert is_characteristic(H) == census_oracle.is_characteristic(H), H
    assert all(map(is_characteristic, levels))

"""Group, subgroup, and automorphism machinery.

Derived counts are pinned only after being recomputed here by an
independent oracle (brute-force subset closure, element-order census).
"""

import math
from itertools import combinations, combinations_with_replacement, product

import pytest
from hypothesis import given, settings, strategies as st

from groupdual import (
    Automorphism,
    Homomorphism,
    Limits,
    LimitExceededError,
    adjoint,
    all_dualities,
    all_subgroups,
    aut_order,
    automorphism_group,
    count_symmetric_dualities,
    identity_automorphism,
    is_characteristic,
    is_symmetric,
    make_group,
    primary_decomposition,
    scalar_automorphism,
    stabilizer,
    subgroup_closure,
    subgroup_from_elements,
)
from groupdual.dualities import _elementary_generators
from groupdual.groups import (
    _adjoints,
    _automorphisms,
    _closure,
    _kernel_generators,
    _known_automorphism,
    _lattice,
    _order,
    _packing,
    _prime_factors,
    _unit_rows,
    _unpacker,
)
from span_oracle import _span

CENSUS_GROUPS = (
    [2], [2, 2], [2, 4], [3, 3], [2, 8], [4, 4], [2, 2, 2], [2, 2, 3], [27]
)

SMALL_GROUPS = st.sampled_from(
    [make_group(o) for o in ([2, 2], [2, 4], [3, 3], [8], [9], [6], [2, 2, 2])]
)


def test_order_sequence_is_not_normalized():
    assert make_group([2, 4]).orders == (2, 4)
    assert make_group([4, 2]).orders == (4, 2)
    assert make_group([2, 4]) != make_group([4, 2])


def test_exponent_cardinality_weights():
    A = make_group([2, 4])
    assert (A.exponent, A.cardinality, A.weights) == (4, 8, (2, 1))
    B = make_group([6, 4])
    assert (B.exponent, B.cardinality, B.weights) == (12, 24, (2, 3))


def test_element_text_form_digit_concat_and_comma():
    A = make_group([2, 4])
    a = A.element([1, 3])
    assert A.format_element(a) == "13"
    assert A.parse_element("13") == a
    B = make_group([12, 2])
    b = B.element([11, 1])
    assert B.format_element(b) == "11,1"
    assert B.parse_element("11,1") == b


def test_element_order_against_repeated_addition_oracle():
    A = make_group([2, 4])
    for a in A.elements():
        n, x = 1, a
        while not x.is_zero():
            x = x + a
            n += 1
        assert a.order == n


@given(SMALL_GROUPS, st.data())
@settings(max_examples=40, deadline=None)
def test_subgroup_closure_lagrange(A, data):
    elems = list(A.elements())
    gens = data.draw(st.lists(st.sampled_from(elems), max_size=3))
    H = subgroup_closure(A, gens)
    assert A.cardinality % H.order == 0
    # Closure under addition and negation.
    eset = H.element_set()
    for x in H.elements:
        assert (-x).coords in eset
        for y in H.elements:
            assert (x + y).coords in eset


def _brute_force_subgroups(A):
    """Oracle: all addition-closed subsets containing zero."""
    elems = list(A.elements())
    found = set()
    for r in range(len(elems) + 1):
        for subset in combinations(elems, r):
            sset = {e.coords for e in subset}
            if A.zero().coords not in sset:
                continue
            if all((x + y).coords in sset for x in subset for y in subset):
                found.add(frozenset(sset))
    return found


def test_all_subgroups_of_z2xz4_matches_brute_force():
    A = make_group([2, 4])
    oracle = _brute_force_subgroups(A)
    assert len(oracle) == 8
    computed = {s.element_set() for s in all_subgroups(A)}
    assert computed == oracle


def test_all_subgroups_of_klein_group():
    A = make_group([2, 2])
    assert {s.element_set() for s in all_subgroups(A)} == _brute_force_subgroups(A)


def _subgroups_by_elements(A):
    """Oracle: every subgroup, grown breadth-first from {0} by one element
    at a time, with one span per (subgroup found, element outside it)."""
    elems = list(product(*map(range, A.orders)))
    trivial = frozenset([(0,) * A.rank])
    found = {trivial}
    frontier = [([], trivial)]
    while frontier:
        grown = []
        for basis, inside in frontier:
            for x in elems:
                if x not in inside:
                    more, span = _span(A.orders, basis + [x])
                    if frozenset(span) not in found:
                        found.add(frozenset(span))
                        grown.append((more, frozenset(span)))
        frontier = grown
    return found


@pytest.mark.parametrize("orders", CENSUS_GROUPS + (
    [2, 2, 2, 2], [2, 2, 2, 2, 2], [2, 4, 8], [4, 4, 4], [2, 2, 4, 4], [6, 6], [3, 9], [12, 2],
))
def test_all_subgroups_match_the_one_element_extensions(orders):
    # Cyclic joins find the element sets that one-element extensions find,
    # each once, in (order, members) order.
    A = make_group(orders)
    subs = all_subgroups(A)
    assert [s.element_set() for s in subs] == sorted(
        _subgroups_by_elements(A), key=lambda s: (len(s), sorted(s))
    )
    assert all(s.members == tuple(sorted(s.element_set())) for s in subs)


def test_subgroup_from_elements_rejects_non_closed_sets():
    A = make_group([2, 2])
    with pytest.raises(ValueError):
        subgroup_from_elements(A, [A.zero(), A.element([1, 0]), A.element([0, 1])])


def test_primary_decomposition_against_order_census():
    A = make_group([12, 2])
    parts = primary_decomposition(A)
    assert {p: part.orders for p, part in parts.items()} == {2: (4, 2), 3: (3,)}
    # Oracle: the element-order census of A factors as the censuses of the
    # p-parts combined by lcm.
    census = {}
    for a in A.elements():
        census[a.order] = census.get(a.order, 0) + 1
    combined = {}
    for o2 in parts[2].elements():
        for o3 in parts[3].elements():
            d = math.lcm(o2.order, o3.order)
            combined[d] = combined.get(d, 0) + 1
    assert census == combined


def test_homomorphism_rejects_order_violations():
    A, B = make_group([4]), make_group([2, 4])
    with pytest.raises(ValueError):
        # An order-2 generator cannot map to an order-4 element.
        Homomorphism(make_group([2]), B, ((0, 1),))
    # But it can map to an order-2 element.
    Homomorphism(make_group([2]), B, ((1, 2),))
    Homomorphism(A, make_group([2]), ((1,),))


@pytest.mark.parametrize(
    "orders,count",
    [([2, 2], 6), ([2, 4], 8), ([3, 3], 48), ([8], 4), ([9], 6), ([2, 2, 2], 168)],
)
def test_automorphism_group_sizes(orders, count):
    assert len(automorphism_group(make_group(orders))) == count


def _inverse(tau):
    """tau^-1 read from the table of tau on every element of A."""
    A = tau.parent
    lookup = {tau.apply(a).coords: a for a in A.elements()}
    rows = tuple(lookup[g.coords].coords for g in A.generators())
    return Automorphism(A, A, rows)


@given(SMALL_GROUPS, st.data())
@settings(max_examples=25, deadline=None)
def test_automorphism_group_laws(A, data):
    auts = automorphism_group(A)
    tau = data.draw(st.sampled_from(auts))
    sig = data.draw(st.sampled_from(auts))
    composed = tau.compose(sig)
    assert composed in auts
    ident = identity_automorphism(A)
    assert tau.compose(_inverse(tau)) == ident
    assert _inverse(tau).compose(tau) == ident
    assert tau.compose(ident) == tau


@pytest.mark.parametrize("orders", [[6], [12, 2]])
def test_aut_order_is_product_over_primary_parts(orders):
    A = make_group(orders)
    total = len(automorphism_group(A))
    parts = primary_decomposition(A)
    assert total == math.prod(len(automorphism_group(p)) for p in parts.values())


def test_scalar_automorphism_and_orders():
    A = make_group([3, 3])
    two = scalar_automorphism(A, 2)
    assert two.matrix == ((2, 0), (0, 2))
    assert two.order == 2
    assert identity_automorphism(A).order == 1


def test_characteristic_subgroups_of_z2xz4():
    A = make_group([2, 4])
    socle = subgroup_closure(A, [A.element([1, 0]), A.element([0, 2])])
    l0 = subgroup_closure(A, [A.element([1, 0])])
    assert is_characteristic(socle)
    assert not is_characteristic(l0)
    # Stabilizer index = orbit size (orbit-stabilizer).
    auts = automorphism_group(A)
    stab = stabilizer(l0)
    orbit = {frozenset(t.apply(h).coords for h in l0.elements) for t in auts}
    assert len(auts) == len(stab) * len(orbit)


def test_automorphism_rejects_non_bijective_matrix():
    A = make_group([2, 2])
    with pytest.raises(ValueError):
        Automorphism(A, A, ((1, 1), (1, 1)))


def _admissible_endomorphisms(A):
    """Every product of admissible rows, in the product's lexicographic order."""
    rows = [
        sorted(
            x.coords
            for x in A.elements()
            if all((d_i * c) % d_j == 0 for c, d_j in zip(x.coords, A.orders))
        )
        for d_i in A.orders
    ]
    return [Homomorphism(A, A, matrix) for matrix in product(*rows)]


def _image_has_every_element(hom):
    A = hom.source
    return len({hom.apply(a).coords for a in A.elements()}) == A.cardinality


def _brute_force_automorphisms(A):
    """Oracle: every admissible endomorphism whose image has |A| elements."""
    return [h.matrix for h in _admissible_endomorphisms(A) if _image_has_every_element(h)]


@pytest.mark.parametrize(
    "orders",
    [[2, 2], [2, 4], [3, 3], [2, 8], [4, 4], [2, 2, 2], [2, 2, 3], [27], [9, 3], [12, 2]],
)
def test_automorphism_group_matches_brute_force_in_order(orders):
    A = make_group(orders)
    assert [t.matrix for t in automorphism_group(A)] == _brute_force_automorphisms(A)


def _object_automorphisms(A):
    """Oracle: Aut(A) as `Automorphism` objects by the depth-first search
    that the packed enumeration replaced.  Row j must have order d_j and
    <row j> must meet the span of rows 0..j-1 only in 0; candidates come in
    sorted order, so the matrices come in lexicographic order."""
    orders = A.orders
    k = len(orders)
    elements = list(product(*map(range, orders)))
    candidates = [[x for x in elements if _order(orders, x) == d] for d in orders]
    primes = [sorted(_prime_factors(d)) for d in orders]
    auts = []

    def extend(rows, span):
        j = len(rows)
        if j == k:
            auts.append(_known_automorphism(A, rows))
            return
        d = orders[j]
        for r in candidates[j]:
            # A nontrivial subgroup of <r> contains some (d/p) r of prime order.
            if any(
                tuple(d // p * c % e for c, e in zip(r, orders)) in span
                for p in primes[j]
            ):
                continue
            rows.append(r)
            extend(rows, _span(orders, rows)[1] if j + 1 < k else span)
            rows.pop()

    extend([], {(0,) * k})
    return tuple(auts)


@pytest.mark.parametrize("orders", CENSUS_GROUPS + ([2, 4, 8], [3, 3, 3], [4, 4, 4], [2, 2, 6]))
def test_packed_automorphisms_decode_to_the_object_enumeration(orders):
    # The packed ints increase strictly, so the Aut index of tau is its
    # position, and they decode to the oracle's matrices in its order.
    A = make_group(orders)
    packed = _automorphisms(A)
    assert all(a < b for a, b in zip(packed, packed[1:]))
    unpack = _unpacker(A)
    assert [unpack(v) for v in packed] == [t.matrix for t in _object_automorphisms(A)]


def _bfs_closure(A, gens):
    """Oracle: breadth-first closure under adding each generator."""
    seen = {A.zero().coords}
    frontier = [A.zero()]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = x + g
            if y.coords not in seen:
                seen.add(y.coords)
                frontier.append(y)
    return seen


CLOSURE_GROUPS = st.sampled_from(
    [make_group(o) for o in ([2, 2], [2, 4], [3, 3], [8], [12, 2], [2, 2, 2], [4, 4], [9, 3])]
)


@given(CLOSURE_GROUPS, st.data())
@settings(max_examples=60, deadline=None)
def test_subgroup_closure_matches_bfs_oracle(A, data):
    elems = list(A.elements())
    gens = data.draw(st.lists(st.sampled_from(elems), max_size=5))
    H = subgroup_closure(A, gens)
    assert H.element_set() == _bfs_closure(A, gens)
    assert [e.coords for e in H.elements] == sorted(H.element_set())
    assert H.generators == tuple(gens)


def _big_omega(n):
    count, d = 0, 2
    while n > 1:
        while n % d == 0:
            n //= d
            count += 1
        d += 1
    return count


@given(CLOSURE_GROUPS, st.data())
@settings(max_examples=60, deadline=None)
def test_subgroup_from_elements_keeps_a_small_spanning_basis(A, data):
    elems = list(A.elements())
    gens = data.draw(st.lists(st.sampled_from(elems), max_size=5))
    members = sorted(_bfs_closure(A, gens), reverse=True)
    H = subgroup_from_elements(A, [A.element(c) for c in members])
    assert H.element_set() == frozenset(members)
    assert _bfs_closure(A, H.generators) == set(members)
    assert len(H.generators) <= _big_omega(H.order)


@given(CLOSURE_GROUPS, st.data())
@settings(max_examples=60, deadline=None)
def test_subgroup_from_elements_rejects_every_non_closed_set(A, data):
    elems = list(A.elements())
    subset = data.draw(st.lists(st.sampled_from(elems), min_size=1, max_size=6))
    sset = {e.coords for e in subset}
    if _bfs_closure(A, subset) == sset:
        assert subgroup_from_elements(A, subset).element_set() == sset
    else:
        with pytest.raises(ValueError):
            subgroup_from_elements(A, subset)


def test_automorphism_group_result_is_a_fresh_list():
    A = make_group([2, 4])
    first = automorphism_group(A)
    expected = list(first)
    first.clear()
    first.append(identity_automorphism(A))
    assert automorphism_group(A) == expected


def test_automorphism_group_limit_applies_to_a_cached_group():
    A = make_group([2, 2, 2])
    automorphism_group(A)
    with pytest.raises(LimitExceededError):
        automorphism_group(A, Limits(enumeration_bound=7))


def test_all_subgroups_result_is_a_fresh_list():
    A = make_group([2, 4])
    first = all_subgroups(A)
    expected = list(first)
    first.reverse()
    first.pop()
    assert all_subgroups(A) == expected


def test_all_subgroups_limit_applies_to_a_cached_group():
    A = make_group([2, 2, 2])
    assert len(all_subgroups(A)) == 16
    with pytest.raises(LimitExceededError, match="order 8 exceeds enumeration bound 7"):
        all_subgroups(A, Limits(enumeration_bound=7))


def _valuation(d, p):
    e = 0
    while d % p == 0:
        d, e = d // p, e + 1
    return e


def _hillar_rhea_order(orders):
    """Oracle: |Aut(A)| by the closed form over primary parts (Hillar and
    Rhea, "Automorphisms of finite abelian groups", Amer. Math. Monthly
    2007), with e_1 <= ... <= e_n the exponents of the p-part."""
    total = 1
    for p in range(2, max(orders) + 1):
        if any(p % q == 0 for q in range(2, p)):
            continue
        es = sorted(filter(None, (_valuation(d, p) for d in orders)))
        n = len(es)
        for k, e in enumerate(es):
            d_k = max(l + 1 for l in range(n) if es[l] == e)
            c_k = min(l + 1 for l in range(n) if es[l] == e)
            total *= (p**d_k - p**k) * p ** (e * (n - d_k) + (e - 1) * (n - c_k + 1))
    return total


@pytest.mark.parametrize("orders", CENSUS_GROUPS + ([2, 2, 2, 2],))
def test_automorphism_leaves_span_the_group_and_count_to_the_closed_form(orders):
    # The enumeration builds its leaves without the constructor's checks,
    # so each one is checked here: its rows span A, and it equals (and
    # hashes like) the Automorphism the constructor builds from its rows.
    A = make_group(orders)
    auts = automorphism_group(A)
    assert len(auts) == _hillar_rhea_order(orders)
    for tau in auts:
        assert len(_span(A.orders, tau.matrix)[1]) == A.cardinality
        built = Automorphism(A, A, tau.matrix)
        assert built == tau and hash(built) == hash(tau)


def _generated_order(A):
    """The order of the subgroup of Aut(A) generated by
    `_elementary_generators(A)`: a breadth-first walk of row operations
    row_i += c row_j (mod d) on matrices, from the identity."""
    orders = A.orders
    steps = _elementary_generators(A)
    identity = tuple(g.coords for g in A.generators())
    seen, queue = {identity}, [identity]
    for S in queue:
        for i, j, c in steps:
            rows = list(S)
            rows[i] = tuple((a + c * b) % d for a, b, d in zip(S[i], S[j], orders))
            T = tuple(rows)
            if T not in seen:
                seen.add(T)
                queue.append(T)
    return len(seen)


# Every group of rank at most 3 with each d_i in 2..16 (non-decreasing),
# |A| <= 200 and |Aut(A)| <= 3000: 247 groups.
_GENERATION_SWEEP = [
    orders
    for rank in (1, 2, 3)
    for orders in combinations_with_replacement(range(2, 17), rank)
    if math.prod(orders) <= 200 and _hillar_rhea_order(orders) <= 3000
]


def test_elementary_generators_generate_aut():
    assert len(_GENERATION_SWEEP) == 247
    for orders in _GENERATION_SWEEP + [(2, 2, 2, 2)]:
        assert _generated_order(make_group(orders)) == _hillar_rhea_order(orders), orders


def test_closed_form_counts_match_the_enumeration():
    # |Aut(A)| and the symmetric count read no automorphism; the sweep
    # covers mixed primes, and the last groups unsorted presentations.
    for orders in _GENERATION_SWEEP + [(2, 2, 2, 2), (3, 3, 3), (4, 2), (12, 2), (8, 2, 4)]:
        A = make_group(orders)
        dualities = all_dualities(A)
        assert aut_order(A) == len(dualities) == _hillar_rhea_order(orders), orders
        assert count_symmetric_dualities(A) == sum(map(is_symmetric, dualities)), orders


def test_automorphism_group_repeated_calls_agree():
    A = make_group([4, 4])
    first, second = automorphism_group(A), automorphism_group(A)
    assert first == second
    assert all(isinstance(t, Automorphism) for t in second)


@pytest.mark.parametrize(
    "orders",
    [[2, 2], [2, 4], [4, 2], [3, 3], [2, 8], [4, 4], [6], [2, 6], [3, 9], [2, 2, 2], [2, 2, 4]],
)
def test_is_bijective_matches_the_brute_force_image(orders):
    A = make_group(orders)
    for hom in _admissible_endomorphisms(A):
        assert hom.is_bijective() == _image_has_every_element(hom)


def test_subgroup_element_set_is_computed_once():
    A = make_group([2, 4])
    H = subgroup_closure(A, [A.element((1, 2))])
    assert H.element_set() is H.element_set()
    assert H.element_set() == frozenset(e.coords for e in H.elements)


def _map_subgroup(hom, H):
    """Oracle for the lattice's image map: the span of hom.apply of H's
    generators, wrapped canonically."""
    if H.parent != hom.source:
        raise ValueError("subgroup does not live in the source group")
    image = _span(hom.target.orders, (hom.apply(h).coords for h in H.generators))[1]
    return subgroup_from_elements(hom.target, map(hom.target.element, image))


@pytest.mark.parametrize("orders", CENSUS_GROUPS)
def test_stabilizer_matches_the_brute_force_filter(orders):
    A = make_group(orders)
    auts = automorphism_group(A)
    lattice = _lattice(A)
    for H in all_subgroups(A):
        target = H.element_set()
        images = [{tau.apply(h).coords for h in H.elements} for tau in auts]
        fixed = [tau for tau, im in zip(auts, images) if im == target]
        assert stabilizer(H) == fixed
        assert is_characteristic(H) == (len(fixed) == len(auts))
        (column,) = lattice.columns([lattice.id_of(H)])
        assert len(column) == len(auts)
        for tau, im, i in zip(auts, images, column):
            got = _map_subgroup(tau, H)
            want = subgroup_from_elements(A, [A.element(c) for c in im])
            assert (got.elements, got.generators) == (want.elements, want.generators)
            assert lattice.id_of(want) == i


@pytest.mark.parametrize(
    "orders", [[2, 4, 4], [2, 2, 2, 2], [3, 3, 3], [6, 6], [2, 2, 6], [9, 3]]
)
def test_generator_test_matches_the_stabilizer(orders):
    # is_characteristic maps H's basis by the elementary generators of
    # Aut(A); the oracle counts the fixed points of H's lattice column,
    # built for every subgroup in one pass over Aut(A).
    A = make_group(orders)
    auts = automorphism_group(A)
    subs = all_subgroups(A)
    lattice = _lattice(A)
    lattice.columns([lattice.id_of(H) for H in subs])
    verdicts = [is_characteristic(H) for H in subs]
    assert verdicts == [len(stabilizer(H)) == len(auts) for H in subs]
    assert True in verdicts and False in verdicts


@pytest.mark.parametrize("orders", CENSUS_GROUPS)
def test_lattice_star_is_the_adjoint_on_aut_indices(orders):
    A = make_group(orders)
    dualities = all_dualities(A)
    star = _adjoints(A)
    assert sorted(star) == list(range(len(dualities)))
    for phi, j in zip(dualities, star):
        assert dualities[j] == adjoint(phi)


def _admissible_entries(source, target):
    """The admissible values of each T_ij, row by row: the multiples of
    d'_j / gcd(d_i, d'_j) in Z/d'_j."""
    return [[c * (e // math.gcd(d, e)) for c in range(math.gcd(d, e))]
            for d in source.orders for e in target.orders]


def _rows(flat, k):
    return tuple(tuple(flat[i : i + k]) for i in range(0, len(flat), k))


def _spans_target(source, target, matrix):
    """Oracle: equal orders and an image of |target| elements."""
    image = _span(target.orders, matrix)[1]
    return source.cardinality == target.cardinality == len(image)


_SAME_ORDER = [[(6,), (2, 3)], [(8,), (2, 4), (2, 2, 2)],
               [(12,), (2, 6), (3, 4), (4, 3), (2, 2, 3), (6, 2)]]


@pytest.mark.parametrize("family", _SAME_ORDER, ids=str)
def test_is_bijective_is_the_span_on_every_admissible_map(family):
    groups = [make_group(o) for o in family]
    bijective = 0
    for source in groups:
        for target in groups:
            for flat in product(*_admissible_entries(source, target)):
                matrix = _rows(flat, target.rank)
                got = Homomorphism(source, target, matrix).is_bijective()
                assert got == _spans_target(source, target, matrix)
                bijective += got
    assert bijective > 0


@pytest.mark.parametrize("orders", [[2, 4, 4], [2, 2, 2, 2], [3, 9], [4, 4, 4], [2, 6, 6], [5, 5]])
def test_is_bijective_is_the_span_on_random_admissible_maps(orders):
    import random

    rng = random.Random(21)
    A = make_group(orders)
    others = [A, make_group([max(orders)]), make_group([2, 3, 5])]
    verdicts = []
    for target in others:
        entries = _admissible_entries(A, target)
        for _ in range(300):
            matrix = _rows([rng.choice(e) for e in entries], target.rank)
            got = Homomorphism(A, target, matrix).is_bijective()
            assert got == _spans_target(A, target, matrix)
            verdicts.append(got)
    assert True in verdicts and False in verdicts


@pytest.mark.parametrize("orders, w", [([2, 4], 8), ([128], 8), ([129, 2], 16), ([2**15], 16),
                                       ([3, 2**15 + 1], 32), ([2**31 + 1], 64), ([2**63 + 1], 128)])
def test_slot_width_is_the_least_that_holds_every_order(orders, w):
    assert _packing(make_group(orders)).w == w


# Factors of 2^15 or more: 16-bit slots at 2^15, 32-bit up to 2^31, then 64-bit.
_BIG_FACTORS = [2**15, 2**15 + 2, 3 * 2**14, 2**31, 2**31 + 2, 3 * 2**32]


@st.composite
def _wide_closures(draw):
    """A group of rank 1 to 12, factors 2 to 300 and one of 2^15 or more,
    with up to three generators of small order: each coordinate is a
    multiple of d_i / t for a divisor t <= 4 of d_i, so no span exceeds
    12^3 members."""
    k = draw(st.integers(1, 12))
    orders = draw(st.lists(st.integers(2, 300), min_size=k - 1, max_size=k - 1))
    orders.insert(draw(st.integers(0, k - 1)), draw(st.sampled_from(_BIG_FACTORS)))

    def coordinate(d):
        t = draw(st.sampled_from([t for t in (1, 2, 3, 4) if d % t == 0]))
        return d // t * draw(st.integers(0, t - 1))

    gens = [tuple(coordinate(d) for d in orders) for _ in range(draw(st.integers(0, 3)))]
    return make_group(orders), gens


@given(_wide_closures())
@settings(max_examples=150, deadline=None)
def test_the_packed_closure_matches_the_tuple_closure(case):
    # Members, greedy basis, order and printed words of the packed closure
    # agree with the tuple closure it replaced, in 8- to 64-bit slots.
    A, gens = case
    P = _packing(A)
    assert [P.unpack(P.pack(g)) for g in gens] == gens
    H = _closure(A, tuple(map(P.pack, gens)))
    basis, span = _span(A.orders, gens)
    assert H.members == tuple(sorted(span))
    assert H.basis == tuple(basis)
    assert H.gens == tuple(gens)
    assert H.order == len(span)
    assert H.words() == [A.format_coords(c) for c in H.members]


@pytest.mark.parametrize("orders", [[10], [9, 2], [2, 4, 8], [3, 3], [12, 3], [130]])
def test_subgroups_print_their_members_as_format_coords(orders):
    A = make_group(orders)
    for H in all_subgroups(A):
        words = [A.format_coords(c) for c in H.members]
        assert H.words() == words
        assert str(H) == "{" + ",".join(words) + "}"


@given(CLOSURE_GROUPS, st.data())
@settings(max_examples=60, deadline=None)
def test_a_packed_and_a_tuple_built_subgroup_are_one_subgroup(A, data):
    # The packed closure and the subgroup wrapped from the oracle's
    # coordinate tuples, in any order, are equal, hash alike and agree on
    # membership and the element set; so does the lattice's entry.
    elems = list(A.elements())
    gens = data.draw(st.lists(st.sampled_from(elems), max_size=4))
    packed = subgroup_closure(A, gens)
    coords = data.draw(st.permutations(sorted(_bfs_closure(A, gens))))
    tupled = subgroup_from_elements(A, [A.element(c) for c in coords])
    (listed,) = [H for H in all_subgroups(A) if H.element_set() == packed.element_set()]
    for H in (tupled, listed):
        assert H == packed and hash(H) == hash(packed)
        assert H.element_set() == packed.element_set() == frozenset(coords)
        assert [a in H for a in elems] == [a in packed for a in elems]
    assert len({packed, tupled, listed}) == 1
    assert [a in packed for a in elems] == [a.coords in set(coords) for a in elems]


def test_unit_rows_are_built_once_per_rank():
    rows = _unit_rows(4)
    assert rows is _unit_rows(4)
    assert rows == ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    # The kernel starts from a copy of them and leaves the cached rows alone.
    assert _kernel_generators((2, 2, 2, 2), 2, [(1, 1, 0, 0), (0, 1, 1, 1)])
    assert _unit_rows(4) == ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))

"""Characters, the pairing, annihilators, and character extension."""

import pytest
from hypothesis import given, settings, strategies as st

from groupdual import (
    Character,
    all_characters,
    annihilator,
    double_annihilator_check,
    evaluate,
    extend_character,
    induced_hom,
    make_group,
    pairing_exponent,
    subgroup_closure,
    trivial_character,
)
from groupdual import characters as characters_module
from groupdual.groups import Homomorphism, all_subgroups

SMALL_GROUPS = st.sampled_from(
    [make_group(o) for o in ([2, 2], [2, 4], [3, 3], [8], [6], [4, 2])]
)


def test_character_group_has_the_group_order():
    for orders in ([2, 2], [2, 4], [3, 3]):
        A = make_group(orders)
        assert len(all_characters(A)) == A.cardinality


def test_klein_character_table_matches_hand_values():
    # <pi_e, a> = (-1)^(e . a) on F_2^2.
    A = make_group([2, 2])
    expected = {
        (0, 0): [1, 1, 1, 1],
        (0, 1): [1, -1, 1, -1],
        (1, 0): [1, 1, -1, -1],
        (1, 1): [1, -1, -1, 1],
    }
    for e, row in expected.items():
        pi = Character(A, e)
        values = [evaluate(pi, a).as_int() for a in A.elements()]
        assert values == row


@given(SMALL_GROUPS, st.data())
@settings(max_examples=60, deadline=None)
def test_pairing_biadditivity(A, data):
    elems = list(A.elements())
    e1 = data.draw(st.sampled_from(elems))
    e2 = data.draw(st.sampled_from(elems))
    a = data.draw(st.sampled_from(elems))
    b = data.draw(st.sampled_from(elems))
    m = A.exponent
    pi1, pi2 = Character(A, e1.coords), Character(A, e2.coords)
    assert (
        pairing_exponent(pi1 * pi2, a)
        == (pairing_exponent(pi1, a) + pairing_exponent(pi2, a)) % m
    )
    assert (
        pairing_exponent(pi1, a + b)
        == (pairing_exponent(pi1, a) + pairing_exponent(pi1, b)) % m
    )
    assert pairing_exponent(pi1.inverse(), a) == (-pairing_exponent(pi1, a)) % m
    assert pairing_exponent(trivial_character(A), a) == 0


def test_faithfulness_only_zero_pairs_trivially_with_everything():
    for orders in ([2, 4], [3, 3]):
        A = make_group(orders)
        for a in A.elements():
            killed = all(
                pairing_exponent(Character(A, e.coords), a) == 0
                for e in A.elements()
            )
            assert killed == a.is_zero()


@pytest.mark.parametrize("orders", [[2, 4], [3, 3], [8]])
def test_annihilator_sizes_and_double_annihilator(orders):
    A = make_group(orders)
    for H in all_subgroups(A):
        ann = annihilator(H)
        assert H.order * ann.order == A.cardinality
        assert double_annihilator_check(H)


@pytest.mark.parametrize("orders", [[2, 4], [3, 3], [8], [2, 2, 2]])
def test_annihilator_matches_a_filter_over_every_element(orders):
    A = make_group(orders)
    for H in all_subgroups(A):
        expected = [
            e
            for e in A.elements()
            if all(pairing_exponent(Character(A, e.coords), h) == 0 for h in H.elements)
        ]
        assert annihilator(H).elements == tuple(expected)


def test_extend_character_matches_exhaustive_scan_oracle():
    A = make_group([4])
    H = subgroup_closure(A, [A.element([2])])
    # theta(2) = zeta_4^2 = -1.
    pi = extend_character(H, [2])
    # Oracle: the full list of characters of A restricting to theta.
    matching = [
        e.coords
        for e in A.elements()
        if pairing_exponent(Character(A, e.coords), A.element([2])) == 2
    ]
    assert pi.etuple in [c for c in matching]
    assert sorted(matching) == [(1,), (3,)]


def test_extend_character_on_socle_of_z2xz4():
    A = make_group([2, 4])
    H = subgroup_closure(A, [A.element([1, 0]), A.element([0, 2])])
    pi = extend_character(H, [2, 2])  # both generators map to -1
    assert pairing_exponent(pi, A.element([1, 0])) == 2
    assert pairing_exponent(pi, A.element([0, 2])) == 2


def test_extend_character_rejects_non_homomorphism():
    A = make_group([4])
    H = subgroup_closure(A, [A.element([2])])
    with pytest.raises(ValueError):
        extend_character(H, [1])  # 2*theta(2) must be trivial; zeta_4 is not


def test_extend_character_is_deterministic():
    A = make_group([2, 4])
    H = subgroup_closure(A, [A.element([0, 2])])
    assert extend_character(H, [2]) == extend_character(H, [2])


def test_induced_hom_defining_identity_is_verified():
    A1, A2 = make_group([2]), make_group([2, 4])
    inc = Homomorphism(A1, A2, ((1, 2),))
    induced_hom(inc)  # verifies exhaustively internally
    proj = Homomorphism(A2, make_group([2]), ((1,), (0,)))
    induced_hom(proj)
    mixed = Homomorphism(make_group([4]), make_group([6]), ((3,),))
    induced_hom(mixed)


def test_induced_hom_of_identity_is_identity():
    A = make_group([3, 3])
    ident = Homomorphism(A, A, ((1, 0), (0, 1)))
    assert induced_hom(ident).matrix == ((1, 0), (0, 1))


@pytest.mark.parametrize("orders", [[2, 4], [257]])
def test_induced_hom_rejects_a_corrupted_result(monkeypatch, orders):
    # |A|^2 = 66049 > 65536 for Z/257: checked for every group size.
    A = make_group(orders)
    ident = Homomorphism(A, A, tuple(g.coords for g in A.generators()))
    assert induced_hom(ident).matrix == ident.matrix
    rows = characters_module._induced_rows
    # Negation keeps every entry admissible and changes the Z/4 or Z/257
    # diagonal entry.
    monkeypatch.setattr(
        characters_module,
        "_induced_rows",
        lambda alpha: tuple(tuple(-t for t in row) for row in rows(alpha)),
    )
    with pytest.raises(AssertionError, match="defining identity"):
        induced_hom(ident)


EXTENSION_GROUPS = [
    [2], [4], [8], [6], [2, 2], [2, 4], [4, 2], [3, 3], [2, 6], [4, 4],
    [2, 2, 2], [2, 2, 3], [3, 9], [12, 2],
]


@pytest.mark.parametrize("orders", EXTENSION_GROUPS)
def test_extend_character_is_the_least_extension_of_a_brute_force_scan(orders):
    # Oracle: the first character of A, in canonical order, whose value on
    # each generator of H is theta; none exactly when theta is not a
    # homomorphism on H.  Every theta, or 50 seeded ones past 200.
    import random
    from itertools import product

    A = make_group(orders)
    m = A.exponent
    rng = random.Random(sum(orders))
    for H in all_subgroups(A):
        gens = H.generators
        if m ** len(gens) <= 200:
            thetas = list(product(range(m), repeat=len(gens)))
        else:
            thetas = [tuple(rng.randrange(m) for _ in gens) for _ in range(50)]
        for theta in thetas:
            least = next(
                (
                    e.coords
                    for e in A.elements()
                    if all(
                        pairing_exponent(Character(A, e.coords), h) == t
                        for h, t in zip(gens, theta)
                    )
                ),
                None,
            )
            if least is None:
                with pytest.raises(ValueError, match="homomorphism"):
                    extend_character(H, theta)
            else:
                assert extend_character(H, theta).etuple == least


def test_extend_character_reads_the_given_generators():
    # Redundant generators: theta must agree on 12 = 10 + 02.
    A = make_group([2, 4])
    H = subgroup_closure(A, [A.element([1, 0]), A.element([0, 2]), A.element([1, 2])])
    assert extend_character(H, [2, 0, 2]).etuple == (1, 0)
    with pytest.raises(ValueError, match="homomorphism"):
        extend_character(H, [2, 0, 0])
    with pytest.raises(ValueError, match="one exponent per subgroup generator"):
        extend_character(H, [2, 0])
    with pytest.raises(ValueError, match="does not live"):
        extend_character(H, [2, 0, 2], make_group([4, 2]))

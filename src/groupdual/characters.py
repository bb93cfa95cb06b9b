"""Characters of finite abelian groups and the pairing <pi, a>.

A character is an exponent tuple e against the fixed weights w_i = m/d_i:
the character e sends b to zeta_m^(sum_i w_i e_i b_i).  The character
group therefore carries the same order sequence as the group itself.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from operator import add, mod, mul

from ._value import Value
from .cyclotomic import CycInt, root_power
from .groups import (
    GroupElement,
    GroupSpec,
    Homomorphism,
    Subgroup,
    _kernel_generators,
    _l0_subgroup,
    _xgcd,
)


class Character(Value):
    def __init__(self, parent: GroupSpec, etuple: tuple[int, ...]) -> None:
        self.__dict__.update(parent=parent, etuple=etuple)
        self.__post_init__()

    def __post_init__(self) -> None:
        if len(self.etuple) != self.parent.rank:
            raise ValueError("exponent tuple length does not match group rank")
        reduced = tuple(e % d for e, d in zip(self.etuple, self.parent.orders))
        self.__dict__["etuple"] = reduced

    def __mul__(self, other: "Character") -> "Character":
        if self.parent != other.parent:
            raise ValueError("characters of different groups")
        return Character(
            self.parent, tuple(a + b for a, b in zip(self.etuple, other.etuple))
        )

    def inverse(self) -> "Character":
        return Character(self.parent, tuple(-e for e in self.etuple))


def trivial_character(A: GroupSpec) -> Character:
    return Character(A, (0,) * A.rank)


def all_characters(A: GroupSpec) -> list[Character]:
    return [Character(A, a.coords) for a in A.elements()]


def pairing_exponent(pi: Character, a: GroupElement) -> int:
    """e with <pi, a> = zeta_m^e, m the group exponent."""
    if pi.parent != a.parent:
        raise ValueError("character and element belong to different groups")
    A = pi.parent
    m = A.exponent
    return sum(w * e * c for w, e, c in zip(A.weights, pi.etuple, a.coords)) % m


def evaluate(pi: Character, a: GroupElement) -> CycInt:
    return root_power(pi.parent.exponent, pairing_exponent(pi, a))


def annihilator(H: Subgroup) -> Subgroup:
    """(A-hat : H), returned as a subgroup of exponent tuples.

    The character group shares the order sequence of A, so the annihilator
    is represented as a Subgroup of the same GroupSpec whose elements are
    exponent tuples.  The character pi is trivial on h exactly when the
    form (w_i h_i) vanishes on pi's exponent tuple.
    """
    return _l0_subgroup(H.parent, H.basis, H.order)


def double_annihilator_check(H: Subgroup) -> bool:
    """(A : (A-hat : H)) = H, with A identified with its double dual.

    The pairing is symmetric in the exponent tuple and the element, so
    (A : X) is computed as the annihilator of X."""
    return annihilator(annihilator(H)) == H


def extend_character(
    H: Subgroup, theta_exponents: Sequence[int], A: GroupSpec | None = None
) -> Character:
    """The least character of A (in canonical element order) whose value
    on the i-th generator of H is zeta_m^theta_i.

    The pairs (e, t) in A-hat x Z/m with <e, h_i> = zeta_m^(t theta_i) for
    every generator h_i are the zero set of one form per generator
    (`_kernel_generators`).  Extended-gcd steps combine its generators into
    a pair with t = 1, which exists exactly when theta is a homomorphism on
    H; the extensions are then the coset e + (A-hat : H)."""
    A = A or H.parent
    if H.parent != A:
        raise ValueError("subgroup does not live in the given group")
    m, orders = A.exponent, A.orders
    if len(theta_exponents) != len(H.gens):
        raise ValueError("need one exponent per subgroup generator")
    forms = [(*map(mul, A.weights, h), -th) for h, th in zip(H.gens, theta_exponents)]
    g, e = 0, (0,) * A.rank
    for *z, t in _kernel_generators((*orders, m), m, forms):
        g, s, u = _xgcd(g, t)
        e = tuple((s * x + u * y) % d for x, y, d in zip(e, z, orders))
    if math.gcd(g, m) != 1:
        raise ValueError("exponents do not define a homomorphism on H")
    e = tuple(x * pow(g, -1, m) for x in e)
    coset = (tuple(map(mod, map(add, e, a), orders)) for a in annihilator(H).members)
    pi = Character(A, min(coset))
    if any(
        pairing_exponent(pi, h) != theta % m
        for h, theta in zip(H.generators, theta_exponents)
    ):
        raise AssertionError("extension failed to restrict correctly")
    return pi


def _induced_rows(alpha: Homomorphism) -> tuple[tuple[int, ...], ...]:
    """The exponent-tuple matrix of alpha*: the j-th basis character of the
    target takes alpha(g_i) to e^(2 pi i alpha_ij / e_j), so row j is
    (d_i alpha_ij / e_j mod d_i)_i, d the source and e the target orders.
    Admissibility, e_j | d_i alpha_ij, makes each division exact."""
    d, e = alpha.source.orders, alpha.target.orders
    return tuple(
        tuple(d_i * row[j] // e_j % d_i for d_i, row in zip(d, alpha.matrix))
        for j, e_j in enumerate(e)
    )


def induced_hom(alpha: Homomorphism) -> Homomorphism:
    """alpha*: characters of the target pull back to characters of the
    source; returned as a matrix on exponent tuples.

    Both sides of the defining identity <alpha*(pi), a> = <pi, alpha(a)>
    are bi-additive in (a, pi), so they agree everywhere exactly when they
    agree on the k_1 k_2 pairs of a generator of A_1 and a basis character
    of A_2; that is checked on every call, for every |A_1| |A_2|."""
    A1, A2 = alpha.source, alpha.target
    m1, m2 = A1.exponent, A2.exponent
    M = math.lcm(m1, m2)
    star = Homomorphism(A2, A1, _induced_rows(alpha))
    for pi2_gen, pulled_etuple in zip(A2.generators(), star.matrix):
        pi2 = Character(A2, pi2_gen.coords)
        pulled = Character(A1, pulled_etuple)
        for g in A1.generators():
            lhs = pairing_exponent(pulled, g) * (M // m1)
            rhs = pairing_exponent(pi2, alpha.apply(g)) * (M // m2)
            if lhs % M != rhs % M:
                raise AssertionError("induced map fails its defining identity")
    return star

"""Dualities phi: A -> A-hat, adjoints, symmetry, and congruence.

A duality is stored as the automorphism tau with phi(a) = phi_0(a tau),
where phi_0 is the canonical symmetric duality sending the element e to
the character with exponent tuple e.  The tau <-> phi correspondence is a
bijection, so enumerating dualities is enumerating automorphisms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .cyclotomic import CycInt, root_power
from .groups import (
    Automorphism,
    GroupElement,
    GroupSpec,
    automorphism_group,
    scalar_automorphism,
)
from .characters import Character
from .limits import Limits


@dataclass(frozen=True)
class Duality:
    tau: Automorphism

    @property
    def parent(self) -> GroupSpec:
        return self.tau.parent

    def character_of(self, a: GroupElement) -> Character:
        """phi(a), as an explicit character."""
        return Character(self.parent, self.tau.apply(a).coords)

    def __str__(self) -> str:
        return f"Duality(tau={list(map(list, self.tau.matrix))})"


def canonical_duality(A: GroupSpec) -> Duality:
    from .groups import identity_automorphism

    return Duality(identity_automorphism(A))


def duality_from_matrix(A: GroupSpec, matrix) -> Duality:
    return Duality(Automorphism(A, A, tuple(tuple(r) for r in matrix)))


def all_dualities(A: GroupSpec, limits: Limits | None = None) -> list[Duality]:
    return [Duality(tau) for tau in automorphism_group(A, limits)]


def inner_product_exponent(
    phi: Duality, a: GroupElement, b: GroupElement
) -> int:
    """e with Phi(a, b) = zeta_m^e."""
    A = phi.parent
    if a.parent != A or b.parent != A:
        raise ValueError("elements do not belong to the duality's group")
    at = phi.tau.apply(a)
    m = A.exponent
    return sum(w * x * y for w, x, y in zip(A.weights, at.coords, b.coords)) % m


def _pairing_forms(
    phi: Duality, words: Iterable[tuple[int, ...]], left: bool
) -> list[tuple[int, ...]]:
    """Integer forms f, one per word c, with Phi(x, c) = zeta_m^(f . x) when
    `left` and Phi(c, x) = zeta_m^(f . x) otherwise.

    A word longer than phi's rank is read block by block, as a word of A^n
    under the coordinatewise extension of phi.  On each block f = M c with
      left:  f_j = sum_i tau_ji w_i c_i;
      right: f_i = w_i sum_j tau_ji c_j.
    """
    A = phi.parent
    k, m, w, tau = A.rank, A.exponent, A.weights, phi.tau.matrix
    if left:
        M = [[tau[j][i] * w[i] for i in range(k)] for j in range(k)]
    else:
        M = [[w[i] * tau[j][i] for j in range(k)] for i in range(k)]
    return [
        tuple(
            sum(a * b for a, b in zip(row, c[s : s + k])) % m
            for s in range(0, len(c), k)
            for row in M
        )
        for c in words
    ]


def inner_product_value(phi: Duality, a: GroupElement, b: GroupElement) -> CycInt:
    return root_power(phi.parent.exponent, inner_product_exponent(phi, a, b))


def _duality_from_iexp_on_generators(A: GroupSpec, exps) -> Duality:
    """Recover the duality whose inner-product exponents on generator pairs
    are exps[i][j]; each exps[i][j] must be divisible by w_j."""
    rows = []
    for i in range(A.rank):
        row = []
        for j in range(A.rank):
            e = exps[i][j] % A.exponent
            w_j = A.weights[j]
            if e % w_j != 0:
                raise AssertionError("inner-product exponent has impossible order")
            row.append((e // w_j) % A.orders[j])
        rows.append(tuple(row))
    return Duality(Automorphism(A, A, tuple(rows)))


def adjoint(phi: Duality, verify: bool = True) -> Duality:
    """phi*, the duality with <phi*(a), b> = <phi(b), a>."""
    A = phi.parent
    gens = A.generators()
    exps = [
        [inner_product_exponent(phi, gens[j], gens[i]) for j in range(A.rank)]
        for i in range(A.rank)
    ]
    star = _duality_from_iexp_on_generators(A, exps)
    if verify and A.cardinality <= 256:
        for a in A.elements():
            for b in A.elements():
                if inner_product_exponent(star, a, b) != inner_product_exponent(
                    phi, b, a
                ):
                    raise AssertionError("adjoint fails its defining identity")
    return star


def is_symmetric(phi: Duality) -> bool:
    return adjoint(phi) == phi


def conjugate_duality(phi: Duality, tau: Automorphism) -> Duality:
    """tau* o phi o tau, i.e. Phi'(a, b) = Phi(a tau, b tau)."""
    A = phi.parent
    gens = A.generators()
    exps = [
        [
            inner_product_exponent(phi, tau.apply(gens[i]), tau.apply(gens[j]))
            for j in range(A.rank)
        ]
        for i in range(A.rank)
    ]
    return _duality_from_iexp_on_generators(A, exps)


def congruent(
    phi1: Duality, phi2: Duality, limits: Limits | None = None
) -> Optional[Automorphism]:
    """A witness tau with phi2 = tau* o phi1 o tau, or None."""
    if phi1.parent != phi2.parent:
        raise ValueError("dualities of different groups")
    for tau in automorphism_group(phi1.parent, limits):
        if conjugate_duality(phi1, tau) == phi2:
            return tau
    return None


def congruence_classes(
    A: GroupSpec, limits: Limits | None = None
) -> list[list[Duality]]:
    """Orbit partition of all dualities under congruence; each class is
    sorted canonically and classes are ordered by their least member."""
    dualities = all_dualities(A, limits)
    auts = automorphism_group(A, limits)
    index = {phi.tau.matrix: i for i, phi in enumerate(dualities)}
    assigned = [False] * len(dualities)
    classes = []
    for i, phi in enumerate(dualities):
        if assigned[i]:
            continue
        orbit = sorted(
            {conjugate_duality(phi, tau).tau.matrix for tau in auts}
        )
        for mat in orbit:
            assigned[index[mat]] = True
        classes.append([dualities[index[mat]] for mat in orbit])
    return classes


def power_duality(phi: Duality, mexp: int) -> Duality:
    """phi^m = phi o (m id); requires a p-group and gcd(m, p) = 1."""
    A = phi.parent
    primes = A.primes()
    if len(primes) != 1:
        raise ValueError("power dualities are defined on p-groups only")
    p = primes[0]
    if math.gcd(mexp, p) != 1:
        raise ValueError(f"exponent {mexp} is not invertible modulo {p}")
    tau = scalar_automorphism(A, mexp).compose(phi.tau)
    return Duality(tau)


def power_witness(
    phi1: Duality, phi2: Duality
) -> Optional[int]:
    """Smallest m coprime to p with phi2 = phi1^m, or None."""
    if phi1.parent != phi2.parent:
        raise ValueError("dualities of different groups")
    A = phi1.parent
    p = A.primes()[0]
    for mexp in range(1, A.exponent + 1):
        if math.gcd(mexp, p) != 1:
            continue
        if power_duality(phi1, mexp) == phi2:
            return mexp
    return None


def same_duals_everywhere(phi1: Duality, phi2: Duality) -> bool:
    """Whether phi1 and phi2 give identical left and right duals on every
    subgroup (p-group criterion: phi2 is a coprime power of phi1)."""
    return power_witness(phi1, phi2) is not None


def negation_duality(phi: Duality) -> Duality:
    """phi-bar with phi-bar(a) = phi(-a)."""
    tau = scalar_automorphism(phi.parent, -1 % phi.parent.exponent).compose(phi.tau)
    return Duality(tau)


def gl_order(n: int, q: int) -> int:
    return math.prod(q**n - q**i for i in range(n))


def count_symmetric_invertible(n: int, q: int) -> int:
    """Number of symmetric invertible n x n matrices over F_q."""
    if n < 1:
        raise ValueError("n must be positive")
    if n % 2 == 0:
        t = n // 2
        return math.prod(q ** (2 * t + 1) - q ** (2 * i) for i in range(1, t + 1))
    t = (n - 1) // 2
    return math.prod(q ** (2 * t + 1) - q ** (2 * i) for i in range(0, t + 1))


def symmetric_ratio(n: int, q: int) -> Fraction:
    return Fraction(count_symmetric_invertible(n, q), gl_order(n, q))

"""Dualities phi: A -> A-hat, adjoints, symmetry, and congruence.

A duality is stored as the automorphism tau with phi(a) = phi_0(a tau),
where phi_0 is the canonical symmetric duality sending the element e to
the character with exponent tuple e.  The tau <-> phi correspondence is a
bijection, so enumerating dualities is enumerating automorphisms.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Iterable, Optional

from .cyclotomic import CycInt, root_power
from .groups import (
    Automorphism,
    GroupElement,
    GroupSpec,
    _aut_index,
    _automorphisms,
    _elementary_generators,
    _primary_blocks,
    _unit_rows,
    _unpacker,
    automorphism_group,
    gl_order,
    identity_automorphism,
    scalar_automorphism,
)
from .limits import Limits, check_enumeration


@dataclass(frozen=True)
class Duality:
    tau: Automorphism

    @property
    def parent(self) -> GroupSpec:
        return self.tau.parent

    def __str__(self) -> str:
        return f"Duality(tau={list(map(list, self.tau.matrix))})"


def canonical_duality(A: GroupSpec) -> Duality:
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


def _gram(phi: Duality) -> tuple[tuple[int, ...], ...]:
    """The Gram matrix G of phi, G_ij = w_j tau_ij mod m, so that
    Phi(a, b) = zeta_m^(a G b^T) and G_ij is the exponent of Phi(g_i, g_j)."""
    A = phi.parent
    m, w = A.exponent, A.weights
    return tuple(
        tuple(t * w_j % m for t, w_j in zip(row, w)) for row in phi.tau.matrix
    )


def _pairing_forms(
    phi: Duality, words: Iterable[tuple[int, ...]], left: bool
) -> list[tuple[int, ...]]:
    """Integer forms f, one per word c, with Phi(x, c) = zeta_m^(f . x) when
    `left` and Phi(c, x) = zeta_m^(f . x) otherwise.

    A word longer than phi's rank is read block by block, as a word of A^n
    under the coordinatewise extension of phi.  On each block f = G c when
    `left` and f = G^T c otherwise, with G = _gram(phi).
    """
    k, m = phi.parent.rank, phi.parent.exponent
    G = _gram(phi)
    M = G if left else tuple(zip(*G))
    return [
        tuple(
            sum(map(mul, row, c[s : s + k])) % m
            for s in range(0, len(c), k)
            for row in M
        )
        for c in words
    ]


def inner_product_value(phi: Duality, a: GroupElement, b: GroupElement) -> CycInt:
    return root_power(phi.parent.exponent, inner_product_exponent(phi, a, b))


def _rows_from_gram(A: GroupSpec, G) -> tuple[tuple[int, ...], ...]:
    """The tau rows of the duality with Gram matrix G (see `_gram`): tau_ij
    = G_ij / w_j; each G_ij must be divisible by w_j modulo m."""
    m, w = A.exponent, A.weights
    if any(g % m % w_j for row in G for g, w_j in zip(row, w)):
        raise AssertionError("inner-product exponent has impossible order")
    return tuple(tuple([g % m // w_j for g, w_j in zip(row, w)]) for row in G)


def _duality_from_gram(A: GroupSpec, G) -> Duality:
    """The duality whose inner-product exponents on generator pairs are
    G[i][j]."""
    return Duality(Automorphism(A, A, _rows_from_gram(A, G)))


def _conjugate_gram(G, S, m: int) -> tuple[tuple[int, ...], ...]:
    """S G S^T mod m: the Gram matrix of Phi(a tau, b tau) when tau has
    matrix S and Phi has Gram matrix G."""
    SG = [[sum(map(mul, s, col)) for col in zip(*G)] for s in S]
    return tuple(tuple(sum(map(mul, r, s)) % m for s in S) for r in SG)


def adjoint(phi: Duality) -> Duality:
    """phi*, the duality with <phi*(a), b> = <phi(b), a>.

    With G = _gram(phi), Phi(a, b) = zeta_m^(a G b^T).  Both sides of the
    defining identity are bi-additive in (a, b): tau is admissible and
    w_l d_l = m, so each exponent is well defined on residues.  They
    therefore agree on all |A|^2 pairs exactly when they agree on the k^2
    generator pairs, i.e. when G(phi*) = G(phi)^T; that is checked on
    every call, for every |A|."""
    G_T = tuple(zip(*_gram(phi)))
    star = _duality_from_gram(phi.parent, G_T)
    if _gram(star) != G_T:
        raise AssertionError("adjoint fails its defining identity")
    return star


def is_symmetric(phi: Duality) -> bool:
    """phi* = phi.  G determines tau (tau_ij = G_ij / w_j) and G(phi*) =
    G(phi)^T, so this is G = G^T: w_j tau_ij = w_i tau_ji (mod m) on the
    pairs i > j.  Neither G nor phi* is built."""
    A, t = phi.parent, phi.tau.matrix
    m, w = A.exponent, A.weights
    return not any(
        (w[j] * t[i][j] - w[i] * t[j][i]) % m for i in range(A.rank) for j in range(i)
    )


def conjugate_duality(phi: Duality, tau: Automorphism) -> Duality:
    """tau* o phi o tau, i.e. Phi'(a, b) = Phi(a tau, b tau)."""
    A = phi.parent
    if tau.parent != A:
        raise ValueError("automorphism of a different group")
    return _duality_from_gram(A, _conjugate_gram(_gram(phi), tau.matrix, A.exponent))


def _walk(A: GroupSpec, t: tuple[int, ...]):
    """Breadth-first walk of the congruence orbit of the duality whose tau
    has the row-major entries t: yields (t, None, None), then (u, parent,
    (i, j, c)) for each new u = E parent E*, E = I + c E_ij.

    Phi'(a, b) = Phi(a S, b S) has Gram matrix S G S^T; with G = tau W, W =
    diag(w), its tau is S tau S*, S* = W S^T W^-1 the adjoint of S under
    phi_0 (`groups._adjoints`).  So a step is row i += c row j, then column
    i += (c d_i / d_j) column j, each column l mod d_l; c d_i / d_j is an
    integer for each generator."""
    k, orders = A.rank, A.orders
    steps = [([(i * k + l, j * k + l, c, orders[l]) for l in range(k)]
              + [(l * k + i, l * k + j, c * orders[i] // orders[j], orders[i])
                 for l in range(k)], (i, j, c))
             for i, j, c in _elementary_generators(A)]
    seen, queue = {t}, [t]
    yield t, None, None
    for H in queue:
        for ops, step in steps:
            g = list(H)
            for p, q, c, d in ops:
                g[p] = (g[p] + c * g[q]) % d
            if (u := tuple(g)) not in seen:
                seen.add(u)
                queue.append(u)
                yield u, H, step


def congruent(
    phi1: Duality, phi2: Duality, limits: Limits | None = None
) -> Optional[Automorphism]:
    """A witness tau with phi2 = tau* o phi1 o tau, or None when the walk of
    phi1's orbit ends first.  For each u met it carries the S with u = S
    tau_1 S*, one row operation (mod d_j) on the parent's S a step."""
    if phi1.parent != phi2.parent:
        raise ValueError("dualities of different groups")
    A = phi1.parent
    check_enumeration(A.cardinality, limits)
    target, witness = sum(phi2.tau.matrix, ()), {None: _unit_rows(A.rank)}
    for H, parent, step in _walk(A, sum(phi1.tau.matrix, ())):
        S = list(witness[parent])
        if step:
            i, j, c = step
            S[i] = tuple((a + c * b) % d for a, b, d in zip(S[i], S[j], A.orders))
        witness[H] = S = tuple(S)
        if H == target:
            return Automorphism(A, A, S)
    return None


@lru_cache(maxsize=None)
def _congruence_orbits(A: GroupSpec) -> tuple[array, ...]:
    """The congruence classes as sorted Aut(A) indices, ordered by their
    least index.  Each class is one `_walk` from its least index not yet
    met, each tau met located by `_aut_index`: |Aut| x #generators steps in
    all, once per group.  Callers check the limits."""
    auts, unpack, index = _automorphisms(A), _unpacker(A), _aut_index(A)
    met, orbits = bytearray(len(auts)), []
    i = met.find(0)
    while i >= 0:
        t = sum(unpack(auts[i]), ())
        orbit = array("I", sorted(index(u) for u, _, _ in _walk(A, t)))
        for j in orbit:
            met[j] = 1
        orbits.append(orbit)
        i = met.find(0, i)
    return tuple(orbits)


def congruence_classes(
    A: GroupSpec, limits: Limits | None = None
) -> list[list[Duality]]:
    """Orbit partition of all dualities under congruence; each class is
    sorted canonically and classes are ordered by their least member.
    Indices sort as members, so the classes wrap `_congruence_orbits`."""
    auts = automorphism_group(A, limits)
    return [[Duality(auts[j]) for j in orbit] for orbit in _congruence_orbits(A)]


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


def count_symmetric_invertible(n: int, q: int) -> int:
    """Number of symmetric invertible n x n matrices over F_q."""
    if n < 1:
        raise ValueError("n must be positive")
    if n % 2 == 0:
        t = n // 2
        return math.prod(q ** (2 * t + 1) - q ** (2 * i) for i in range(1, t + 1))
    t = (n - 1) // 2
    return math.prod(q ** (2 * t + 1) - q ** (2 * i) for i in range(0, t + 1))


def count_symmetric_dualities(A: GroupSpec) -> int:
    """The number of symmetric dualities of A in closed form, with no
    duality built.

    A duality is symmetric when G = G^T (`is_symmetric`), that is when its
    pairing Phi is a symmetric form; so this counts the nondegenerate
    symmetric bilinear forms A x A -> Q/Z, which do not depend on the
    presentation of A.  For primes p != q, Phi(A_p, A_q) = 1, as its values
    have orders dividing a power of p and a power of q.  So Phi is the
    orthogonal sum of its restrictions to the A_p, nondegenerate exactly
    when each is, and the count is a product over p.

    Write A_p = (+)_e (Z/p^e)^(n_e) in a basis g_i of orders p^(e_i).  A
    form is its values b_ij = Phi(g_i, g_j), each any of p^min(e_i, e_j)
    roots of unity, and symmetry makes the entries with i <= j free.  In
    the dual basis of the characters, a -> Phi(a, .) has a matrix whose
    diagonal block of exponent e is the exponents of b on that block, so
    by the criterion that `aut_order` uses, Phi is nondegenerate exactly
    when each such block is invertible mod p.  A symmetric block over
    Z/p^e is so in s(n_e, p) = `count_symmetric_invertible` ways mod p,
    each with p^((e-1) n_e (n_e+1)/2) lifts of its free entries, and each
    pair of blocks e < e' holds n_e n_e' free entries of p^e values:

    prod_p [ prod_e s(n_e, p) p^((e-1) n_e (n_e+1)/2)
             * prod_(e<e') p^(e n_e n_e') ]."""
    total = 1
    for p, blocks in _primary_blocks(A).items():
        below = 0  # sum of e' n_e' over the blocks e' < e
        for e, n in blocks.items():
            lifts = p ** ((e - 1) * n * (n + 1) // 2 + n * below)
            total *= count_symmetric_invertible(n, p) * lifts
            below += e * n
    return total


def symmetric_ratio(n: int, q: int) -> Fraction:
    return Fraction(count_symmetric_invertible(n, q), gl_order(n, q))

"""Additive codes C in A^n and their left/right dual codes.

Every dual code is the zero set of the integer pairing forms of the
code's `basis`, so its cost follows the rank of C, not the words given.
`groups._zero_subgroup` finds at most k n generators of it by extended-gcd
steps on the unit vectors, keeps their greedy basis as the dual's `basis`
and enumerates only its |D| members.  Every call checks a certificate:
every generator zeroes every form, and |D| |C| = |A^n|, which by the
perfect pairing makes D the whole zero set, so a solver bug raises
instead of reaching a table.  Each question about duals has one route:
- the duals of a given subgroup under a given duality are that zero set
  (`_zero_set`), for `left_dual`, `right_dual` and `duals_table` with a
  list of dualities alike;
- whether K is a dual of H needs no dual: Phi(h, k) = 1 on basis pairs
  and |H| |K| = |A| (`_orthogonal`);
- over all of Aut(A), with phi(a) = phi_0(a tau), R_phi(H) = L_0(H tau)
  and L_phi(H) = L_0(H tau*): `_image_rows` names the images by their ids
  in `groups._lattice`, and L_0 is built only for a returned dual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import accumulate, repeat
from operator import mul
from typing import Iterable, Iterator, Optional, Sequence

from .dualities import (
    Duality,
    _conjugate_gram,
    _duality_from_gram,
    _pairing_forms,
    is_symmetric,
)
from .groups import (
    GroupElement,
    GroupSpec,
    Subgroup,
    _adjoints,
    _aut,
    _element_orders,
    _known_automorphism,
    _lattice,
    _multiples,
    _packing,
    _unit_rows,
    _unpacker,
    _zero_subgroup,
    aut_order,
    is_characteristic,
    make_group,
    subgroup_closure,
)
from .limits import Limits, check_enumeration, check_scan


@dataclass(frozen=True)
class PowerGroup:
    """A^n, realized as the GroupSpec with the base orders repeated n times."""

    base: GroupSpec
    n: int
    spec: GroupSpec = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("length must be at least 1")
        object.__setattr__(self, "spec", make_group(self.base.orders * self.n))

    def word(self, blocks: Sequence[GroupElement]) -> GroupElement:
        if len(blocks) != self.n:
            raise ValueError(f"expected {self.n} blocks")
        coords: list[int] = []
        for b in blocks:
            if b.parent != self.base:
                raise ValueError("block belongs to a different base group")
            coords.extend(b.coords)
        return self.spec.element(coords)


@dataclass(frozen=True, eq=False)
class AdditiveCode:
    power: PowerGroup
    subgroup: Subgroup

    def __post_init__(self) -> None:
        if self.subgroup.parent != self.power.spec:
            raise ValueError("subgroup does not live in the power group")

    @property
    def order(self) -> int:
        return self.subgroup.order

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AdditiveCode):
            return NotImplemented
        return self.power == other.power and self.subgroup == other.subgroup

    def __hash__(self) -> int:
        return hash((self.power, self.subgroup))

    def __str__(self) -> str:
        return str(self.subgroup)


def code_from_generators(
    base: GroupSpec, n: int, gens: Iterable[GroupElement]
) -> AdditiveCode:
    power = PowerGroup(base, n)
    return AdditiveCode(power, subgroup_closure(power.spec, tuple(gens)))


def code_from_subgroup(base: GroupSpec, n: int, H: Subgroup) -> AdditiveCode:
    return AdditiveCode(PowerGroup(base, n), H)


def extend_duality(phi: Duality, n: int) -> Duality:
    """The coordinatewise extension of phi to A^n (block-diagonal tau).  A
    block-diagonal copy of a bijection is a bijection, so it is not checked."""
    if n == 1:
        return phi
    k = phi.parent.rank
    rows = [
        (0,) * (b * k) + row + (0,) * ((n - 1 - b) * k)
        for b in range(n)
        for row in phi.tau.matrix
    ]
    return Duality(_known_automorphism(PowerGroup(phi.parent, n).spec, rows))


def left_dual(
    C: AdditiveCode, phi: Duality, limits: Limits | None = None
) -> AdditiveCode:
    """L_phi(C) = {x : Phi(x, c) = 1 for all c in C}."""
    return _dual(C, phi, limits, left=True)


def right_dual(
    C: AdditiveCode, phi: Duality, limits: Limits | None = None
) -> AdditiveCode:
    """R_phi(C) = {x : Phi(c, x) = 1 for all c in C}."""
    return _dual(C, phi, limits, left=False)


def _dual(
    C: AdditiveCode, phi: Duality, limits: Limits | None, left: bool
) -> AdditiveCode:
    """The dual of C on one side.  Its order |A^n| / |C| is checked against
    the scan bound before any member is enumerated."""
    _check_duality_parent(C, phi)
    check_scan(C.power.spec.cardinality // C.order, limits)
    return AdditiveCode(C.power, _zero_set(C.power.spec, phi, C.subgroup, left))


def _check_duality_parent(C: AdditiveCode, phi: Duality) -> None:
    if phi.parent not in (C.power.spec, C.power.base):
        raise ValueError("duality is neither over the base nor the power group")


def _zero_set(spec: GroupSpec, phi: Duality, H: Subgroup, left: bool) -> Subgroup:
    """L_phi(H) when `left`, else R_phi(H): the zero set of the pairing
    forms of H's basis, as pairing trivially with a generating set is
    pairing trivially with all of H.  phi is nondegenerate, so h -> form is
    injective and the forms span a group of order |H|."""
    return _zero_subgroup(spec, _pairing_forms(phi, H.basis, left), H.order)


def _orthogonal(phi: Duality, xs, ys) -> bool:
    """Whether Phi(x, y) = 1 for every word x in `xs` and y in `ys`; on
    generating sets, whether the two subgroups pair trivially."""
    m = phi.parent.exponent
    forms = _pairing_forms(phi, xs, False)
    return not any(sum(map(mul, f, y)) % m for f in forms for y in ys)


class DualKind(Enum):
    NONE = "none"
    SELF_ORTHOGONAL = "self_orthogonal"
    SELF_DUAL = "self_dual"


def self_dual_kind(C: AdditiveCode, phi: Duality) -> DualKind:
    """Self-orthogonal when Phi(c, c') = 1 on C's generator pairs, which
    puts C inside both of its duals; self-dual when also |C|^2 = |A^n|, as
    each dual has order |A^n| / |C|.  No dual is built."""
    _check_duality_parent(C, phi)
    if not _orthogonal(phi, C.subgroup.basis, C.subgroup.basis):
        return DualKind.NONE
    if C.order**2 == C.power.spec.cardinality:
        return DualKind.SELF_DUAL
    return DualKind.SELF_ORTHOGONAL


class UnsupportedPairError(ValueError):
    """The size condition alone does not guarantee a duality exists."""


def construct_duality_for_pair(
    H: Subgroup, K: Subgroup, limits: Limits | None = None
) -> Duality:
    """A symmetric duality making H and K mutual left/right duals.

    Supported cases: the parent is elementary abelian, or A = H (+) K.
    Both take the duality with a symmetric Gram matrix M on one basis of A
    adapted to H and K (`_adapted_basis`).  Anything else raises
    UnsupportedPairError: with only the size condition such a duality can
    fail to exist.
    """
    A = H.parent
    if K.parent != A:
        raise ValueError("subgroups of different groups")
    if H.order * K.order != A.cardinality:
        raise ValueError("size condition |H| * |K| = |A| fails")
    check_enumeration(A.cardinality, limits)
    # Every d_i divides m, so a prime exponent makes A elementary abelian;
    # with the size check, H cap K = 0 makes A = H (+) K.
    if A.primes() != [A.exponent] and len(set(H._packed).intersection(K._packed)) > 1:
        raise UnsupportedPairError(
            "pair is neither in an elementary abelian group nor a direct sum; "
            "a suitable duality may not exist"
        )
    phi = _adapted_basis(A, H, K)[1]
    _assert_pair_duality(phi, H, K)
    return phi


def search_duality_for_pair(
    H: Subgroup, K: Subgroup, limits: Limits | None = None
) -> Optional[Duality]:
    """Exhaustive fallback: the first duality, in Aut(A) order, under which
    both duals of H, L_0 of two images of H, are K.  L_0 is injective and
    swaps K and L_0(K), as phi_0 is symmetric and perfect, so both images
    must be L_0(K): one zero set in all."""
    A = H.parent
    if K.parent != A:
        raise ValueError("subgroups of different groups")
    rows = _image_rows(A, [H], limits)
    lattice = _lattice(A)
    k0 = lattice.id_of(lattice.l0(lattice.id_of(K)))
    tau = next((tau for tau, ((L, R),) in rows if L == R == k0), None)
    return None if tau is None else Duality(_known_automorphism(A, tau))


def _assert_pair_duality(phi: Duality, H: Subgroup, K: Subgroup) -> None:
    """phi must be symmetric with H and K orthogonal.  Then K lies in
    L_phi(H) = R_phi(H), which has order |A| / |H| = |K| by the caller's
    size check, so K is both duals of H and, as double duals, H of K."""
    if not is_symmetric(phi):
        raise AssertionError("constructed duality is not symmetric")
    if not _orthogonal(phi, H.basis, K.basis):
        raise AssertionError("constructed duality does not pair H with K")


def _adapted_basis(A: GroupSpec, H: Subgroup, K: Subgroup):
    """A basis of A adapted to H and K, and the duality with Gram matrix M
    on it, for A elementary abelian or A = H (+) K.

    One pass over the pools H cap K, H, K and A, each by (-order, x): x
    joins when <x> meets the span only in 0, that is when no k x, 0 < k <
    o, lies in it.  It never has to go back: let B, the span's
    part in the pool S, be a summand of S with complement C.  Any y with
    <y> cap B = 0 has the order of its C-component c', so the first such y
    of maximal order has c' of maximal order in C, which (per primary
    part) generates a summand; B + <y> = B (+) <c'> is again a summand.
    The basis runs through H cap K, H, H + K and A for (Z/p)^n.  The pools
    are packed, read in `groups._element_orders`, and the span maps each
    packed member to its coordinates in the basis (`_Packing.extend`).

    M pairs the first i = dim(H cap K) vectors with the last i and each
    other b with itself, by m / o_b.  For (Z/p)^n, H is spanned by the
    first h vectors, which M pairs with b_i, ..., b_(h-1) and the last i
    only, so the annihilator of H on either side is spanned by the rest:
    the basis of H cap K and the vectors from K that extend H to H + K,
    which span K.  For A = H (+) K, i = 0 and M = diag(m / o_b) sums the
    standard dualities of the cyclic factors <b>, which are pairwise
    orthogonal, so H and K annihilate each other.

    Row i of P, the coordinates c_b < o_b of g_i, is read from the span at
    the packed unit row, and G = P M P^T mod m does not depend on them as
    M_rs o_r = 0 (mod m).  The basis is returned in coordinates.
    """
    m, P, table = A.exponent, _packing(A), _element_orders(A)
    span, basis = {0: ()}, []
    inter = set(H._packed).intersection(K._packed)
    for pool in (inter, set(H._packed), set(K._packed), table):
        if len(span) == A.cardinality:
            break
        for x in filter(pool.__contains__, table):
            if x in span:
                continue
            steps = list(accumulate(repeat(x, table[x] - 1), P.add, initial=0))
            if span.keys().isdisjoint(steps[1:]):
                span = P.extend(span, steps)
                basis.append(x)
    if len(span) != A.cardinality:
        raise AssertionError("basis does not decompose A")
    n, i = len(basis), len(inter.intersection(basis))
    sigma = [*range(n - i, n), *range(i, n - i), *range(i)]
    w = [m // table[b] for b in basis]
    M = [[w_r * (s == t) for s in range(n)] for w_r, t in zip(w, sigma)]
    rows = [span[P.pack(g)] for g in _unit_rows(A.rank)]
    return list(map(P.unpack, basis)), _duality_from_gram(A, _conjugate_gram(M, rows, m))


def mult_by_p_filtration(
    A: GroupSpec, p: int, limits: Limits | None = None
) -> list[tuple[Subgroup, Subgroup]]:
    """(ker f^j, im f^j) for f(a) = p a, j = 0..N with f^N = 0, built after
    |A| passes the enumeration bound.  Each distinct level other than {0}
    and A, which are characteristic in every group, is checked once to be
    characteristic."""
    if A.primes() != [p]:
        raise ValueError(f"group is not a {p}-group")
    check_enumeration(A.cardinality, limits)
    # For q = p^j up to the exponent p^N, ker f^j and im f^j are products
    # over the factors: the multiples of d_i / gcd(q, d_i) and of gcd(q, d_i).
    pairs, q = [], 1
    while q <= A.exponent:
        g = [math.gcd(q, d) for d in A.orders]
        ker = _multiples(A, [d // c for d, c in zip(A.orders, g)])
        pairs.append((ker, _multiples(A, g)))
        q *= p
    proper = {H for level in pairs for H in level if 1 < H.order < A.cardinality}
    if not all(is_characteristic(H, limits) for H in proper):
        raise AssertionError("filtration subgroup is not characteristic")
    return pairs


def verify_filtration_duality(
    A: GroupSpec, p: int | None = None, limits: Limits | None = None
) -> bool:
    """im f^j = L_phi(ker f^j) = R_phi(ker f^j) (and the mirrored pair)
    for every duality phi and every level j."""
    if p is None:
        primes = A.primes()
        if len(primes) != 1:
            raise ValueError("group is not a p-group")
        p = primes[0]
    return _swapped_by_l0(A, mult_by_p_filtration(A, p, limits))


def _swapped_by_l0(A: GroupSpec, pairs: Sequence[tuple[Subgroup, Subgroup]]) -> bool:
    """Whether L_0 maps ker to im and im to ker on every level: whether ker
    and im are orthogonal under phi_0 with |ker| |im| = |A|, as phi_0 is
    symmetric.  No dual is built.

    Every dual is L_0 of an automorphic image of the subgroup (see
    `_image_rows`), so both duals of a characteristic subgroup are L_0
    of it under every duality; conversely L_0 is injective on subgroups,
    so equal duals under every tau force H tau = H.  The (ker, im) levels
    are therefore mutual left/right duals under every duality exactly when
    every level is characteristic and this holds.  phi_0 has Gram matrix
    diag(w), so no duality is built either."""
    m, w = A.exponent, A.weights
    return all(
        ker.order * im.order == A.cardinality
        and not any(sum(map(mul, w, map(mul, x, y))) % m for x in ker.basis for y in im.basis)
        for ker, im in pairs
    )


@dataclass(frozen=True)
class DependenceReport:
    """How the duals of a fixed subgroup vary with the duality."""

    subgroup: Subgroup
    left_classes: tuple[tuple[Subgroup, tuple[int, ...]], ...]
    right_classes: tuple[tuple[Subgroup, tuple[int, ...]], ...]
    characteristic: bool


def duality_dependence(
    H: Subgroup, limits: Limits | None = None
) -> DependenceReport:
    A = H.parent
    # Duality indices by image id: L_0 is injective, so equal ids are equal duals.
    left_ids, right_ids = {}, {}
    for idx, (_, ((left, right),)) in enumerate(_image_rows(A, [H], limits)):
        left_ids.setdefault(left, []).append(idx)
        right_ids.setdefault(right, []).append(idx)
    # Classes come in order of their least duality index.
    lattice = _lattice(A)
    left, right = ([(lattice.l0(i), tuple(ids)) for i, ids in d.items()]
                   for d in (left_ids, right_ids))
    # Stab(H): the class of the tau with H tau = H, whose right id is H's.
    # By orbit-stabilizer there are |Aut| / |Stab(H)| classes on each side.
    stab = len(right_ids[lattice.id_of(H)])
    total = aut_order(A)
    char = stab == total
    if not len(right) == len(left) == total // stab:
        raise AssertionError("dual-value classes do not match stabilizer cosets")
    if char != (len(right) == 1):
        raise AssertionError("characteristic test disagrees with dual dependence")
    return DependenceReport(H, tuple(left), tuple(right), char)


def _image_rows(
    A: GroupSpec, subgroups: Sequence[Subgroup], limits: Limits | None
) -> Iterator[tuple[tuple[tuple[int, ...], ...], list[tuple[int, int]]]]:
    """Per tau in Aut(A) order, (tau's matrix, [(id of H tau*, id of H tau)
    for H in subgroups]) in `groups._lattice(A)`: the ids whose L_0 are
    L_phi(H) and R_phi(H), phi(a) = phi_0(a tau).  The parents, Aut(A)
    against the enumeration bound and each dual against the scan bound are
    checked at the call, in that order."""
    auts, cols = _image_columns(A, subgroups, limits)
    return (
        (matrix, [(col[j], col[i]) for col in cols])
        for matrix, (i, j) in zip(map(_unpacker(A), auts), enumerate(_adjoints(A)))
    )


def _image_columns(A: GroupSpec, subgroups: Sequence[Subgroup], limits: Limits | None):
    """Aut(A) packed and the column of each H, after `_image_rows`'s checks."""
    auts = _check_subgroups(A, subgroups, limits, aut=True)
    lattice = _lattice(A)
    return auts, lattice.columns([lattice.id_of(H) for H in subgroups])


def _check_subgroups(A: GroupSpec, subgroups, limits: Limits | None, aut: bool = False):
    """The parents, then with `aut` Aut(A) after the enumeration bound (which
    is returned), then each dual's order |A| / |H| against the scan bound."""
    if any(H.parent != A for H in subgroups):
        raise ValueError("subgroup does not live in the given group")
    auts = _aut(A, limits) if aut else None
    for H in subgroups:
        check_scan(A.cardinality // H.order, limits)
    return auts


def duals_table(
    A: GroupSpec,
    subgroups: Sequence[Subgroup],
    dualities: Iterable[Duality] | None = None,
    limits: Limits | None = None,
) -> Iterator[dict]:
    """One row per duality (all of Aut(A) when `dualities` is None), yielded
    as it is computed: its tau matrix and the left/right dual of each
    subgroup, in the order given.  Over Aut(A) the duals are L_0 of the
    images (`_image_rows`); under given dualities each is a `_zero_set`.
    The checks raise at the call."""
    if dualities is None:
        rows, l0 = _image_rows(A, subgroups, limits), _lattice(A).l0
        rows = ((tau, [(l0(i), l0(j)) for i, j in ids]) for tau, ids in rows)
    else:
        _check_subgroups(A, subgroups, limits)
        dualities = list(dualities)
        if any(phi.parent != A for phi in dualities):
            raise ValueError("duality of a different group")
        rows = (
            (phi.tau.matrix, [(_zero_set(A, phi, H, True), _zero_set(A, phi, H, False))
                              for H in subgroups])
            for phi in dualities
        )
    return (
        {
            "tau": [list(r) for r in tau],
            "duals": [{"left": L, "right": R} for L, R in row],
        }
        for tau, row in rows
    )

"""Additive codes C in A^n and their left/right dual codes.

Every dual code is the zero set of the integer pairing forms of the
code's generators.  `groups._zero_subgroup` finds generators of it by
extended-gcd steps on the unit vectors and enumerates only its |D|
members.  Each result carries a certificate that is checked on every
call: every generator zeroes every form, and |D| |C| = |A^n|, which by
the perfect pairing makes D the whole zero set.  A solver bug therefore
raises instead of reaching a table.  With phi(a) = phi_0(a tau),
R_phi(H) = L_0(H tau) and L_phi(H) = L_0(H tau*): every dual is the
canonical annihilator L_0 of an automorphic image, and `_duals_by_image`
computes one zero set per group for each image, whatever duality gives it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator, Optional, Sequence

from .cyclotomic import CycInt
from .characters import Character, pairing_exponent
from .dualities import (
    Duality,
    _duality_from_gram,
    _gram,
    _pairing_forms,
    _rows_from_gram,
    all_dualities,
    canonical_duality,
    inner_product_value,
    is_symmetric,
)
from .groups import (
    Automorphism,
    GroupElement,
    GroupSpec,
    Subgroup,
    _annihilators,
    _image,
    _span,
    _zero_subgroup,
    all_subgroups,
    automorphism_group,
    is_characteristic,
    make_group,
    stabilizer,
    subgroup_closure,
    subgroup_from_elements,
)
from .limits import Limits, check_scan


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
    """The coordinatewise extension of phi to A^n (block-diagonal tau)."""
    if n == 1:
        return phi
    A = phi.parent
    spec = PowerGroup(A, n).spec
    k = A.rank
    rows = []
    for block in range(n):
        for i in range(k):
            row = [0] * spec.rank
            for j in range(k):
                row[block * k + j] = phi.tau.matrix[i][j]
            rows.append(tuple(row))
    return Duality(Automorphism(spec, spec, tuple(rows)))


def _extended(phi: Duality, C: AdditiveCode) -> Duality:
    if phi.parent == C.power.spec:
        return phi
    if phi.parent != C.power.base:
        raise ValueError("duality is neither over the base nor the power group")
    return extend_duality(phi, C.power.n)


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
    """The zero set of the pairing forms of C's generators: pairing
    trivially with a generating set is pairing trivially with all of C.
    phi is nondegenerate, so c -> form is injective and the forms span a
    group of order |C|; the dual has order |A^n| / |C|, which is checked
    against the scan bound before any member is enumerated."""
    spec = C.power.spec
    if phi.parent not in (spec, C.power.base):
        raise ValueError("duality is neither over the base nor the power group")
    check_scan(spec.cardinality // C.order, limits)
    forms = _pairing_forms(phi, (g.coords for g in C.subgroup.generators), left)
    return AdditiveCode(C.power, _zero_subgroup(spec, forms, C.order))


class DualKind(Enum):
    NONE = "none"
    SELF_ORTHOGONAL = "self_orthogonal"
    SELF_DUAL = "self_dual"


def self_dual_kind(C: AdditiveCode, phi: Duality) -> DualKind:
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


def dual_sum_check(
    C: AdditiveCode, phi: Duality, x: GroupElement
) -> CycInt:
    """sum_{y in C} Phi(x, y), exactly; equals |C| or 0 by membership."""
    ext = _extended(phi, C)
    total = CycInt.zero(C.power.spec.exponent)
    for y in C.subgroup.elements:
        total = total + inner_product_value(ext, x, y)
    return total


class UnsupportedPairError(ValueError):
    """The size condition alone does not guarantee a duality exists."""


def construct_duality_for_pair(
    H: Subgroup, K: Subgroup, limits: Limits | None = None
) -> Duality:
    """A symmetric duality making H and K mutual left/right duals.

    Supported cases: the parent is elementary abelian (basis completion),
    or A = H (+) K (factorwise inner products).  Anything else raises
    UnsupportedPairError: with only the size condition such a duality can
    fail to exist.
    """
    A = H.parent
    if K.parent != A:
        raise ValueError("subgroups of different groups")
    if H.order * K.order != A.cardinality:
        raise ValueError("size condition |H| * |K| = |A| fails")
    if _is_elementary_abelian(A):
        phi = _pair_duality_elementary(A, H, K)
    elif _is_direct_sum(A, H, K):
        phi = _pair_duality_direct_sum(A, H, K)
    else:
        raise UnsupportedPairError(
            "pair is neither in an elementary abelian group nor a direct sum; "
            "a suitable duality may not exist"
        )
    _assert_pair_duality(phi, H, K)
    return phi


def search_duality_for_pair(
    H: Subgroup, K: Subgroup, limits: Limits | None = None
) -> Optional[Duality]:
    """Exhaustive fallback: the first duality, in Aut(A) order, pairing H
    with K.  One `_duals_by_image` call serves every duality."""
    dualities = all_dualities(H.parent, limits)
    rows = _duals_by_image(H.parent, [H], dualities, None)
    for phi, ((L, R),) in zip(dualities, rows):
        if L == R == K:
            return phi
    return None


def _assert_pair_duality(phi: Duality, H: Subgroup, K: Subgroup) -> None:
    """phi must be symmetric with L_phi(H) = R_phi(H) = K; then also
    L_phi(K) = L_phi(R_phi(H)) = H and R_phi(K) = H, as double duals."""
    if not is_symmetric(phi):
        raise AssertionError("constructed duality is not symmetric")
    ((L, R),) = next(_duals_by_image(H.parent, [H], [phi], None))
    if not L == R == K:
        raise AssertionError("constructed duality does not pair H with K")


def _is_elementary_abelian(A: GroupSpec) -> bool:
    p = A.orders[0]
    return all(d == p for d in A.orders) and _is_prime(p)


def _is_prime(p: int) -> bool:
    return p >= 2 and all(p % d for d in range(2, int(math.isqrt(p)) + 1))


def _is_direct_sum(A: GroupSpec, H: Subgroup, K: Subgroup) -> bool:
    inter = H.element_set() & K.element_set()
    return len(inter) == 1 and H.order * K.order == A.cardinality


def _greedy_extend_basis(
    A: GroupSpec, basis: list[GroupElement], pool: Iterable[GroupElement]
) -> None:
    """Extend `basis` in place with pool vectors independent of it, taking
    the first admissible vector in canonical element order each time."""
    # `basis` is independent, so the greedy kernel keeps it as its prefix.
    coords = [b.coords for b in basis] + [v.coords for v in pool]
    grown = _span(A.orders, coords)[0]
    basis.extend(A.element(c) for c in grown[len(basis) :])


def _pair_duality_elementary(
    A: GroupSpec, H: Subgroup, K: Subgroup
) -> Duality:
    p = A.orders[0]
    n = A.rank
    inter = sorted(H.element_set() & K.element_set())
    inter_elems = [A.element(c) for c in inter]

    basis: list[GroupElement] = []
    _greedy_extend_basis(A, basis, inter_elems)
    i = len(basis)
    _greedy_extend_basis(A, basis, H.elements)
    h = len(basis)
    _greedy_extend_basis(A, basis, K.elements)
    c = len(basis)  # = h + dim K - i
    _greedy_extend_basis(A, basis, A.elements())
    if len(basis) != n:
        raise AssertionError("basis completion failed")

    E = [list(e.coords) for e in basis]
    Einv = _invert_mod_p(E, p)

    # Index swap: the first i basis vectors (H cap K) pair with the final
    # i completion vectors; the middle block pairs with itself.
    def sigma(j: int) -> int:
        if j < i:
            return c + j
        if j < c:
            return j
        return j - c

    # Dual-basis character t_j is column j of Einv; phi(e_j) = t_{sigma(j)}.
    s_rows = [
        [Einv[r][sigma(l)] for r in range(n)] for l in range(n)
    ]
    tau_rows = []
    for r in range(n):
        row = [0] * n
        for l in range(n):
            for jj in range(n):
                row[jj] = (row[jj] + Einv[r][l] * s_rows[l][jj]) % p
        tau_rows.append(tuple(row))
    return Duality(Automorphism(A, A, tuple(tau_rows)))


def _invert_mod_p(mat: list[list[int]], p: int) -> list[list[int]]:
    n = len(mat)
    aug = [
        [mat[r][j] % p for j in range(n)]
        + [1 if j == r else 0 for j in range(n)]
        for r in range(n)
    ]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] % p)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = pow(aug[col][col], -1, p)
        aug[col] = [(x * inv) % p for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [(x - f * y) % p for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def _cyclic_decomposition(
    A: GroupSpec, H: Subgroup
) -> list[GroupElement]:
    """Independent generators h_1, ..., h_r of H with H = (+) <h_i>,
    found by backtracking with maximal-order elements first."""
    candidates = sorted(H.elements, key=lambda x: (-x.order, x.coords))

    def recurse(basis: list[GroupElement], size: int) -> Optional[list[GroupElement]]:
        if size == H.order:
            return basis
        for x in candidates:
            if x.is_zero():
                continue
            bigger = subgroup_closure(A, basis + [x])
            if bigger.order == size * x.order:
                out = recurse(basis + [x], bigger.order)
                if out is not None:
                    return out
        return None

    result = recurse([], 1)
    if result is None:
        raise AssertionError("cyclic decomposition not found")
    return result


def _factor_coordinates(
    A: GroupSpec, basis: list[GroupElement]
) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Coordinates of each element of (+) <h_i> against the cyclic basis."""
    from itertools import product as iproduct

    coords = {}
    ranges = [range(b.order) for b in basis]
    for tup in iproduct(*ranges):
        x = A.zero()
        for ci, b in zip(tup, basis):
            x = x + ci * b
        coords[x.coords] = tup
    return coords


def _pair_duality_direct_sum(
    A: GroupSpec, H: Subgroup, K: Subgroup
) -> Duality:
    m = A.exponent
    basis_h = _cyclic_decomposition(A, H)
    basis_k = _cyclic_decomposition(A, K)
    coords_h = _factor_coordinates(A, basis_h)
    coords_k = _factor_coordinates(A, basis_k)

    decomp: dict[tuple[int, ...], tuple[GroupElement, GroupElement]] = {}
    for hc in coords_h:
        for kc in coords_k:
            s = A.element(hc) + A.element(kc)
            decomp[s.coords] = (A.element(hc), A.element(kc))
    if len(decomp) != A.cardinality:
        raise AssertionError("H and K do not decompose A")

    def factor_exp(
        x: GroupElement, y: GroupElement, basis: list[GroupElement], coords
    ) -> int:
        cx, cy = coords[x.coords], coords[y.coords]
        return sum(
            (m // b.order) * a * bb for a, bb, b in zip(cx, cy, basis)
        ) % m

    def iexp(a: GroupElement, b: GroupElement) -> int:
        ha, ka = decomp[a.coords]
        hb, kb = decomp[b.coords]
        return (
            factor_exp(ha, hb, basis_h, coords_h)
            + factor_exp(ka, kb, basis_k, coords_k)
        ) % m

    gens = A.generators()
    return _duality_from_gram(A, [[iexp(gi, gj) for gj in gens] for gi in gens])


def mult_by_p_filtration(
    A: GroupSpec, p: int, limits: Limits | None = None
) -> list[tuple[Subgroup, Subgroup]]:
    """(ker f^j, im f^j) for f(a) = p a, j = 0..N with f^N = 0.

    Each distinct level other than {0} and A, which are characteristic in
    every group, is checked once to be characteristic."""
    if A.primes() != [p]:
        raise ValueError(f"group is not a {p}-group")
    N = 0
    m = A.exponent
    while m % p == 0:
        m //= p
        N += 1
    pairs = []
    for j in range(N + 1):
        q = p**j
        ker = subgroup_from_elements(
            A, [a for a in A.elements() if (q * a).is_zero()]
        )
        im = subgroup_from_elements(A, [q * a for a in A.elements()])
        pairs.append((ker, im))
    proper = dict.fromkeys(
        H for level in pairs for H in level if 1 < H.order < A.cardinality
    )
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
    # mult_by_p_filtration has checked that every level is characteristic.
    return _swapped_by_l0(A, mult_by_p_filtration(A, p, limits), limits)


def _filtration_is_dual(
    A: GroupSpec,
    pairs: Sequence[tuple[Subgroup, Subgroup]],
    limits: Limits | None = None,
) -> bool:
    """Whether every (ker, im) level of a computed filtration is a mutual
    left/right dual pair under every duality of A.

    Every dual is L_0 of an automorphic image of the subgroup (see
    `_duals_by_image`), so both duals of a characteristic subgroup are L_0
    of it under every duality.  Conversely L_0 is injective on subgroups,
    so equal duals under every tau force H tau = H.  The test is therefore
    that every level is characteristic and that L_0 swaps ker and im."""
    if not all(is_characteristic(H, limits) for level in pairs for H in level):
        return False
    return _swapped_by_l0(A, pairs, limits)


def _swapped_by_l0(
    A: GroupSpec, pairs: Sequence[tuple[Subgroup, Subgroup]], limits: Limits | None
) -> bool:
    """Whether L_0 maps ker to im and im to ker on every level; for
    characteristic levels this is `_filtration_is_dual`."""
    levels = [H for level in pairs for H in level]
    (row,) = _duals_by_image(A, levels, [canonical_duality(A)], limits)
    return [L for L, _ in row] == [K for ker, im in pairs for K in (im, ker)]


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
    dualities = all_dualities(A, limits)
    left_ids: dict[Subgroup, list[int]] = {}
    right_ids: dict[Subgroup, list[int]] = {}
    for idx, ((L, R),) in enumerate(_duals_by_image(A, [H], dualities, limits)):
        left_ids.setdefault(L, []).append(idx)
        right_ids.setdefault(R, []).append(idx)
    # Classes come in order of their least duality index.
    left = [(sub, tuple(ids)) for sub, ids in left_ids.items()]
    right = [(sub, tuple(ids)) for sub, ids in right_ids.items()]
    char = is_characteristic(H, limits)

    stab = stabilizer(H, limits)
    auts = automorphism_group(A, limits)
    expected_classes = len(auts) // len(stab)
    if len(right) != expected_classes or len(left) != expected_classes:
        raise AssertionError("dual-value classes do not match stabilizer cosets")
    stab_set = {t.matrix for t in stab}
    for _, ids in right:
        # Every class of equal right duals must be a coset phi_1 o stab(H).
        base = dualities[ids[0]].tau
        base_inv = base.inverse()
        for idx in ids[1:]:
            witness = dualities[idx].tau.compose(base_inv)
            if witness.matrix not in stab_set:
                raise AssertionError("right-dual class is not a stabilizer coset")
    if char != (len(right) == 1):
        raise AssertionError("characteristic test disagrees with dual dependence")
    return DependenceReport(
        subgroup=H,
        left_classes=tuple(left),
        right_classes=tuple(right),
        characteristic=char,
    )


def _duals_by_image(
    A: GroupSpec,
    subgroups: Sequence[Subgroup],
    dualities: Iterable[Duality],
    limits: Limits | None,
) -> Iterator[list[tuple[Subgroup, Subgroup]]]:
    """Per duality phi, [(L_phi(H), R_phi(H)) for H in subgroups].

    With phi(a) = phi_0(a tau), R_phi(H) = L_0(H tau): the right row of tau
    maps each distinct generator of the subgroups through tau once and
    reads L_0 of each image from the per-group memo `_annihilators`.
    L_phi(H) = R_phi*(H), so the left row of phi is the right row of
    tau* = `_rows_from_gram(A, G^T)`.  Right rows are memoised by tau's
    matrix within the call, so on all of Aut(A) each is computed once and
    read twice.  Every dual has order |A| / |H|, checked against the scan
    bound for each H before any row, memoised or not, is read."""
    if any(H.parent != A for H in subgroups):
        raise ValueError("subgroup does not live in the given group")
    for H in subgroups:
        check_scan(A.cardinality // H.order, limits)
    words = list(dict.fromkeys(g.coords for H in subgroups for g in H.generators))
    where = {w: i for i, w in enumerate(words)}
    slots = [[where[g.coords] for g in H.generators] for H in subgroups]
    annihilator_of = _annihilators(A)
    rows: dict[tuple[tuple[int, ...], ...], list[Subgroup]] = {}

    def right_row(tau: tuple[tuple[int, ...], ...]) -> list[Subgroup]:
        row = rows.get(tau)
        if row is None:
            images = _image(A.orders, words, tau)
            row = rows[tau] = [
                annihilator_of(tuple(images[i] for i in slot)) for slot in slots
            ]
        return row

    for phi in dualities:
        if phi.parent != A:
            raise ValueError("duality of a different group")
        star = _rows_from_gram(A, tuple(zip(*_gram(phi))))
        yield list(zip(right_row(star), right_row(phi.tau.matrix)))


def duals_table(
    A: GroupSpec,
    subgroups: Sequence[Subgroup],
    dualities: Sequence[Duality] | None = None,
    limits: Limits | None = None,
) -> list[dict]:
    """One row per duality: its tau matrix and the left/right dual of each
    selected subgroup, in the order given."""
    dualities = list(dualities) if dualities is not None else all_dualities(A, limits)
    return [
        {
            "tau": [list(r) for r in phi.tau.matrix],
            "duals": [{"left": L, "right": R} for L, R in duals],
        }
        for phi, duals in zip(
            dualities, _duals_by_image(A, subgroups, dualities, limits)
        )
    ]

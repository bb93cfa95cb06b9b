"""Finite abelian groups presented as explicit products of cyclic groups.

A group is a fixed sequence of cyclic orders (d_1, ..., d_k); the order
sequence is never normalized, so the generator basis g_1, ..., g_k is part
of the data.  Elements are residue tuples, homomorphisms are integer
matrices acting on row vectors (row i = image of g_i).
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from collections.abc import Iterable, Iterator, Sequence
from functools import cached_property, lru_cache, reduce
from itertools import accumulate, product, repeat
from operator import add, floordiv, index, lshift, mod, mul

from ._value import Value
from .limits import Limits, check_enumeration


class GroupSpec(Value):
    """A finite abelian group prod Z/d_i with a fixed factor basis.

    `rank`, `exponent`, `cardinality`, `weights` (w_i = exponent / d_i,
    the pairing weight of each factor) and the hash of `orders` are
    computed once per group.  `make_group` keeps one instance per order
    tuple, so the per-group caches find a group by identity; a directly
    built `GroupSpec` with the same orders still compares and hashes
    equal, and reads the same cached tables."""

    def __init__(self, orders: tuple[int, ...]) -> None:
        self.__dict__["orders"] = orders
        self.__post_init__()

    def __post_init__(self) -> None:
        orders = _int_orders(self.orders)
        if not orders:
            raise ValueError("a group needs at least one cyclic factor")
        if any(d < 2 for d in orders):
            raise ValueError("every cyclic order must be at least 2")
        m = reduce(math.lcm, orders)
        self.__dict__.update(
            orders=orders,
            rank=len(orders),
            exponent=m,
            cardinality=math.prod(orders),
            weights=tuple(m // d for d in orders),
            # Elements are written as digit strings unless some d_i > 10.
            _comma=any(d > 10 for d in orders),
            _hash=hash(orders),
        )

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, GroupSpec):
            return NotImplemented
        return self.orders == other.orders

    def __hash__(self) -> int:
        return self._hash

    def element(self, coords: Sequence[int]) -> "GroupElement":
        return GroupElement(self, tuple(coords))

    def zero(self) -> "GroupElement":
        return GroupElement(self, (0,) * self.rank)

    def generator(self, i: int) -> "GroupElement":
        coords = [0] * self.rank
        coords[i] = 1
        return GroupElement(self, tuple(coords))

    def generators(self) -> list["GroupElement"]:
        return [self.generator(i) for i in range(self.rank)]

    def elements(self) -> Iterator["GroupElement"]:
        """All elements in canonical (lexicographic coordinate) order."""
        for coords in product(*(range(d) for d in self.orders)):
            yield GroupElement(self, coords)

    def primes(self) -> list[int]:
        return list(self._primes)

    @cached_property
    def _primes(self) -> tuple[int, ...]:
        return tuple(sorted(_prime_factors(self.cardinality)))

    def format_element(self, a: "GroupElement") -> str:
        return self.format_coords(a.coords)

    def format_coords(self, coords: Sequence[int]) -> str:
        return ("," if self._comma else "").join(map(str, coords))

    def parse_element(self, text: str) -> "GroupElement":
        return GroupElement(self, self.parse_coords(text))

    def parse_coords(self, text: str) -> tuple[int, ...]:
        """The reduced coordinates of an element written as by
        `format_element`: digits, or comma-separated when some d_i > 10."""
        parts = text.strip()
        if self._comma:
            parts = parts.split(",")
        digits = list(map(int, parts))
        if len(digits) != self.rank:
            raise ValueError(f"expected {self.rank} coordinates in {text!r}")
        return tuple(map(mod, digits, self.orders))


def _int_orders(orders: Iterable[int]) -> tuple[int, ...]:
    """The orders as ints; an order such as 2.5, 4.0 or "3" raises ValueError."""
    orders = tuple(orders)
    try:
        return tuple(map(index, orders))
    except TypeError:
        bad = next(d for d in orders if not hasattr(type(d), "__index__"))
        raise ValueError(f"cyclic order {bad!r} is not an integer") from None


# One GroupSpec per order tuple, kept for the process.
_groups: dict[tuple[int, ...], GroupSpec] = {}


def make_group(orders: Iterable[int]) -> GroupSpec:
    """The group prod Z/d_i, interned by its orders: every call with the
    same orders returns the same instance.  Bad orders raise ValueError
    on every call, as no group is kept for them."""
    key = _int_orders(orders)
    A = _groups.get(key)
    if A is None:
        A = _groups.setdefault(key, GroupSpec(key))
    return A


class GroupElement(Value):
    def __init__(self, parent: GroupSpec, coords: tuple[int, ...]) -> None:
        self.__dict__.update(parent=parent, coords=coords)
        self.__post_init__()

    def __post_init__(self) -> None:
        if len(self.coords) != self.parent.rank:
            raise ValueError("coordinate count does not match group rank")
        self.__dict__["coords"] = tuple(map(mod, self.coords, self.parent.orders))

    def __add__(self, other: "GroupElement") -> "GroupElement":
        self._check_parent(other)
        return GroupElement(
            self.parent, tuple(a + b for a, b in zip(self.coords, other.coords))
        )

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        return self + (-other)

    def __neg__(self) -> "GroupElement":
        return GroupElement(self.parent, tuple(-c for c in self.coords))

    def __rmul__(self, n: int) -> "GroupElement":
        return GroupElement(self.parent, tuple(n * c for c in self.coords))

    def __mul__(self, n: int) -> "GroupElement":
        return self.__rmul__(n)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    @property
    def order(self) -> int:
        return _order(self.parent.orders, self.coords)

    def _check_parent(self, other: "GroupElement") -> None:
        if self.parent != other.parent:
            raise ValueError("elements belong to different groups")

    def __str__(self) -> str:
        return self.parent.format_element(self)


class Subgroup(Value):
    """A subgroup stored once, as the sorted packed ints of its members
    (`_Packing`), with two packed generating sets.  `gens`, which
    `generators` and `extend_character` read, is the one it was built from,
    or else the greedy basis of the members.  `basis`, which duals,
    annihilators and orthogonality read, is the greedy basis of a closure's
    or a zero set's generators, or else `gens`.  `members`, `gens` and
    `basis` are decoded to coordinate tuples, `elements` and `generators`
    to `GroupElement`s, only when read."""

    def __init__(self, parent: GroupSpec, _packed: tuple[int, ...],
                 _gens: tuple[int, ...] | None = None,
                 _basis: tuple[int, ...] | None = None) -> None:
        self.__dict__.update(parent=parent, _packed=_packed, _gens=_gens, _basis=_basis)

    @cached_property
    def members(self) -> tuple[tuple[int, ...], ...]:
        return self._unpack(self._packed)

    @cached_property
    def gens(self) -> tuple[tuple[int, ...], ...]:
        gens = _packing(self.parent).span(self._packed)[0] if self._gens is None else self._gens
        return self._unpack(gens)

    @cached_property
    def basis(self) -> tuple[tuple[int, ...], ...]:
        return self.gens if self._basis is None else self._unpack(self._basis)

    def _unpack(self, xs) -> tuple[tuple[int, ...], ...]:
        return tuple(map(_packing(self.parent).unpack, xs))

    @property
    def elements(self) -> tuple[GroupElement, ...]:
        return tuple(GroupElement(self.parent, c) for c in self.members)

    @property
    def generators(self) -> tuple[GroupElement, ...]:
        return tuple(GroupElement(self.parent, c) for c in self.gens)

    @property
    def order(self) -> int:
        return len(self._packed)

    def element_set(self) -> frozenset[tuple[int, ...]]:
        return self._element_set

    @cached_property
    def _element_set(self) -> frozenset[tuple[int, ...]]:
        return frozenset(self.members)

    def __contains__(self, a: GroupElement) -> bool:
        return a.parent == self.parent and a.coords in self.element_set()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Subgroup):
            return NotImplemented
        return self.parent == other.parent and self._packed == other._packed

    def __hash__(self) -> int:
        return hash((self.parent, self._packed))

    def is_whole_group(self) -> bool:
        return self.order == self.parent.cardinality

    def words(self) -> list[str]:
        """The members as `format_coords` writes them, in member order."""
        return _packing(self.parent).format(self._packed)

    def __str__(self) -> str:
        return "{" + ",".join(self.words()) + "}"


# Subgroup members are packed as ints: coordinate i in a byte-aligned slot
# of w bits, the first most significant, w the least of 8, 16, 32, ... with
# 2^(w-1) >= every d_i, so int order is coordinate order.  With corr, high
# and dd holding 2^(w-1) - d_i, 2^(w-1) and d_i in slot i, s = x + g + corr
# has the top bit of slot i set exactly when x_i + g_i >= d_i, nothing
# carries, and x + g = s - corr - (dd & M), M all ones in those slots.
# Other modules only pass the ints to `_packing`'s methods.
_FROM_DIGITS = bytes(c - 48 if 48 <= c < 58 else 32 if c == 32 else 128 for c in range(256))
_TO_DIGITS = bytes.maketrans(bytes(range(10)), b"0123456789")


class _Packing:
    """The packed format of the elements of one group."""

    def __init__(self, A: GroupSpec) -> None:
        w, k = 8, A.rank
        while 1 << (w - 1) < max(A.orders):
            w *= 2
        self.k, self.w, self.size, self.full = k, w, k * w // 8, (1 << w) - 1
        self.digits = not A._comma
        self.shifts = [w * (k - 1 - i) for i in range(k)]
        self.dd = sum(map(lshift, A.orders, self.shifts))
        self.high = sum(1 << (w - 1) << s for s in self.shifts)
        self.corr = self.high - self.dd

    def pack(self, coords: Sequence[int]) -> int:
        if self.w == 8:
            return int.from_bytes(bytes(coords), "big")
        return sum(map(lshift, coords, self.shifts))

    def unpack(self, x: int) -> tuple[int, ...]:
        if self.w == 8:
            return tuple(x.to_bytes(self.k, "big"))
        return tuple(x >> s & self.full for s in self.shifts)

    def span(self, gens: Iterable[int]) -> tuple[list[int], set[int]]:
        """Greedy basis and element set of the subgroup generated by `gens`:
        a generator inside the span is skipped, any other joins the basis
        and multiplies the span by its cosets H + j g until j g is back in
        H.  The basis has at most Omega(|H|) members; O(|H| #basis + #gens)."""
        corr, high, dd, full, top = self.corr, self.high, self.dd, self.full, self.w - 1
        elems, span, basis = [0], {0}, []
        for g in gens:
            if g in span:
                continue
            basis.append(g)
            coset, step, g = elems, g, g + corr
            while step not in span:
                coset = [(s := x + g) - corr - (dd & ((s & high) >> top) * full) for x in coset]
                span.update(coset)
                elems.extend(coset)
                s = step + g
                step = s - corr - (dd & ((s & high) >> top) * full)
        return basis, span

    def add(self, x: int, y: int) -> int:
        """x + y, reduced in every slot."""
        s = x + y + self.corr
        return s - self.corr - (self.dd & ((s & self.high) >> (self.w - 1)) * self.full)

    def extend(self, span: dict[int, tuple[int, ...]], steps: list[int]) -> dict:
        """span (+) <g> from steps = [0, g, ..., (o - 1) g], when <g> meets
        span only in 0: each y + k g keyed to y's coordinates and k."""
        return {self.add(y, kg): c + (k,) for k, kg in enumerate(steps) for y, c in span.items()}

    def format(self, xs: Iterable[int]) -> list[str]:
        """`format_coords` of each element, digits by one translate each."""
        if self.digits:
            return [x.to_bytes(self.k, "big").translate(_TO_DIGITS).decode() for x in xs]
        return [",".join(map(str, self.unpack(x))) for x in xs]

    def from_digits(self, texts: Sequence[str], block: int) -> list[int] | None:
        """The elements in ASCII digits, in blocks of `block` joined by ':',
        if every text is one and every digit c is below its d_i; else None.
        Joined by ' ', without ':', c reads c, ' ' 32 and any other byte 128,
        and adding 2^7 - d_i to a digit slot and 0 to a ' ' sets no top bit
        exactly when every c < d_i and every ' ' separates two texts."""
        k, n, count, joined = self.k, self.k // block, len(texts), " ".join(texts)
        seps = ((":" * (n - 1) + " ") * count)[:-1]
        if not (self.digits and joined.isascii() and joined[block :: block + 1] == seps
                and len(joined) == count * (k + n) - 1):
            return None
        raw = joined.encode().translate(_FROM_DIGITS, b":")
        corr = int.from_bytes((self.corr.to_bytes(k, "big") + b"\0") * count, "big") >> 8
        high = int.from_bytes((b"\x80" * k + b"\0") * count, "big") >> 8
        if len(raw) != count * (k + 1) - 1 or (int.from_bytes(raw, "big") + corr) & high:
            return None
        return list(map(int.from_bytes, raw.split(b" "), repeat("big")))


_packing = lru_cache(maxsize=None)(_Packing)  # one format per group


def _block_letters(H: Subgroup, base: GroupSpec):
    """Per member of H, in base^n, the indices of its n blocks among the
    elements of `base` in product order: bytes when |base| <= 256, else
    lists.  In the members laid end to end, coordinate i of every block,
    shifted into the block's last slot, times d_(i+1) ... d_k, summed over
    i, is the index in that slot."""
    P, k = _packing(H.parent), base.rank
    if base.cardinality > 256:
        index = {a: i for i, a in enumerate(_coords(base))}.__getitem__
        return ([*map(index, zip(*[iter(c)] * k))] for c in H.members)
    n, count = P.k // k, len(H._packed)
    block, slot = P.size // n, P.w // 8
    words = int.from_bytes(b"".join([x.to_bytes(P.size, "big") for x in H._packed]), "big")
    low = int.from_bytes((bytes(block - slot) + b"\xff" * slot) * (n * count), "big")
    y = sum((words >> P.w * (k - 1 - i) & low) * math.prod(base.orders[i + 1 :]) for i in range(k))
    raw = y.to_bytes(P.size * count, "big")[block - 1 :: block]
    return [raw[i : i + n] for i in range(0, len(raw), n)]


def _order(orders: tuple[int, ...], coords: Sequence[int]) -> int:
    """The order of the element with reduced `coords`: the lcm of the
    orders d_i / gcd(c_i, d_i) of its coordinates."""
    return math.lcm(*(d // math.gcd(c, d) for c, d in zip(coords, orders)))


@lru_cache(maxsize=None)
def _element_orders(A: GroupSpec) -> dict[int, int]:
    """The order of each packed element of A, the lcm of d_i / gcd(c_i, d_i),
    keyed in (-order, x) order: |A| entries, built once per group."""
    factors = [[d // math.gcd(c, d) for c in range(d)] for d in A.orders]
    elements = zip((-math.lcm(*t) for t in product(*factors)), map(_packing(A).pack, _coords(A)))
    return {x: -o for o, x in sorted(elements)}


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with g = gcd(a, b) = s a + t b, for a, b >= 0."""
    s0, t0, s1, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, t0, s1, t1 = s1, t1, s0 - q * s1, t0 - q * t1
    return a, s0, t0


def _kernel_generators(
    orders: tuple[int, ...], m: int, forms: Iterable[Sequence[int]]
) -> list[tuple[int, ...]]:
    """Generators, at most one per factor, of the x in prod Z/d_i with
    sum_i f_i x_i = 0 (mod m) for every form f.

    Each f_i must satisfy d_i f_i = 0 (mod m), so that f . x does not
    depend on the representatives of the x_i.  The generators start as the
    unit vectors.  For each form, the values v_j = f . z_j are gathered on
    one pivot z_p by extended-gcd steps on pairs: with g = gcd(v_p, v_j) =
    s v_p + t v_j, (z_p, z_j) becomes (s z_p + t z_j, (v_j/g) z_p - (v_p/g)
    z_j), a unimodular change that keeps the span and leaves z_j the value
    0.  On that span f . x = c v (mod m) for x = c z_p + y, so the zero set
    of f in it is spanned by the other generators and (m / gcd(v, m)) z_p
    (Cohen, A Course in Computational Algebraic Number Theory, 2.4).  Each
    z_j carries its values on the forms after its coordinates, in reverse
    order, so that the next form's values are the last column still
    carried.  The steps leave every value on a form but the pivot's 0 and
    the scaling zeroes the pivot's, so a form's column is 0 from its pass
    on: the steps and the scaling, zipped with `mods`, build each z_j
    without that column or the ones after it, and keep the pivot's value
    in `a`."""
    k, forms = len(orders), list(forms)
    gens = [z + tuple([f[j] % m for f in reversed(forms)]) for j, z in enumerate(_unit_rows(k))]
    for f in reversed(range(k, k + len(forms))):
        mods = (*orders, *[m] * (f - k))
        p = None
        for j, zj in enumerate(gens):
            v = zj[f]
            if not v:
                continue
            if p is None:
                p, a = j, v
                continue
            zp = gens[p]
            g, s, t = _xgcd(a, v)
            # t = 0 makes g = a and s = 1: z_p stays.  v | a makes g = v,
            # s = 0 and t = 1: z_p becomes z_j.
            if s and t:
                gens[p] = tuple([(s * x + t * y) % d for x, y, d in zip(zp, zj, mods)])
            elif t:
                gens[p] = zj
            gens[j] = tuple([(v // g * x - a // g * y) % d for x, y, d in zip(zp, zj, mods)])
            a = g
        if p is not None:
            c = m // math.gcd(a, m)
            gens[p] = tuple([c * x % d for x, d in zip(gens[p], mods)])
            gens = [z for z in gens if any(z)]
    return [z[:k] for z in gens]


@lru_cache(maxsize=None)
def _unit_rows(k: int) -> tuple[tuple[int, ...], ...]:
    """The unit vectors e_1, ..., e_k: the generators g_i in coordinates,
    built once per rank."""
    return tuple(tuple(int(i == j) for j in range(k)) for i in range(k))


def _zero_subgroup(
    parent: GroupSpec, forms: Sequence[Sequence[int]], span_order: int
) -> Subgroup:
    """The subgroup of `parent` on which every form (as in
    `_kernel_generators`, modulo the exponent) vanishes, given the order
    of the span of the forms.

    The admissible forms are the characters of `parent`, and the pairing
    between the two is perfect, so the zero set has order |parent| /
    span_order.  Every generator is checked to zero every form and their
    span to have that order; together these prove the result is the whole
    zero set, and any failure raises AssertionError."""
    orders, m = parent.orders, parent.exponent
    gens = _kernel_generators(orders, m, forms)
    if any(sum(map(mul, f, z)) % m for z in gens for f in forms):
        raise AssertionError("a zero-set generator fails a form")
    P = _packing(parent)
    basis, span = P.span(map(P.pack, gens))
    if len(span) * span_order != parent.cardinality:
        raise AssertionError(
            f"zero set of order {len(span)} against forms spanning "
            f"{span_order} in a group of order {parent.cardinality}"
        )
    return Subgroup(parent, tuple(sorted(span)), _basis=tuple(basis))


def _l0_subgroup(parent: GroupSpec, gens, order: int) -> Subgroup:
    """L_0 of the subgroup of `order` that `gens` generate: the zero set of
    the forms (w_i y_i) of its generators y, which is also its annihilator
    read as exponent tuples."""
    forms = [tuple(map(mul, parent.weights, y)) for y in gens]
    return _zero_subgroup(parent, forms, order)


def subgroup_closure(
    parent: GroupSpec, gens: Iterable[GroupElement]
) -> Subgroup:
    """Smallest subgroup of `parent` containing `gens`."""
    gens = tuple(gens)
    if any(g.parent != parent for g in gens):
        raise ValueError("generator does not belong to the given group")
    return _closure(parent, tuple(map(_packing(parent).pack, (g.coords for g in gens))))


def _closure(parent: GroupSpec, gens: tuple[int, ...]) -> Subgroup:
    """The span of packed elements, which are kept as `gens`."""
    basis, span = _packing(parent).span(gens)
    return Subgroup(parent, tuple(sorted(span)), gens, tuple(basis))


def _multiples(A: GroupSpec, steps: Sequence[int]) -> Subgroup:
    """The x with each x_i a multiple of steps[i], a divisor of d_i: the
    members come sorted out of the factor ranges, first factor outermost,
    and the basis is the independent s_i e_i other than 0 (`gens` stays the
    lazy greedy one)."""
    members, factors = [0], list(zip(steps, A.orders, _packing(A).shifts))
    for s, d, shift in factors:
        members = [x + (c << shift) for x in members for c in range(0, d, s)]
    basis = tuple(s << shift for s, d, shift in factors if s < d)
    return Subgroup(A, tuple(members), _basis=basis)


def subgroup_from_elements(
    parent: GroupSpec, elements: Iterable[GroupElement]
) -> Subgroup:
    """Wrap an already-closed element set as a Subgroup (closure re-checked).

    The subgroup's generators are a greedy basis of the set, taken in
    canonical element order, not the whole set."""
    elements = tuple(elements)
    if any(e.parent != parent for e in elements):
        raise ValueError("element does not belong to the given group")
    P = _packing(parent)
    packed = sorted({P.pack(e.coords) for e in elements})
    basis, span = P.span(packed)
    if len(span) != len(packed):
        raise ValueError("element set is not closed under addition")
    return Subgroup(parent, tuple(packed), tuple(basis))


def all_subgroups(
    A: GroupSpec, limits: Limits | None = None
) -> list[Subgroup]:
    """Every subgroup of A, ordered by (order, sorted members); a fresh list
    of the subgroups enumerated once per group."""
    check_enumeration(A.cardinality, limits)
    return list(_subgroups(A))


@lru_cache(maxsize=None)
def _subgroups(A: GroupSpec) -> tuple[Subgroup, ...]:
    """Each subgroup once, by its unique Hermite normal form (Cohen, GTM
    138, 2.4): rows (0, ..., 0, h_i, H_i,i+1, ..., H_ik), h_i | d_i and
    0 <= H_ij < h_j, chosen from the last up and kept when (d_i/h_i) row_i
    lies in the span of the rows below; h_i = d_i forces row_i = d_i e_i,
    0 in A.  The members, the sums of c_i row_i with 0 <= c_i < d_i/h_i,
    are distinct."""
    P = _packing(A)
    forms = [((), [0])]  # (h_(i+1), ..., h_k), members of the rows below
    for i, d in reversed(list(enumerate(A.orders))):
        grown = []
        for pivots, members in forms:
            inside = set(members)
            for h in (h for h in range(1, d) if d % h == 0):
                for tail in product(*map(range, pivots)):
                    row = P.pack((0,) * i + (h, *tail))
                    steps = list(accumulate(repeat(row, d // h), P.add, initial=0))
                    if steps.pop() in inside:
                        grown.append(((h, *pivots), [P.add(x, s) for s in steps for x in members]))
            grown.append(((d, *pivots), members))
        forms = grown
    subgroups = sorted((sorted(members) for _, members in forms), key=lambda c: (len(c), c))
    return tuple(Subgroup(A, tuple(c)) for c in subgroups)


class Homomorphism(Value):
    """Matrix of a homomorphism: row i is the image of source generator g_i."""

    def __init__(self, source: GroupSpec, target: GroupSpec,
                 matrix: tuple[tuple[int, ...], ...]) -> None:
        self.__dict__.update(source=source, target=target, matrix=matrix)
        self.__post_init__()

    def __post_init__(self) -> None:
        if len(self.matrix) != self.source.rank:
            raise ValueError("matrix row count does not match source rank")
        rows = []
        for d_i, row in zip(self.source.orders, self.matrix):
            if len(row) != self.target.rank:
                raise ValueError("matrix column count does not match target rank")
            rows.append(tuple(map(mod, row, self.target.orders)))
            for t, d_j in zip(rows[-1], self.target.orders):
                if d_i * t % d_j:
                    raise ValueError(f"entry {t} maps an order-{d_i} generator outside "
                                     f"its admissible image in Z/{d_j}")
        self.__dict__["matrix"] = tuple(rows)

    def apply(self, a: GroupElement) -> GroupElement:
        if a.parent != self.source:
            raise ValueError("element does not belong to the source group")
        coords = [0] * self.target.rank
        for a_i, row in zip(a.coords, self.matrix):
            for j, t in enumerate(row):
                coords[j] += a_i * t
        return self.target.element(coords)

    def compose(self, then: "Homomorphism") -> "Homomorphism":
        """The map a -> then(self(a))."""
        if self.target != then.source:
            raise ValueError("homomorphisms are not composable")
        rows = tuple(
            then.apply(self.apply(g)).coords for g in self.source.generators()
        )
        cls = (
            Automorphism
            if isinstance(self, Automorphism) and isinstance(then, Automorphism)
            else Homomorphism
        )
        return cls(self.source, then.target, rows)

    def is_bijective(self) -> bool:
        """Equal orders and a trivial kernel: x T = 0 exactly when sum_i w_j
        T_ij x_i = 0 (mod m) for each target factor j, forms valid for
        `_kernel_generators` as d_i w_j T_ij = 0 by admissibility."""
        if self.source.cardinality != self.target.cardinality:
            return False
        m = self.target.exponent
        forms = [[w * row[j] % m for row in self.matrix]
                 for j, w in enumerate(self.target.weights)]
        return not any(map(any, _kernel_generators(self.source.orders, m, forms)))


class Automorphism(Homomorphism):
    """A bijective endomorphism; bijectivity checked at construction."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.source != self.target:
            raise ValueError("an automorphism needs source = target")
        if not self.is_bijective():
            raise ValueError("matrix does not define a bijection")

    @property
    def parent(self) -> GroupSpec:
        return self.source

    @property
    def order(self) -> int:
        ident = identity_automorphism(self.parent)
        power = self
        n = 1
        while power != ident:
            power = power.compose(self)
            n += 1
        return n


def _known_automorphism(A: GroupSpec, rows) -> Automorphism:
    """The automorphism with `rows`, which the caller knows to be reduced,
    admissible and bijective, built without the constructor's kernel test."""
    tau = object.__new__(Automorphism)
    tau.__dict__.update(source=A, target=A, matrix=tuple(rows))
    return tau


def identity_automorphism(A: GroupSpec) -> Automorphism:
    return Automorphism(A, A, _unit_rows(A.rank))


def scalar_automorphism(A: GroupSpec, n: int) -> Automorphism:
    """Multiplication by n; valid only when gcd(n, |A|) makes it bijective."""
    rows = tuple((n * g).coords for g in A.generators())
    return Automorphism(A, A, rows)


def automorphism_group(
    A: GroupSpec, limits: Limits | None = None
) -> list[Automorphism]:
    """Aut(A) in lexicographic matrix order, built as objects."""
    unpack = _unpacker(A)
    return [_known_automorphism(A, unpack(v)) for v in _aut(A, limits)]


# Aut(A) is kept as one increasing sequence of ints, one per automorphism:
# row j of tau, an element of A, packs as its index sum_i x_i R_i in product
# order (R_i = d_(i+1) ... d_k), and tau as sum_j index(row j) |A|^(k-1-j).
# So integer order is lexicographic matrix order, and the Aut index of tau
# is its position.  Only this module reads the format; the others decode
# with `_unpacker`, locate with `_aut_index` and read tau* from `_adjoints`.


def _aut(A: GroupSpec, limits: Limits | None) -> Sequence[int]:
    """Aut(A) packed, after the limits: the other modules' checked route."""
    check_enumeration(A.cardinality, limits)
    return _automorphisms(A)


def _coords(A: GroupSpec) -> list[tuple[int, ...]]:
    """The elements of A in product order: element index -> coordinates."""
    return list(product(*map(range, A.orders)))


def _places(A: GroupSpec) -> list[int]:
    """The place value R_i |A|^(k-1-j) of each entry (j, i), row-major."""
    k, N = A.rank, A.cardinality
    R = [math.prod(A.orders[i + 1 :]) for i in range(k)]
    return [R[i] * N ** (k - 1 - j) for j in range(k) for i in range(k)]


@lru_cache(maxsize=None)
def _unpacker(A: GroupSpec):
    """The decoder of A's packed automorphisms: an int -> its matrix rows."""
    coords, N = _coords(A), A.cardinality
    powers = [N**e for e in reversed(range(A.rank))]
    return lambda v: tuple([coords[v // p % N] for p in powers])


def _aut_rows(A: GroupSpec, lo: int, hi: int) -> list[list[int]]:
    """Row j of each automorphism in Aut(A)[lo:hi] as the index of that
    element in `_coords(A)`, one list per j.  Callers check the limits."""
    auts, N = _automorphisms(A)[lo:hi], A.cardinality
    powers = [N**e for e in reversed(range(A.rank))]
    return [list(map(mod, map(floordiv, auts, repeat(p)), repeat(N))) for p in powers]


def _aut_index(A: GroupSpec):
    """The Aut index of an automorphism from its row-major entries, by
    bisection on its packed int.  Callers check the limits."""
    auts, places = _automorphisms(A), _places(A)
    return lambda flat: bisect_left(auts, sum(map(mul, places, flat)))


@lru_cache(maxsize=None)
def _automorphisms(A: GroupSpec) -> Sequence[int]:
    """Aut(A), packed, by depth-first choice of the generator images.

    Row j must have order d_j and <row j> must meet the span of rows
    0..j-1 only in 0; as a nontrivial subgroup of <r> holds some (d_j/p) r
    of prime order, that is that none of these lies in the span.  Every
    bijection passes this test at each depth, and at depth k the rows span
    d_1 ... d_k = |A| elements, so the leaves are exactly the
    automorphisms.  Candidates are tried in element order, so the leaves,
    prefix |A| + row, come out increasing.  Each candidate's prime
    multiples are found once per group.  An `array("Q")` holds them, or a
    list when |A|^k exceeds 2^64."""
    orders, N, k, P = A.orders, A.cardinality, A.rank, _packing(A)
    levels = [
        [(i, P.pack(x), [P.pack([d // p * c % e for c, e in zip(x, orders)])
                         for p in _prime_factors(d)])
         for i, x in enumerate(_coords(A)) if _order(orders, x) == d]
        for d in orders
    ]
    auts = array("Q") if N**k <= 2**64 else []

    def extend(rows: list[int], prefix: int, span) -> None:
        j = len(rows)
        if j == k - 1:
            auts.extend(prefix + i for i, _, mults in levels[j] if span.isdisjoint(mults))
            return
        for i, x, mults in levels[j]:
            if span.isdisjoint(mults):
                grown = rows + [x]
                extend(grown, (prefix + i) * N, P.span(grown)[1])

    extend([], 0, {0})
    return auts


@lru_cache(maxsize=None)
def _adjoints(A: GroupSpec) -> array:
    """tau -> tau* on Aut indices, tau* the adjoint of tau under the
    canonical pairing <a, b>_0 = sum_l w_l a_l b_l.  <a tau, b>_0 =
    <a, b tau*>_0 for all a, b exactly when w_l tau_il = w_i tau*_li (mod
    m), that is tau*_ij = d_j tau_ji / d_i, an integer as tau is
    admissible.  Row j = x of tau adds d_j x_i / d_i to entry (i, j) of
    tau*, so the packed tau* is a sum of one table entry per row, found by
    one bisection.  Callers check the limits."""
    auts, orders, N, k = _automorphisms(A), A.orders, A.cardinality, A.rank
    coords, places = _coords(A), _places(A)
    tables = [
        [sum(d_j * c // d_i * places[i * k + j] for i, (c, d_i) in enumerate(zip(x, orders)))
         for x in coords]
        for j, d_j in enumerate(orders)
    ]
    powers = [N**e for e in reversed(range(k))]
    return array("I", (
        bisect_left(auts, sum(t[v // p % N] for t, p in zip(tables, powers)))
        for v in auts
    ))


class _Lattice:
    """The subgroups of one group A met so far, numbered as they are met,
    and the maps on those ids that the dual tables read.  Aut(A) maps
    subgroups to subgroups, so ids never outnumber the subgroups of A.

    An id stands for a set of packed elements and keeps a generating set
    in coordinates.  `l0` maps
    an id to its annihilator L_0 under the canonical duality; a miss runs
    `_l0_subgroup`, whose zero set checks its certificate.  The column of an id
    holds the id of H tau for every tau in Aut(A) order.  Callers check the
    limits."""

    def __init__(self, A: GroupSpec) -> None:
        self.A = A
        self._ids: dict[frozenset[int], int] = {}
        self._orders: list[int] = []
        self._gens: list[tuple[tuple[int, ...], ...]] = []
        # The id of the span of a tuple of generators, keyed by the tuple.
        self._by_gens: dict[tuple[tuple[int, ...], ...], int] = {}
        self._l0: dict[int, Subgroup] = {}
        self._columns: dict[int, array] = {}

    def _intern(self, elements: frozenset[int], gens) -> int:
        if elements not in self._ids:
            self._ids[elements] = len(self._orders)
            self._orders.append(len(elements))
            self._gens.append(tuple(gens))
        return self._ids[elements]

    def id_of(self, H: Subgroup) -> int:
        return self._intern(frozenset(H._packed), H.basis)

    def l0(self, i: int) -> Subgroup:
        if i not in self._l0:
            self._l0[i] = _l0_subgroup(self.A, self._gens[i], self._orders[i])
        return self._l0[i]

    def columns(self, ids: Sequence[int]) -> list[array]:
        """The column of each id; the missing ones are built in one pass
        over Aut(A).

        Each distinct generator word is mapped once per tau, by one vector
        sum: a word is an earlier word plus c g_i, c its last nonzero
        coordinate, so its image is that word's image plus c row_i.
        `steps` holds (earlier word's step or None, i, c)."""
        missing = [i for i in dict.fromkeys(ids) if i not in self._columns]
        if missing:
            orders, by_gens, P = self.A.orders, self._by_gens, _packing(self.A)
            index: dict[tuple[int, ...], int] = {}
            steps: list[tuple[int | None, int, int]] = []

            def step(w: tuple[int, ...]) -> int:
                if w not in index:
                    i = max((j for j, c in enumerate(w) if c), default=0)
                    prefix = w[:i] + (0,) * (len(w) - i)
                    steps.append((step(prefix) if any(prefix) else None, i, w[i]))
                    index[w] = len(steps) - 1
                return index[w]

            slots = [[step(w) for w in self._gens[i]] for i in missing]
            cols = [array("I") for _ in missing]
            for matrix in map(_unpacker(self.A), _automorphisms(self.A)):
                values = []
                for p, i, c in steps:
                    row = matrix[i] if c == 1 else map(mul, matrix[i], repeat(c))
                    if p is not None:
                        row = map(add, values[p], row)
                    reduced = c == 1 and p is None
                    values.append(row if reduced else tuple(map(mod, row, orders)))
                for col, slot in zip(cols, slots):
                    key = tuple(map(values.__getitem__, slot))
                    j = by_gens.get(key)
                    if j is None:
                        basis, span = P.span(map(P.pack, key))
                        j = by_gens[key] = self._intern(frozenset(span), map(P.unpack, basis))
                    col.append(j)
            self._columns.update(zip(missing, cols))
        return [self._columns[i] for i in ids]


@lru_cache(maxsize=None)
def _lattice(A: GroupSpec) -> _Lattice:
    """The subgroup lattice index of A, kept per group like Aut(A)."""
    return _Lattice(A)


def stabilizer(
    H: Subgroup, limits: Limits | None = None
) -> list[Automorphism]:
    """Every tau with H tau = H: the fixed points of H's column, built as
    objects."""
    A, unpack = H.parent, _unpacker(H.parent)
    auts = _aut(A, limits)
    lattice = _lattice(A)
    h = lattice.id_of(H)
    (col,) = lattice.columns([h])
    return [_known_automorphism(A, unpack(v)) for v, i in zip(auts, col) if i == h]


@lru_cache(maxsize=None)
def _elementary_generators(A: GroupSpec) -> tuple[tuple[int, int, int], ...]:
    """Generators (i, j, c) of Aut(A), each the matrix I + c E_ij: every
    transvection g_i -> g_i + c g_j (i != j) with the least admissible c =
    d_j / gcd(d_i, d_j) != 0 mod d_j, and the scalings g_i -> (1 + c) g_i
    by the units of Z/d_i that the smaller ones do not generate.  They
    generate Aut(A): CRT splits the primes, as a power of a generator acts
    as it on one primary part A_p and trivially on the rest.  On A_p, each
    block of equal-order factors is invertible mod p (Hillar and Rhea 2007),
    so elimination with unit pivots, by transvections and scalings, reduces
    an automorphism to 1; admissibility makes the other entries of a pivot
    column multiples of the least c, which powers of transvections clear.
    Found once per group."""
    gens = []
    for i, d in enumerate(A.orders):
        gens += [(i, j, e // math.gcd(d, e)) for j, e in enumerate(A.orders)
                 if i != j and math.gcd(d, e) > 1]
        reached = {1}
        for u in range(2, d):
            if math.gcd(u, d) == 1 and u not in reached:
                gens.append((i, i, u - 1))
                reached = {h * pow(u, e, d) % d for h in reached for e in range(d)}
    return tuple(gens)


def is_characteristic(H: Subgroup, limits: Limits | None = None) -> bool:
    """Whether H tau = H for every tau: whether each elementary generator
    I + c E_ij maps each packed h of a generating set of H, to h + c h_i in
    slot j, inside H.  A generator that maps a generating set into H maps
    H into H, and onto H as it is injective; the generators generate the
    finite group Aut(A), so every automorphism then maps H onto H."""
    A = H.parent
    check_enumeration(A.cardinality, limits)
    P, inside = _packing(A), set(H._packed)
    gens, shifts = H._basis or H._gens or P.span(H._packed)[0], P.shifts
    return all(
        P.add(h, c * (h >> shifts[i] & P.full) % A.orders[j] << shifts[j]) in inside
        for i, j, c in _elementary_generators(A)
        for h in gens
    )


def primary_decomposition(A: GroupSpec) -> dict[int, GroupSpec]:
    """The p-part presentations: p-power part of each order, 1s dropped.
    A fresh dict of the interned parts, found once per group."""
    return dict(_primary_parts(A))


@lru_cache(maxsize=None)
def _primary_parts(A: GroupSpec) -> dict[int, GroupSpec]:
    """`primary_decomposition(A)`, kept per group; callers only read it."""
    parts: dict[int, GroupSpec] = {}
    for p in A._primes:
        orders = []
        for d in A.orders:
            q = 1
            while d % p == 0:
                q *= p
                d //= p
            if q > 1:
                orders.append(q)
        parts[p] = make_group(orders)
    return parts


@lru_cache(maxsize=None)
def _primary_blocks(A: GroupSpec) -> dict[int, dict[int, int]]:
    """{p: {e: n_e}} with A_p = (+)_e (Z/p^e)^(n_e), e increasing: the
    p-valuation of each order of `primary_decomposition(A)`, counted.
    Found once per group; callers only read it."""
    blocks = {}
    for p, part in _primary_parts(A).items():
        counts: dict[int, int] = {}
        for q in part.orders:
            e = 0
            while q > 1:
                q //= p
                e += 1
            counts[e] = counts.get(e, 0) + 1
        blocks[p] = dict(sorted(counts.items()))
    return blocks


def gl_order(n: int, q: int) -> int:
    return math.prod(q**n - q**i for i in range(n))


def aut_order(A: GroupSpec) -> int:
    """|Aut(A)| in closed form, with no automorphism enumerated (Hillar
    and Rhea, "Automorphisms of finite abelian groups", Amer. Math.
    Monthly 2007).

    Aut(A) is the product of the Aut(A_p), as every homomorphism keeps
    each primary part.  Write A_p = (+)_e (Z/p^e)^(n_e).  An endomorphism
    of A_p is a matrix whose entry (i, j) is any of the p^min(e_i, e_j)
    elements of Hom(Z/p^(e_i), Z/p^(e_j)), and it is an automorphism
    exactly when each diagonal block of equal exponents is invertible mod
    p (Hillar and Rhea, section 3).  A block over Z/p^e is so in
    |GL(n_e, p)| ways mod p, each with p^((e-1) n_e^2) lifts, and each
    pair of blocks e < e' holds 2 n_e n_e' free entries of p^e values:

    |Aut(A_p)| = prod_e |GL(n_e, p)| p^((e-1) n_e^2)
                 * prod_(e<e') p^(2 e n_e n_e')."""
    total = 1
    for p, blocks in _primary_blocks(A).items():
        below = 0  # sum of e' n_e' over the blocks e' < e
        for e, n in blocks.items():
            total *= gl_order(n, p) * p ** ((e - 1) * n * n + 2 * n * below)
            below += e * n
    return total


def _prime_factors(n: int) -> set[int]:
    out = set()
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out

"""Weight enumerators, the exact Fourier transform, and the MacWilliams
transforms.

Every coefficient is an integer or a cyclotomic integer; the transforms
divide exactly and signal an internal error on any non-integral result.
The complete transform expands over Z[x], mapped onto Z[zeta_m] by x -> zeta_m:
each monomial's coefficient P is one int P(2^width), multiplied by x^e with a
shift and reduced modulo Phi_m by one balanced remainder modulo Phi_m(2^width).
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from collections.abc import Mapping
from operator import mul

from ._value import Value
from .cyclotomic import CycInt, cyclotomic_poly, power_height
from .characters import annihilator
from .codes import AdditiveCode, PowerGroup
from .dualities import Duality, _pairing_forms
from .groups import GroupElement, GroupSpec, Subgroup, _block_letters, _coords


class HammingEnumerator(Value):
    """hwe = sum_w coeffs[w] X^(n-w) Y^w."""

    def __init__(self, n: int, coeffs: tuple[int, ...]) -> None:
        self.__dict__.update(n=n, coeffs=coeffs)
        self.__post_init__()

    def __post_init__(self) -> None:
        if len(self.coeffs) != self.n + 1:
            raise ValueError("need n + 1 coefficients")

    @property
    def total(self) -> int:
        return sum(self.coeffs)


class CompleteEnumerator(Value):
    """Monomials keyed by count vectors over the base group's elements,
    listed in canonical element order."""

    def __init__(self, base: GroupSpec, n: int,
                 terms: tuple[tuple[tuple[int, ...], int], ...]) -> None:
        self.__dict__.update(base=base, n=n, terms=terms)

    @property
    def total(self) -> int:
        return sum(c for _, c in self.terms)


def hamming_weight(power: PowerGroup, x: GroupElement) -> int:
    return sum(map(any, zip(*[iter(x.coords)] * power.base.rank)))


def hwe(C: AdditiveCode) -> HammingEnumerator:
    n = C.power.n
    weights = Counter(n - w.count(0) for w in _block_letters(C.subgroup, C.power.base))
    return HammingEnumerator(n, tuple(weights[w] for w in range(n + 1)))


def cwe(C: AdditiveCode) -> CompleteEnumerator:
    """Each word's count vector, packed with a w-byte slot per letter (the
    sum over its blocks of 256^(w (|A|-1-letter)), n < 256^w), sorts as its
    key does.  Only the distinct keys are decoded, by `int.to_bytes`."""
    n, card = C.power.n, C.power.base.cardinality
    w = (n.bit_length() + 7) // 8
    place = [1 << 8 * w * (card - 1 - i) for i in range(card)].__getitem__
    keys = Counter(sum(map(place, word)) for word in _block_letters(C.subgroup, C.power.base))
    terms = []
    for key in sorted(keys):
        raw = key.to_bytes(card * w, "big")
        if w > 1:
            raw = [int.from_bytes(raw[i : i + w], "big") for i in range(0, len(raw), w)]
        terms.append((tuple(raw), keys[key]))
    return CompleteEnumerator(C.power.base, n, tuple(terms))


class NonIntegralError(ArithmeticError):
    """A MacWilliams division came out non-integral: the inputs were not a
    genuine code/dual pair, or there is a bug upstream.  Never rounding."""


def mw_hamming_transform(
    E: HammingEnumerator, size_a: int, divisor: int
) -> HammingEnumerator:
    """Substitute X <- X + (|A|-1)Y, Y <- X - Y and divide by `divisor`."""
    if divisor == 0:
        raise ValueError("the divisor of the transform is 0")
    n = E.n
    out = [0] * (n + 1)
    for w, c in enumerate(E.coeffs):
        if c == 0:
            continue
        # (X + (q-1)Y)^(n-w) (X - Y)^w, expanded exactly.
        for s in range(n - w + 1):
            first = math.comb(n - w, s) * (size_a - 1) ** s
            for t in range(w + 1):
                second = math.comb(w, t) * (-1) ** t
                out[s + t] += c * first * second
    if any(v % divisor for v in out):
        raise NonIntegralError(
            f"transform coefficients {out} are not divisible by {divisor}"
        )
    return HammingEnumerator(n, tuple(v // divisor for v in out))


def _times(p: dict[int, int], form: dict[int, int], out: dict[int, int]) -> dict:
    """out + p form, added into out: p keyed by monomial key, its x-polynomial
    packed into one int, and form's x^e Z_a held as Z_a's key and the shift
    width*e; adding keys multiplies monomials, shifting multiplies by x^e."""
    inner = list(p.items())
    for k2, sh in form.items():
        for k1, v1 in inner:
            k = k1 + k2
            if k in out:
                out[k] += v1 << sh
            else:
                out[k] = v1 << sh
    return out


def mw_complete_transform(
    E: CompleteEnumerator,
    phi: Duality,
    side: str,
    direction: str = "dual_from_code",
) -> CompleteEnumerator:
    """The complete-enumerator MacWilliams transform.

    direction="dual_from_code": E is the enumerator of a code D; the result
    is the enumerator of the left (or right) dual of D under phi.
    direction="code_from_dual": E is the enumerator of the left (or right)
    dual of some code C; the result is the enumerator of C.

    Each output coefficient P in Z[x] is held as the int P(X), X = 2^width.
    R = P mod Phi_m has |R_j| <= B = mass H_m (`power_height`), as x^s =
    x^(s mod m) mod Phi_m, and B, L_m <= (X - 1)/8, L_m = max |Phi_m's coeffs|.
    So |R(X)| < X^phi/8 < N/2, phi = deg Phi_m, N = Phi_m(X) > 7 X^phi/8,
    and the balanced remainder r of P(X) = R(X) mod N is R(X), the R_j its
    balanced base-X digits.  R is an integer iff |r| <= B: then r = R_0;
    else |r| >= X^j - X^j/8 > 7B at R's degree j >= 1.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    if direction not in ("dual_from_code", "code_from_dual"):
        raise ValueError("unknown direction")
    A = E.base
    if phi.parent != A:
        raise ValueError("duality is not over the enumerator's base group")
    # The substitution pairs as Phi(b, a) when b_first, else as Phi(a, b):
    # b the substituted index, a the new one.
    b_first = (direction == "code_from_dual") == (side == "left")
    m, card = A.exponent, A.cardinality
    terms = E.terms
    if any(len(counts) != card for counts, _ in terms):
        raise ValueError("a count vector needs one entry per base element")
    if not terms:
        return CompleteEnumerator(A, E.n, ())
    divisor = E.total
    if divisor == 0:
        raise ValueError("the enumerator's coefficients total 0")

    # A monomial prod_a Z_a^(k_a) is keyed by its count vector read in base
    # `radix`, k_0 the most significant digit, so that keys add as monomials
    # multiply and sort as the count vectors do.  Its coefficient P in x, with
    # exponents unreduced, is held as P(X); a sum of +-coefficient products of
    # at most `deg` forms of |A| unit terms, its |coefficients| sum to <= mass.
    deg = max(sum(counts) for counts, _ in terms)
    radix = deg + 1
    mass = max(1, sum(abs(c) for _, c in terms)) * card**deg
    cyc, bound = cyclotomic_poly(m).coeffs, mass * power_height(m)
    width = (8 * max(bound, *map(abs, cyc))).bit_length()
    letters = _coords(A)
    z_key = [radix ** (card - 1 - a) for a in range(card)]

    # form_b = sum_a x^e(b, a) Z_a with zeta_m^e(b, a) = Phi(b, a) when
    # b_first and Phi(a, b) otherwise; rows only for letters that occur.
    used = sorted({b for counts, _ in terms for b, k in enumerate(counts) if k})
    forms = {
        b: {
            z_key[a]: width * (sum(map(mul, f, x)) % m)
            for a, x in enumerate(letters)
        }
        for b, f in zip(
            used, _pairing_forms(phi, (letters[b] for b in used), left=not b_first)
        )
    }

    # Horner walk over the count-vector trie.  The distinct count vectors are
    # sorted, so the terms under a prefix are a run, ascending in counts[b].
    # With S_j the sum under counts[:b] + (j,), a node holds sum_j S_j form_b^j,
    # by Horner's rule (..(S_J form_b + S_(J-1)) form_b + ..) form_b + S_0,
    # each product added into the S_j after it.  The run with counts[b] = 0
    # goes on in the node's own loop, so only a nonzero count recurses.
    sums: Counter[tuple[int, ...]] = Counter()
    for counts, coeff in terms:
        sums[counts] += coeff
    items = sorted(sums.items())

    def expand(lo: int, hi: int, b: int) -> dict[int, int]:
        """The node of items[lo:hi], which share counts[:b]."""
        out: dict[int, int] = {}
        while b < card:
            if items[hi - 1][0][b]:
                runs, end = {}, hi
                for i in reversed(range(lo, hi)):
                    j = items[i][0][b]
                    if i == lo or items[i - 1][0][b] != j:
                        runs[j], end = (i, end), i
                zero, form, top = runs.pop(0, None), forms[b], max(runs)
                acc = expand(*runs[top], b + 1)
                for j in reversed(range(1, top)):
                    s_j = expand(*runs[j], b + 1) if j in runs else {}
                    acc = _times(acc, form, s_j)
                out = _times(acc, form, out)
                if zero is None:
                    return out
                lo, hi = zero
            b += 1
        out[0] = items[lo][1]  # the one term left; no product has key 0
        return out

    expansion = expand(0, len(items), 0)

    modulus = sum(c << width * j for j, c in enumerate(cyc))
    half, out = modulus >> 1, []
    for key in sorted(expansion):
        c = (expansion[key] + half) % modulus - half
        if abs(c) > bound or c % divisor:
            slot, span = 1 << (width - 1), range(len(cyc) - 1)
            c += sum(slot << width * j for j in span)
            digits = tuple((c >> width * j) % (2 * slot) - slot for j in span)
            raise NonIntegralError(
                f"transform coefficient {digits} in powers of zeta_{m} "
                f"is not an integer divisible by {divisor}"
            )
        c //= divisor
        if c:
            counts = [0] * card
            for a in reversed(range(card)):
                key, counts[a] = divmod(key, radix)
            out.append((tuple(counts), c))
    return CompleteEnumerator(A, E.n, tuple(out))


def _forward_follows(code: CompleteEnumerator, dual: CompleteEnumerator) -> bool:
    """Whether mw_complete_transform(code, phi, side) == dual follows, for
    any duality phi and side, from the transform back of dual giving code:
    code and dual are homogeneous of degree n, dual's terms are sorted,
    distinct and nonzero, |code| |dual| = |A|^n, and dual is fixed by the
    letter map a -> -a.  Checked in O(terms |A|).

    With B(u, v) = Phi(u, v) on the left and Phi(v, u) on the right, forward
    substitutes Z_a <- sum_c B(c, a) Z_c and back Z_b <- sum_a B(b, a) Z_a.
    Back then forward is Z_b <- sum_c sum_a B(b + c, a) Z_c = |A| Z_-b, as B
    is nondegenerate.  So if code = dual(back Z) / |dual|, then forward(code)
    = |A|^n dual(Z_-a) / (|dual| |code|) = dual, exactly and in sorted order.
    """
    A, n = dual.base, dual.n
    index = {a: i for i, a in enumerate(_coords(A))}
    neg = [index[tuple(-x % d for x, d in zip(a, A.orders))] for a in index]
    terms = dict(dual.terms)
    return (
        code.base == A and code.n == n and code.total * dual.total == A.cardinality**n
        and all(sum(k) == n for k, _ in code.terms)
        and all(len(k) == len(neg) and sum(k) == n and c for k, c in dual.terms)
        and [k for k, _ in dual.terms] == sorted(terms)
        and all(terms.get(tuple(k[i] for i in neg)) == c for k, c in terms.items())
    )


# ---------------------------------------------------------------------------
# Fourier transform and Poisson summation, over exact polynomial values: a
# value is a mapping monomial-key -> CycInt of modulus m, added pointwise.


def _fold(m: int, terms) -> dict:
    """sum_(e, v) zeta_m^e v over `terms`, per key of the values v, with the
    zero sums dropped.  Each v is added into one length-m row per key at
    shift e, as x^e v in Z[x]/(x^m - 1), so each sum is reduced modulo
    Phi_m once."""
    rows: dict = defaultdict(lambda: [0] * m)
    for e, value in terms:
        for key, v in value.items():
            row = rows[key]
            for j, c in enumerate(v.coeffs, e):
                row[j % m] += c
    sums = {key: CycInt(m, tuple(row)) for key, row in rows.items()}
    return {key: c for key, c in sums.items() if not c.is_zero()}


def _transform(A: GroupSpec, f: Mapping, characters) -> dict:
    """f-hat(pi) for each exponent tuple pi in `characters`: one fold over
    the elements a with a value, shifted by pi's pairing exponent, the dot
    product of (w_i pi_i) with a."""
    m = A.exponent
    values = [(a, value) for a in _coords(A) if (value := f.get(a))]
    if any(v.modulus != m for _, value in values for v in value.values()):
        raise ValueError("mixed moduli: embed into a common cyclotomic ring first")
    out = {}
    for pi in characters:
        form = tuple(map(mul, A.weights, pi))
        out[pi] = _fold(m, ((sum(map(mul, form, a)) % m, value) for a, value in values))
    return out


def fourier_transform(
    A: GroupSpec, f: Mapping[tuple[int, ...], Mapping]
) -> dict[tuple[int, ...], dict]:
    """f-hat(pi) = sum_a <pi, a> f(a); keys are coordinate tuples, character
    keys are exponent tuples."""
    return _transform(A, f, _coords(A))


def poisson_check(H: Subgroup, f: Mapping[tuple[int, ...], Mapping]) -> bool:
    """[A:H] sum_{a in H} f(a) = sum_{pi in (A-hat:H)} f-hat(pi), with no
    division; f-hat is taken only on (A-hat:H)."""
    A = H.parent
    m = A.exponent
    fhat = _transform(A, f, annihilator(H).members)
    lhs = _fold(m, ((0, value) for a in H.members if (value := f.get(a))))
    rhs = _fold(m, ((0, value) for value in fhat.values()))
    index = A.cardinality // H.order
    return {k: v * index for k, v in lhs.items()} == rhs

"""Weight enumerators, the exact Fourier transform, and the MacWilliams
transforms.

Every coefficient is an integer or a cyclotomic integer; the transforms
divide exactly and signal an internal error on any non-integral result.
The complete transform expands over the group ring Z[x]/(x^m - 1), which
maps onto Z[zeta_m] by x -> zeta_m, counting the powers of x per
monomial; it reduces modulo Phi_m once per output monomial, exactly and
with no floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from .cyclotomic import CycInt, root_power
from .characters import Character, annihilator, pairing_exponent
from .codes import AdditiveCode, PowerGroup
from .dualities import Duality, inner_product_exponent
from .groups import GroupElement, GroupSpec, Subgroup


@dataclass(frozen=True)
class HammingEnumerator:
    """hwe = sum_w coeffs[w] X^(n-w) Y^w."""

    n: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) != self.n + 1:
            raise ValueError("need n + 1 coefficients")

    @property
    def total(self) -> int:
        return sum(self.coeffs)


@dataclass(frozen=True)
class CompleteEnumerator:
    """Monomials keyed by count vectors over the base group's elements,
    listed in canonical element order."""

    base: GroupSpec
    n: int
    terms: tuple[tuple[tuple[int, ...], int], ...]

    @property
    def total(self) -> int:
        return sum(c for _, c in self.terms)

    def hamming_specialization(self) -> HammingEnumerator:
        """Z_0 -> X, Z_a -> Y for a != 0."""
        coeffs = [0] * (self.n + 1)
        for counts, c in self.terms:
            weight = self.n - counts[0]
            coeffs[weight] += c
        return HammingEnumerator(self.n, tuple(coeffs))


def hamming_weight(power: PowerGroup, x: GroupElement) -> int:
    return sum(1 for b in power.blocks(x) if not b.is_zero())


def hwe(C: AdditiveCode) -> HammingEnumerator:
    n = C.power.n
    coeffs = [0] * (n + 1)
    for c in C.subgroup.elements:
        coeffs[hamming_weight(C.power, c)] += 1
    return HammingEnumerator(n, tuple(coeffs))


def _count_key(
    power: PowerGroup, x: GroupElement, base_index: Mapping[tuple[int, ...], int]
) -> tuple[int, ...]:
    counts = [0] * power.base.cardinality
    for b in power.blocks(x):
        counts[base_index[b.coords]] += 1
    return tuple(counts)


def cwe(C: AdditiveCode) -> CompleteEnumerator:
    terms: dict[tuple[int, ...], int] = {}
    base_index = {a.coords: i for i, a in enumerate(C.power.base.elements())}
    for c in C.subgroup.elements:
        key = _count_key(C.power, c, base_index)
        terms[key] = terms.get(key, 0) + 1
    return CompleteEnumerator(
        C.power.base, C.power.n, tuple(sorted(terms.items()))
    )


class NonIntegralError(ArithmeticError):
    """A MacWilliams division came out non-integral: the inputs were not a
    genuine code/dual pair, or there is a bug upstream.  Never rounding."""


def mw_hamming_transform(
    E: HammingEnumerator, size_a: int, divisor: int
) -> HammingEnumerator:
    """Substitute X <- X + (|A|-1)Y, Y <- X - Y and divide by `divisor`."""
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


# Which Phi-argument order goes into the substitution, per theorem
# direction and side.  "code_from_dual": input enumerator belongs to the
# dual code, output is the original code.  "dual_from_code": the reverse.
_ORIENTATION: dict[tuple[str, str], bool] = {
    # True means Phi(b, a) with b the substituted index, a the new index.
    ("code_from_dual", "left"): True,
    ("code_from_dual", "right"): False,
    ("dual_from_code", "left"): False,
    ("dual_from_code", "right"): True,
}


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
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    if direction not in ("dual_from_code", "code_from_dual"):
        raise ValueError("unknown direction")
    A = E.base
    if phi.parent != A:
        raise ValueError("duality is not over the enumerator's base group")
    b_first = _ORIENTATION[(direction, side)]
    m = A.exponent
    elements = list(A.elements())
    card = A.cardinality

    # Linear form substituted for each variable Z_b: sum_a zeta_m^e Z_a,
    # stored as the exponents e mod m.
    forms = [
        [
            (
                inner_product_exponent(phi, b, a)
                if b_first
                else inner_product_exponent(phi, a, b)
            )
            % m
            for a in elements
        ]
        for b in elements
    ]

    # Expand prod_b (form_b)^(counts_b) in Z[x]/(x^m - 1): poly is keyed
    # (count vector, s) for the power x^s; acc keeps each count vector's m
    # integer coefficients of x^0, ..., x^(m-1).
    acc: dict[tuple[int, ...], list[int]] = {}
    for counts, coeff in E.terms:
        poly = {((0,) * card, 0): coeff}
        for b_idx, mult in enumerate(counts):
            row = forms[b_idx]
            for _ in range(mult):
                nxt: dict[tuple[tuple[int, ...], int], int] = {}
                for (key, s), val in poly.items():
                    for a_idx, e in enumerate(row):
                        tk = (
                            key[:a_idx] + (key[a_idx] + 1,) + key[a_idx + 1 :],
                            (s + e) % m,
                        )
                        nxt[tk] = nxt.get(tk, 0) + val
                poly = nxt
        for (key, s), val in poly.items():
            acc.setdefault(key, [0] * m)[s] += val

    # x -> zeta_m maps onto Z[zeta_m]; CycInt reduces modulo Phi_m once
    # per output monomial.
    divisor = E.total
    out: dict[tuple[int, ...], int] = {}
    for key, powers in acc.items():
        try:
            c = CycInt(m, tuple(powers)).divide_exact(divisor).as_int()
        except ValueError as exc:
            raise NonIntegralError(str(exc)) from exc
        if c:
            out[key] = c
    return CompleteEnumerator(A, E.n, tuple(sorted(out.items())))


# ---------------------------------------------------------------------------
# Fourier transform and Poisson summation, over exact polynomial values.
# A "value" is a mapping monomial-key -> CycInt under pointwise addition.

Value = dict


def _value_add(u: Value, v: Value) -> Value:
    out = dict(u)
    for k, c in v.items():
        prev = out.get(k)
        out[k] = c if prev is None else prev + c
    return out


def _value_scale(u: Value, c: CycInt) -> Value:
    return {k: v * c for k, v in u.items()}


def _value_normalize(u: Value) -> dict:
    return {k: v for k, v in u.items() if not v.is_zero()}


def fourier_transform(
    A: GroupSpec, f: Mapping[tuple[int, ...], Value]
) -> dict[tuple[int, ...], Value]:
    """f-hat(pi) = sum_a <pi, a> f(a); keys are coordinate tuples, character
    keys are exponent tuples."""
    m = A.exponent
    out = {}
    for pi_elem in A.elements():
        pi = Character(A, pi_elem.coords)
        total: Value = {}
        for a in A.elements():
            val = f.get(a.coords)
            if not val:
                continue
            scalar = root_power(m, pairing_exponent(pi, a))
            total = _value_add(total, _value_scale(val, scalar))
        out[pi_elem.coords] = _value_normalize(total)
    return out


def fourier_inverse_check(
    A: GroupSpec, f: Mapping[tuple[int, ...], Value]
) -> bool:
    """f(a) = (1/|A|) sum_pi <pi, -a> f-hat(pi), checked exactly."""
    m = A.exponent
    fhat = fourier_transform(A, f)
    for a in A.elements():
        total: Value = {}
        for pi_elem in A.elements():
            pi = Character(A, pi_elem.coords)
            scalar = root_power(m, pairing_exponent(pi, -a))
            total = _value_add(total, _value_scale(fhat[pi_elem.coords], scalar))
        recovered = {
            k: v.divide_exact(A.cardinality)
            for k, v in _value_normalize(total).items()
        }
        expected = _value_normalize(dict(f.get(a.coords, {})))
        if recovered != expected:
            return False
    return True


def poisson_check(
    H: Subgroup, f: Mapping[tuple[int, ...], Value]
) -> bool:
    """sum_{a in H} f(a) = (1/[A:H]) sum_{pi in (A-hat:H)} f-hat(pi)."""
    A = H.parent
    lhs: Value = {}
    for a in H.elements:
        val = f.get(a.coords)
        if val:
            lhs = _value_add(lhs, val)
    lhs = _value_normalize(lhs)

    fhat = fourier_transform(A, f)
    index = A.cardinality // H.order
    rhs: Value = {}
    for pi in annihilator(H).elements:
        rhs = _value_add(rhs, fhat[pi.coords])
    rhs = {k: v.divide_exact(index) for k, v in _value_normalize(rhs).items()}
    return lhs == rhs


def complete_value_function(
    power: PowerGroup,
) -> Callable[[GroupElement], Value]:
    """x -> prod_i Z_{x_i} as a Value keyed by count vectors."""
    m = power.spec.exponent
    base_index = {a.coords: i for i, a in enumerate(power.base.elements())}

    def f(x: GroupElement) -> Value:
        return {_count_key(power, x, base_index): CycInt.from_int(m, 1)}

    return f

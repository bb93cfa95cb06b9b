"""Independent reference computations that check the benchmark's task outputs.

Everything here works on plain integer tuples and never imports groupdual,
so a defect in the library cannot also hide in its own check.
"""

from __future__ import annotations

import functools
import itertools
import math


def cardinality(orders):
    return math.prod(orders)


def exponent(orders):
    return math.lcm(*orders)


def weights(orders):
    m = exponent(orders)
    return tuple(m // d for d in orders)


def closure(orders, gens):
    """The subgroup of prod Z/d_i generated by `gens`, as a frozenset."""
    zero = (0,) * len(orders)
    seen = {zero}
    frontier = [zero]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = tuple((a + b) % d for a, b, d in zip(x, g, orders))
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return frozenset(seen)


@functools.lru_cache(maxsize=None)
def subgroups(orders):
    """Every subgroup with one generating tuple each, sorted by (order,
    sorted elements) as the library sorts them.

    A subgroup of a group of rank r is generated by at most r elements,
    so tuples of up to r elements reach all of them.
    """
    elements = list(itertools.product(*(range(d) for d in orders)))
    found = {}
    for k in range(1, len(orders) + 1):
        for gens in itertools.product(elements, repeat=k):
            found.setdefault(closure(orders, gens), gens)
    return sorted(found.items(), key=lambda item: (len(item[0]), sorted(item[0])))


def _prime_factors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def aut_order(orders):
    """|Aut(A)| by the closed form over primary parts (Hillar and Rhea,
    "Automorphisms of finite abelian groups", Amer. Math. Monthly 2007)."""
    total = 1
    for p in _prime_factors(cardinality(orders)):
        es = []
        for d in orders:
            e = 0
            while d % p == 0:
                d //= p
                e += 1
            if e:
                es.append(e)
        es.sort()
        n = len(es)
        d_k = [max(l + 1 for l in range(n) if es[l] == es[k]) for k in range(n)]
        c_k = [min(l + 1 for l in range(n) if es[l] == es[k]) for k in range(n)]
        part = 1
        for k in range(n):
            part *= p ** d_k[k] - p**k
        for j in range(n):
            part *= (p ** es[j]) ** (n - d_k[j])
        for i in range(n):
            part *= (p ** (es[i] - 1)) ** (n - c_k[i] + 1)
        total *= part
    return total


def pairing(orders, tau, a, b):
    """e with Phi(a, b) = zeta_m^e for the duality stored as tau."""
    m = exponent(orders)
    w = weights(orders)
    at = [sum(a[i] * tau[i][j] for i in range(len(orders))) for j in range(len(orders))]
    return sum(wj * x * y for wj, x, y in zip(w, at, b)) % m


def is_symmetric(orders, tau):
    """Phi(g_i, g_j) = Phi(g_j, g_i) on generators, which is enough by
    bilinearity."""
    m = exponent(orders)
    w = weights(orders)
    k = len(orders)
    return all(
        (w[j] * tau[i][j] - w[i] * tau[j][i]) % m == 0
        for i in range(k)
        for j in range(k)
    )


def format_element(orders, coords):
    if all(d <= 10 for d in orders):
        return "".join(str(c) for c in coords)
    return ",".join(str(c) for c in coords)


def split_word(base_rank, flat):
    """A flat A^n word as printed by the CLI -> ':'-joined base blocks."""
    return ":".join(flat[i : i + base_rank] for i in range(0, len(flat), base_rank))


def max_code_order(orders, n, k):
    """Largest order of a k-generated subgroup of A^n when every d_i is a
    power of one prime: the product of the k largest cyclic orders."""
    return math.prod(sorted(orders * n, reverse=True)[:k])


def random_code(rng, orders, n, k):
    """k random words of A^n whose span has the largest possible order,
    so a code's size (and the task's cost) depends only on (A, n, k)."""
    target = max_code_order(orders, n, k)
    spec = orders * n
    while True:
        gens = [tuple(rng.randrange(d) for d in spec) for _ in range(k)]
        code = closure(spec, gens)
        if len(code) == target:
            return gens, code


def complete_terms(orders, n, code):
    """Number of monomials in the complete weight enumerator of `code`:
    its distinct multisets of n blocks."""
    k = len(orders)
    return len({tuple(sorted(c[i * k : (i + 1) * k] for i in range(n))) for c in code})


def rich_code(rng, orders, n, k, tries=32):
    """Of `tries` random codes, the first whose complete weight enumerator
    has the most terms. The MacWilliams transform costs about one product
    expansion per term, so this keeps a slot's cost close to the same for
    every seed."""
    codes = [random_code(rng, orders, n, k) for _ in range(tries)]
    return max(codes, key=lambda code: complete_terms(orders, n, code[1]))

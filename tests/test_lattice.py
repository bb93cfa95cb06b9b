"""The subgroup lattice listed by Hermite normal forms (`groups._subgroups`).

Two independent oracles: the breadth-first cyclic joins it replaced
(`lattice_oracle`), member for member, and the closed-form number of
subgroups of each order of an abelian p-group (L. M. Butler, "Subgroup
lattices and symmetric functions", Mem. AMS 1994), on groups the joins
are too slow for.
"""

import math
from collections import Counter

import pytest

from groupdual import groups, make_group
from groupdual.groups import _subgroups
from lattice_oracle import _subgroups as _joined_subgroups

CENSUS_GROUPS = (
    [2], [2, 2], [2, 4], [3, 3], [2, 8], [4, 4], [2, 2, 2], [2, 2, 3], [27]
)


def _order_tuples(bound):
    """Every tuple of orders d_i >= 2 whose product is at most `bound`."""
    tuples = []

    def extend(prefix, size):
        for d in range(2, bound // size + 1):
            tuples.append(prefix + (d,))
            extend(prefix + (d,), size * d)

    extend((), 1)
    return tuples


def test_every_group_up_to_order_64_lists_the_joined_subgroups():
    tuples = _order_tuples(64)
    assert len(tuples) == 440
    for orders in tuples:
        A = make_group(orders)
        assert [H._packed for H in _subgroups(A)] == [
            H._packed for H in _joined_subgroups(A)], orders


@pytest.mark.parametrize("orders", [[4, 8, 8], [3, 9, 27], [2, 2, 6, 6], [16, 16]])
def test_larger_groups_list_the_joined_subgroups(orders):
    A = make_group(orders)
    assert [H._packed for H in _subgroups(A)] == [H._packed for H in _joined_subgroups(A)]


@pytest.mark.parametrize("orders", CENSUS_GROUPS)
def test_census_subgroups_keep_their_generators_and_basis(orders):
    A = make_group(orders)
    listed, joined = _subgroups(A), _joined_subgroups(A)
    assert [(H.gens, H.basis) for H in listed] == [(H.gens, H.basis) for H in joined]


def _gaussian(n, r, p):
    """The Gaussian binomial [n, r]_p."""
    return math.prod(p ** (n - j) - 1 for j in range(r)) // math.prod(
        p ** (j + 1) - 1 for j in range(r))


def _conjugate(parts, length):
    """The conjugate partition, padded with zeros to `length` + 1 parts."""
    return [sum(q >= i for q in parts) for i in range(1, length + 2)]


def _partitions_inside(lam):
    """Every partition mu with mu_i <= lam_i, as non-increasing tuples."""
    def extend(prefix, i, cap):
        yield prefix
        if i < len(lam):
            for part in range(1, min(cap, lam[i]) + 1):
                yield from extend(prefix + (part,), i + 1, part)

    return extend((), 0, max(lam))


def _valuation(d, p):
    e = 0
    while d % p == 0:
        d, e = d // p, e + 1
    return e


def _subgroup_counts(orders):
    """{|H|: number of subgroups H} in closed form.  A subgroup is one
    subgroup of each primary part, so the counts multiply over the primes.
    For a p-group of type lam, the subgroups of type mu number prod_i
    p^(mu'_(i+1) (lam'_i - mu'_i)) [lam'_i - mu'_(i+1), mu'_i - mu'_(i+1)]_p,
    ' the conjugate partition."""
    counts = Counter({1: 1})
    primes = {p for d in orders for p in range(2, d + 1)
              if d % p == 0 and all(p % q for q in range(2, p))}
    for p in primes:
        lam = sorted((e for e in (_valuation(d, p) for d in orders) if e), reverse=True)
        lc = _conjugate(lam, lam[0])
        part = Counter()
        for mu in _partitions_inside(lam):
            mc = _conjugate(mu, lam[0])
            part[p ** sum(mu)] += math.prod(
                p ** (mc[i + 1] * (lc[i] - mc[i]))
                * _gaussian(lc[i] - mc[i + 1], mc[i] - mc[i + 1], p)
                for i in range(lam[0]))
        grown = Counter()
        for a, x in counts.items():
            for b, y in part.items():
                grown[a * b] += x * y
        counts = grown
    return dict(counts)


@pytest.mark.parametrize("orders, total", [
    ([2, 4, 8, 16], 2821), ([2] * 7, 29212), ([4, 8, 8, 8], 15496), ([8, 8, 8], 802),
    ([3, 9, 27], None), ([2, 2, 6, 6], None), ([12, 2], None), ([6, 10], None),
])
def test_subgroup_counts_by_order_match_the_closed_form(orders, total):
    counts = _subgroup_counts(orders)
    if total is not None:
        assert sum(counts.values()) == total
    # Unwrapped, so that the larger lattices are not kept for the session.
    listed = Counter(H.order for H in _subgroups.__wrapped__(make_group(orders)))
    assert listed == counts


def test_the_lattice_is_listed_without_a_span(monkeypatch):
    # Each Hermite form's members are sums of its rows' multiples: nothing
    # is closed under addition.  (7, 14) is built by no other test.
    def refuse(self, gens):
        raise AssertionError("the lattice listing spanned a subgroup")

    monkeypatch.setattr(groups._Packing, "span", refuse)
    subs = _subgroups.__wrapped__(make_group([7, 14]))
    assert Counter(H.order for H in subs) == _subgroup_counts([7, 14])

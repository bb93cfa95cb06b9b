"""The tuple and row-at-a-time code that the packed census paths replaced,
kept as their oracles: the adapted basis of `construct-pair` on coordinate
tuples, the characteristic test on coordinate tuples, and the writers that
formatted `duals-table` and `dualities --list` one row at a time."""

import json
from functools import cache
from itertools import starmap
from operator import add, mod

from groupdual.codes import _image_rows
from groupdual.dualities import _conjugate_gram, _duality_from_gram
from groupdual.groups import (
    _adjoints,
    _aut,
    _coords,
    _elementary_generators,
    _lattice,
    _order,
    _unit_rows,
    _unpacker,
)


def _adapted_basis(A, H, K):
    """A basis of A adapted to H and K, and the duality with Gram matrix M
    on it (see `codes._adapted_basis`), on coordinate tuples: each pool
    sorted by (-order, x), the span a dict from tuples to coordinates."""
    orders, m, primes = A.orders, A.exponent, A.primes()
    span = {(0,) * A.rank: ()}
    basis = []
    inter = H.element_set().intersection(K.members)
    for pool in (inter, H.members, K.members, _coords(A)):
        if len(span) == A.cardinality:
            break
        for minus_o, x in sorted((-_order(orders, x), x) for x in pool):
            o = -minus_o
            if x in span or any(
                tuple(o // p * c % d for c, d in zip(x, orders)) in span
                for p in primes if o % p == 0
            ):
                continue
            steps = [tuple(k * c % d for c, d in zip(x, orders)) for k in range(o)]
            span = {tuple(map(mod, map(add, y, kx), orders)): c + (k,)
                    for y, c in span.items() for k, kx in enumerate(steps)}
            basis.append(x)
    if len(span) != A.cardinality:
        raise AssertionError("basis does not decompose A")
    n, i = len(basis), len(inter.intersection(basis))
    sigma = [*range(n - i, n), *range(i, n - i), *range(i)]
    w = [m // _order(orders, b) for b in basis]
    M = [[w_r * (s == t) for s in range(n)] for w_r, t in zip(w, sigma)]
    P = [span[g] for g in _unit_rows(A.rank)]
    return basis, _duality_from_gram(A, _conjugate_gram(M, P, m))


def is_characteristic(H):
    """Whether each elementary generator I + c E_ij maps each element h of
    H's basis, to h + c h_i g_j, inside H, on coordinate tuples."""
    orders, inside = H.parent.orders, H.element_set()
    return all(
        h[:j] + ((h[j] + c * h[i]) % orders[j],) + h[j + 1 :] in inside
        for i, j, c in _elementary_generators(H.parent)
        for h in H.basis
    )


_row_text = cache(lambda row: str(list(row)))


def _matrix_text(rows):
    return f"[{', '.join(map(_row_text, rows))}]"


def _json_list(items):
    out, sep = [], "["
    for item in items:
        out.append(sep + item)
        sep = ", "
    return "".join(out) + ("]\n" if sep == ", " else "[]\n")


def duals_table_output(A, subs, fmt):
    """The stdout of `duals-table` on the subgroups `subs`, one row and one
    (left, right) cell cache lookup at a time."""
    ids = _image_rows(A, subs, None)
    name = cache(lambda i: str(_lattice(A).l0(i)))
    if fmt == "json":
        cell = cache(lambda i, j: json.dumps({"left": name(i), "right": name(j)}))
    else:
        cell = cache(lambda i, j: f"L={name(i)} R={name(j)}")
    rows = ((_matrix_text(tau), starmap(cell, pairs)) for tau, pairs in ids)
    if fmt == "json":
        return _json_list(f'{{"duals": [{", ".join(cells)}], "tau": {tau}}}' for tau, cells in rows)
    head = "subgroups: " + " ".join(str(s) for s in subs) + "\n"
    return head + "".join(f"{tau}: {'  '.join(cells)}\n" for tau, cells in rows)


def dualities_output(A, fmt):
    """The stdout of `dualities --list`, one row at a time."""
    auts = _aut(A, None)
    star, unpack = _adjoints(A), _unpacker(A)
    rows = ((i, _matrix_text(unpack(v)), star[i] == i) for i, v in enumerate(auts))
    if fmt == "json":
        return _json_list(
            f'{{"index": {i}, "symmetric": {("false", "true")[s]}, "tau": {mat}}}'
            for i, mat, s in rows
        )
    return "".join(f"{i}: {mat}{' symmetric' if s else ''}\n" for i, mat, s in rows)

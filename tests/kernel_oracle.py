"""`groups._kernel_generators` as it was when every generator carried its
values on all the forms through every pair step, kept as the oracle of
the one that drops each form's values after its own pass."""

import math

from groupdual.groups import _unit_rows, _xgcd


def _carrying_kernel_generators(orders, m, forms):
    """Generators of the x in prod Z/d_i with sum_i f_i x_i = 0 (mod m) for
    every form f, by extended-gcd pair steps on the generators, each
    carrying its values on every form after its coordinates."""
    k, forms = len(orders), list(forms)
    mods = (*orders, *[m] * len(forms))
    gens = [z + tuple([f[j] % m for f in forms]) for j, z in enumerate(_unit_rows(k))]
    for f in range(k, len(mods)):
        p = None
        for j, zj in enumerate(gens):
            v = zj[f]
            if not v:
                continue
            if p is None:
                p = j
                continue
            zp = gens[p]
            a = zp[f]
            g, s, t = _xgcd(a, v)
            if s and t:
                gens[p] = tuple([(s * x + t * y) % d for x, y, d in zip(zp, zj, mods)])
            elif t:
                gens[p] = zj
            gens[j] = tuple([(v // g * x - a // g * y) % d for x, y, d in zip(zp, zj, mods)])
        if p is not None:
            c = m // math.gcd(gens[p][f], m)
            gens[p] = tuple([c * x % d for x, d in zip(gens[p], mods)])
            gens = [z for z in gens if any(z)]
    return [z[:k] for z in gens]

"""The tuple closure that `groups._Packing.span` replaced, kept as the
oracle of the packed one."""

from operator import add, mod


def _span(orders, gens):
    """Greedy basis and element set of the subgroup generated by `gens`,
    reduced coordinate tuples: a generator inside the current span is
    skipped; any other one joins the basis and multiplies the span by its
    cosets H + k g, k = 1, ..., until k g lands back in H."""
    zero = (0,) * len(orders)
    elems = [zero]
    span = {zero}
    basis = []
    for g in gens:
        if g in span:
            continue
        basis.append(g)
        coset = elems
        step = g
        while step not in span:
            coset = [tuple(map(mod, map(add, x, g), orders)) for x in coset]
            span.update(coset)
            elems.extend(coset)
            step = tuple(map(mod, map(add, step, g), orders))
    return basis, span

"""The breadth-first search that `groups._subgroups` replaced, kept as the
oracle of the Hermite-form listing."""

from groupdual.groups import Subgroup, _coords, _packing


def _subgroups(A):
    """Breadth-first joins of one cyclic subgroup at a time, from {0}.

    Every subgroup <x_1, ..., x_r> is reached along <x_1> < <x_1, x_2> <
    ..., and joining <x> depends only on the cyclic subgroup, so one
    generator per cyclic subgroup is tried against each subgroup found:
    one span per (subgroup, cyclic subgroup outside it) pair, on packed
    elements.  Only the distinct subgroups are wrapped as Subgroups."""
    span_of = _packing(A).span
    cyclic = {}
    for x in map(_packing(A).pack, _coords(A)):
        cyclic.setdefault(frozenset(span_of([x])[1]), x)
    trivial = frozenset([0])
    found = {trivial}
    frontier = [([], trivial)]
    while frontier:
        next_frontier = []
        for basis, inside in frontier:
            for x in cyclic.values():
                if x in inside:
                    continue
                grown, span = span_of(basis + [x])
                key = frozenset(span)
                if key not in found:
                    found.add(key)
                    next_frontier.append((grown, key))
        frontier = next_frontier
    members = sorted((tuple(sorted(key)) for key in found), key=lambda c: (len(c), c))
    return tuple(Subgroup(A, c) for c in members)

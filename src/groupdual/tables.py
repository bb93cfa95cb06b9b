"""Byte-stable text tables for the worked desk-scale examples.

Row order and labels follow the published layouts; every cell is computed
by the library, and the tests diff these tables against frozen goldens.
"""

from __future__ import annotations

from typing import Sequence

from .codes import duals_table
from .dualities import adjoint, duality_from_matrix
from .groups import GroupSpec, Subgroup, make_group, subgroup_closure

KLEIN = make_group([2, 2])
Z2Z4 = make_group([2, 4])
F2_3 = make_group([2, 2, 2])
F3_2 = make_group([3, 3])

# Duality rows in the published order, keyed by tau matrix.
KLEIN_DUALITY_MATRICES = [
    ((1, 0), (0, 1)),
    ((1, 1), (1, 0)),
    ((0, 1), (1, 1)),
    ((0, 1), (1, 0)),
    ((1, 1), (0, 1)),
    ((1, 0), (1, 1)),
]

KLEIN_DUAL_TABLE_MATRICES = [
    ((1, 0), (0, 1)),
    ((0, 1), (1, 1)),
    ((1, 1), (1, 0)),
    ((0, 1), (1, 0)),
    ((1, 1), (0, 1)),
    ((1, 0), (1, 1)),
]

Z2Z4_DUALITY_MATRICES = [
    ((1, 0), (0, 1)),
    ((1, 2), (1, 1)),
    ((1, 0), (0, 3)),
    ((1, 2), (1, 3)),
    ((1, 0), (1, 1)),
    ((1, 2), (0, 3)),
    ((1, 0), (1, 3)),
    ((1, 2), (0, 1)),
]

Z2Z4_WORD_LABELS = ["I", "t", "t2", "t3", "s", "st", "st2", "st3"]

F3_2_CLASS_REPRESENTATIVES = [
    ((1, 0), (0, 1)),
    ((1, 0), (0, 2)),
    ((1, 1), (0, 1)),
    ((0, 2), (1, 0)),
    ((2, 1), (0, 1)),
    ((2, 2), (0, 2)),
]

F2_3_EXAMPLE_MATRIX = ((0, 0, 1), (1, 1, 0), (1, 0, 0))


def _sub(A: GroupSpec, words: Sequence[str]) -> Subgroup:
    return subgroup_closure(A, [A.parse_element(w) for w in words])


def klein_order2_subgroups() -> dict[str, Subgroup]:
    return {
        "C_0": _sub(KLEIN, ["10"]),
        "C_1": _sub(KLEIN, ["11"]),
        "C_inf": _sub(KLEIN, ["01"]),
    }


def z2z4_named_subgroups() -> dict[str, Subgroup]:
    return {
        "l_0": _sub(Z2Z4, ["10"]),
        "l_1": _sub(Z2Z4, ["12"]),
        "l_inf": _sub(Z2Z4, ["02"]),
        "C_1": _sub(Z2Z4, ["01"]),
        "C_2": _sub(Z2Z4, ["11"]),
        "S": _sub(Z2Z4, ["10", "02"]),
    }


def f3_2_lines() -> dict[str, Subgroup]:
    return {
        "l_0": _sub(F3_2, ["10"]),
        "l_1": _sub(F3_2, ["11"]),
        "l_2": _sub(F3_2, ["12"]),
        "l_inf": _sub(F3_2, ["01"]),
    }


def _matrix_str(mat) -> str:
    return "[" + "; ".join(" ".join(str(x) for x in row) for row in mat) + "]"


def _pi_label(A: GroupSpec, etuple: tuple[int, ...]) -> str:
    index = sorted(a.coords for a in A.elements()).index(tuple(etuple))
    return f"pi_{index}"


def _name_of(sub: Subgroup, named: dict[str, Subgroup]) -> str:
    for name, other in named.items():
        if sub == other:
            return name
    return str(sub)


def _render(rows: list[list[str]]) -> str:
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    lines = []
    for r in rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
    return "\n".join(lines) + "\n"


def table_3_3() -> str:
    A = KLEIN
    dualities = [duality_from_matrix(A, m) for m in KLEIN_DUALITY_MATRICES]
    name = {phi.tau.matrix: f"phi_{i}" for i, phi in enumerate(dualities)}
    rows = [["phi", "P", "phi(00)", "phi(01)", "phi(10)", "phi(11)", "adj", "o(P)"]]
    for i, phi in enumerate(dualities):
        images = [
            _pi_label(A, phi.tau.apply(a).coords) for a in A.elements()
        ]
        rows.append(
            [
                f"phi_{i}",
                _matrix_str(phi.tau.matrix),
                *images,
                name[adjoint(phi).tau.matrix],
                str(phi.tau.order),
            ]
        )
    return _render(rows)


def table_3_4() -> str:
    A = Z2Z4
    dualities = [duality_from_matrix(A, m) for m in Z2Z4_DUALITY_MATRICES]
    name = {phi.tau.matrix: f"phi_{i}" for i, phi in enumerate(dualities)}
    rows = [["phi", "word", "P", "phi(01)", "phi(10)", "adj"]]
    g01 = A.parse_element("01")
    g10 = A.parse_element("10")
    for i, phi in enumerate(dualities):
        rows.append(
            [
                f"phi_{i}",
                Z2Z4_WORD_LABELS[i],
                _matrix_str(phi.tau.matrix),
                _pi_label(A, phi.tau.apply(g01).coords),
                _pi_label(A, phi.tau.apply(g10).coords),
                name[adjoint(phi).tau.matrix],
            ]
        )
    return _render(rows)


def _dual_table(
    A: GroupSpec,
    matrices,
    named: dict[str, Subgroup],
    columns: Sequence[str],
    row_labels: Sequence[str] | None = None,
) -> str:
    header = ["row"]
    for cname in columns:
        header += [f"L({cname})", f"R({cname})"]
    rows = [header]
    dualities = [duality_from_matrix(A, mat) for mat in matrices]
    subgroups = [named[cname] for cname in columns]
    labels = row_labels or [_matrix_str(mat) for mat in matrices]
    for label, row in zip(labels, duals_table(A, subgroups, dualities)):
        pairs = ((d["left"], d["right"]) for d in row["duals"])
        rows.append([label] + [_name_of(D, named) for pair in pairs for D in pair])
    return _render(rows)


def table_4_4() -> str:
    return _dual_table(
        KLEIN,
        KLEIN_DUAL_TABLE_MATRICES,
        klein_order2_subgroups(),
        ["C_0", "C_1", "C_inf"],
    )


def table_4_5() -> str:
    A = F2_3
    phi = duality_from_matrix(A, F2_3_EXAMPLE_MATRIX)
    C = _sub(A, ["100"])
    (duals,) = next(duals_table(A, [C], [phi]))["duals"]
    rows = [
        ["P", _matrix_str(F2_3_EXAMPLE_MATRIX)],
        ["C", str(C)],
        ["L(C)", str(duals["left"])],
        ["R(C)", str(duals["right"])],
    ]
    return _render(rows)


def table_4_11() -> str:
    return _dual_table(
        Z2Z4,
        Z2Z4_DUALITY_MATRICES,
        z2z4_named_subgroups(),
        ["l_0", "l_1", "l_inf"],
        row_labels=[f"phi_{i}" for i in range(8)],
    )


def table_6_3_classes() -> str:
    from .dualities import congruence_classes

    classes = congruence_classes(F3_2)
    rows = [["representative", "number"]]
    for rep in F3_2_CLASS_REPRESENTATIVES:
        size = next(
            len(cls)
            for cls in classes
            if any(phi.tau.matrix == rep for phi in cls)
        )
        rows.append([_matrix_str(rep), str(size)])
    return _render(rows)


def table_6_3_duals() -> str:
    return _dual_table(
        F3_2,
        F3_2_CLASS_REPRESENTATIVES,
        f3_2_lines(),
        ["l_0", "l_1", "l_2", "l_inf"],
        row_labels=[f"phi_{i}" for i in range(6)],
    )


PAPER_TABLES = {
    "3.3": table_3_3,
    "3.4": table_3_4,
    "4.4": table_4_4,
    "4.5": table_4_5,
    "4.11": table_4_11,
    "6.3-classes": table_6_3_classes,
    "6.3-duals": table_6_3_duals,
}


def paper_table(table_id: str) -> str:
    try:
        builder = PAPER_TABLES[table_id]
    except KeyError:
        raise ValueError(
            f"unknown table id {table_id!r}; known: {', '.join(sorted(PAPER_TABLES))}"
        ) from None
    return builder()

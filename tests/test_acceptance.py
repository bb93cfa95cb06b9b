"""Acceptance suite: the nine headline guarantees, all exact (tolerance
zero).  Each criterion prints one pass line on success.

Large n = 2 ambient spaces are covered on a seeded, deterministic
subsample of (code, duality) pairs to keep each criterion well under a
minute; every n = 1 statement is checked exhaustively.
"""

import ast
import random
from itertools import product
from pathlib import Path

import pytest

from groupdual import (
    adjoint,
    all_dualities,
    all_subgroups,
    code_from_subgroup,
    congruence_classes,
    construct_duality_for_pair,
    count_symmetric_invertible,
    cwe,
    extend_duality,
    hwe,
    is_symmetric,
    left_dual,
    make_group,
    mw_complete_transform,
    mw_hamming_transform,
    right_dual,
    search_duality_for_pair,
    verify_filtration_duality,
)
from groupdual.codes import PowerGroup, mult_by_p_filtration
from groupdual.cyclotomic import CycInt
from groupdual.dualities import inner_product_value
from groupdual.enumerators import poisson_check
from groupdual.groups import is_characteristic, subgroup_closure
from groupdual.tables import (
    KLEIN_DUALITY_MATRICES,
    PAPER_TABLES,
    Z2Z4_DUALITY_MATRICES,
    paper_table,
)

GOLDENS = Path(__file__).parent / "goldens"


@pytest.fixture
def announce(capsys):
    def _print(msg):
        with capsys.disabled():
            print(msg)

    return _print


def test_criterion_1_duality_census_and_adjoint_pairings(announce):
    expected = {(2, 2): (6, 4), (2, 4): (8, 4), (3, 3): (48, 18)}
    for orders, (total, sym) in expected.items():
        A = make_group(orders)
        dualities = all_dualities(A)
        assert len(dualities) == total
        assert sum(is_symmetric(phi) for phi in dualities) == sym

    # Adjoint pairings, by matrix identity in the published row order.
    from groupdual.dualities import duality_from_matrix

    K = make_group([2, 2])
    kd = [duality_from_matrix(K, m) for m in KLEIN_DUALITY_MATRICES]
    assert adjoint(kd[4]).tau.matrix == kd[5].tau.matrix
    assert adjoint(kd[5]).tau.matrix == kd[4].tau.matrix
    for i in range(4):
        assert adjoint(kd[i]) == kd[i]

    Z = make_group([2, 4])
    zd = [duality_from_matrix(Z, m) for m in Z2Z4_DUALITY_MATRICES]
    assert adjoint(zd[4]).tau.matrix == zd[7].tau.matrix
    assert adjoint(zd[5]).tau.matrix == zd[6].tau.matrix
    for i in range(4):
        assert adjoint(zd[i]) == zd[i]
    announce(
        "[PASS] criterion 1: duality censuses (6,4)/(8,4)/(48,18) and "
        "adjoint pairings reproduced"
    )


def _brute_force_symmetric_invertible(n, q):
    count = 0
    for entries in product(range(q), repeat=n * (n + 1) // 2):
        mat = [[0] * n for _ in range(n)]
        it = iter(entries)
        for i in range(n):
            for j in range(i, n):
                mat[i][j] = mat[j][i] = next(it)
        work = [row[:] for row in mat]
        ok = True
        for col in range(n):
            pivot = next((r for r in range(col, n) if work[r][col] % q), None)
            if pivot is None:
                ok = False
                break
            work[col], work[pivot] = work[pivot], work[col]
            inv = pow(work[col][col], -1, q)
            work[col] = [(x * inv) % q for x in work[col]]
            for r in range(col + 1, n):
                f = work[r][col]
                if f:
                    work[r] = [
                        (x - f * y) % q for x, y in zip(work[r], work[col])
                    ]
        count += ok
    return count


def test_criterion_2_symmetric_count_formula(announce):
    cases = [(1, 2), (2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (2, 5)]
    for n, q in cases:
        assert count_symmetric_invertible(n, q) == _brute_force_symmetric_invertible(
            n, q
        )
    assert count_symmetric_invertible(3, 2) == 28
    announce(
        "[PASS] criterion 2: N(n) formula matches brute-force census on "
        f"{len(cases)} (n,q) pairs; N(3)@q=2 = 28"
    )


def test_criterion_3_dual_code_golden_tables(announce):
    for table_id in sorted(PAPER_TABLES):
        got = paper_table(table_id)
        want = (GOLDENS / f"table-{table_id}.txt").read_text()
        assert got == want, f"table {table_id} deviates from golden"

    # Negative fact: no duality of Z/2 x Z/4 makes C_1 a dual of l_inf.
    A = make_group([2, 4])
    l_inf = subgroup_closure(A, [A.element([0, 2])])
    C_1 = subgroup_closure(A, [A.element([0, 1])])
    code = code_from_subgroup(A, 1, l_inf)
    for phi in all_dualities(A):
        assert left_dual(code, phi).subgroup != C_1
        assert right_dual(code, phi).subgroup != C_1
    assert search_duality_for_pair(l_inf, C_1) is None
    announce(
        "[PASS] criterion 3: golden dual-code tables reproduced "
        "cell-for-cell; no duality yields L(l_inf) = C_1"
    )


def _self_dual_count(A, phi):
    count = 0
    for H in all_subgroups(A):
        C = code_from_subgroup(A, 1, H)
        if left_dual(C, phi) == C and right_dual(C, phi) == C:
            count += 1
    return count


def test_criterion_4_congruence_classes(announce):
    A2 = make_group([2, 2])
    sizes2 = sorted(len(c) for c in congruence_classes(A2))
    assert sizes2 == [1, 2, 3]

    A9 = make_group([3, 3])
    classes9 = congruence_classes(A9)
    assert sorted(len(c) for c in classes9) == [2, 6, 8, 8, 12, 12]

    for A, classes in ((A2, congruence_classes(A2)), (A9, classes9)):
        for cls in classes:
            flags = {is_symmetric(phi) for phi in cls}
            assert len(flags) == 1
            counts = {_self_dual_count(A, phi) for phi in cls}
            assert len(counts) == 1
    announce(
        "[PASS] criterion 4: congruence partitions {3,1,2} and "
        "{6,12,8,2,12,8}; symmetry and self-dual counts constant per class"
    )


PROPERTY_GROUPS = [[2, 2], [2, 4], [3, 3], [8], [9]]


def _dual_sum(C, phi, x):
    """Oracle: sum_{y in C} Phi(x, y), exactly; |C| or 0 by membership."""
    ext = extend_duality(phi, C.power.n)
    total = CycInt.zero(C.power.spec.exponent)
    for y in C.subgroup.elements:
        total = total + inner_product_value(ext, x, y)
    return total


def _sum_oracle(C, phi):
    L = left_dual(C, phi)
    for x in C.power.spec.elements():
        total = _dual_sum(C, phi, x)
        if x in L.subgroup:
            assert total.as_int() == C.order
        else:
            assert total.is_zero()


def test_criterion_5_size_and_double_duality_properties(announce):
    rng = random.Random(5)
    checked = 0
    for orders in PROPERTY_GROUPS:
        A = make_group(orders)
        dualities = all_dualities(A)
        adjoints = {phi: adjoint(phi) for phi in dualities}

        # n = 1: every subgroup x every duality, all checks exhaustive.
        for H in all_subgroups(A):
            C = code_from_subgroup(A, 1, H)
            for phi in dualities:
                L, R = left_dual(C, phi), right_dual(C, phi)
                assert L.order * C.order == A.cardinality
                assert left_dual(R, phi) == C and right_dual(L, phi) == C
                assert left_dual(C, adjoints[phi]) == R
                _sum_oracle(C, phi)
                checked += 1

        # n = 2: every subgroup on a deterministic duality subsample; the
        # sum oracle on a seeded sample of codes.
        spec2 = PowerGroup(A, 2).spec
        subs2 = all_subgroups(spec2)
        step = max(1, len(dualities) // 4)
        sample_dualities = dualities[::step]
        for H in subs2:
            C = code_from_subgroup(A, 2, H)
            for phi in sample_dualities:
                L, R = left_dual(C, phi), right_dual(C, phi)
                assert L.order * C.order == spec2.cardinality
                assert left_dual(R, phi) == C
                assert left_dual(C, adjoints[phi]) == R
                checked += 1
        for H in rng.sample(subs2, min(3, len(subs2))):
            _sum_oracle(code_from_subgroup(A, 2, H), rng.choice(dualities))
    announce(
        f"[PASS] criterion 5: size/double-duality/adjoint/sum-oracle "
        f"properties hold on {checked} (code, duality) pairs"
    )


def test_criterion_6_filtration_theorem(announce):
    for orders, p in [([2, 4], 2), ([8], 2), ([9], 3), ([2, 2, 2], 2)]:
        A = make_group(orders)
        pairs = mult_by_p_filtration(A, p)  # asserts characteristic inside
        for ker, im in pairs:
            assert is_characteristic(ker) and is_characteristic(im)
        assert verify_filtration_duality(A, p)
    announce(
        "[PASS] criterion 6: multiplication-by-p filtrations are "
        "characteristic and mutually dual under every duality"
    )


def test_criterion_7_constructive_duality_for_size_pairs(announce):
    total = 0
    for orders in ([2, 2, 2], [3, 3]):
        A = make_group(orders)
        subs = all_subgroups(A)
        for H in subs:
            for K in subs:
                if H.order * K.order != A.cardinality:
                    continue
                phi = construct_duality_for_pair(H, K)
                assert is_symmetric(phi)
                CH = code_from_subgroup(A, 1, H)
                assert left_dual(CH, phi).subgroup == K
                assert right_dual(CH, phi).subgroup == K
                found = search_duality_for_pair(H, K)
                assert found is not None
                total += 1
    announce(
        f"[PASS] criterion 7: constructive duality succeeds and matches "
        f"exhaustive search on {total} size-condition pairs"
    )


def test_criterion_8_macwilliams_end_to_end(announce):
    rng = random.Random(8)
    transforms = 0
    for orders in PROPERTY_GROUPS:
        A = make_group(orders)
        dualities = all_dualities(A)
        for H in all_subgroups(A):
            C = code_from_subgroup(A, 1, H)
            for phi in dualities:
                L, R = left_dual(C, phi), right_dual(C, phi)
                assert mw_hamming_transform(hwe(C), A.cardinality, C.order) == hwe(L)
                assert mw_hamming_transform(hwe(L), A.cardinality, L.order) == hwe(C)
                assert mw_complete_transform(cwe(C), phi, "left") == cwe(L)
                assert mw_complete_transform(cwe(C), phi, "right") == cwe(R)
                assert (
                    mw_complete_transform(cwe(L), phi, "left", "code_from_dual")
                    == cwe(C)
                )
                assert (
                    mw_complete_transform(cwe(R), phi, "right", "code_from_dual")
                    == cwe(C)
                )
                transforms += 6

        # Length-2 spot checks on a seeded sample.
        spec2 = PowerGroup(A, 2).spec
        subs2 = all_subgroups(spec2)
        for H in rng.sample(subs2, min(4, len(subs2))):
            C = code_from_subgroup(A, 2, H)
            phi = rng.choice(dualities)
            L = left_dual(C, phi)
            assert mw_hamming_transform(hwe(C), A.cardinality, C.order) == hwe(L)
            assert mw_complete_transform(cwe(C), phi, "left") == cwe(L)
            transforms += 2

    # Poisson summation on 200 seeded (subgroup, function) instances.
    prng = random.Random(20260823)
    instances = 0
    pool = []
    for orders in PROPERTY_GROUPS:
        A = make_group(orders)
        pool.extend((A, H) for H in all_subgroups(A))
    while instances < 200:
        A, H = prng.choice(pool)
        m = A.exponent
        f = {
            a.coords: {("v",): CycInt.from_int(m, prng.randint(-6, 6))}
            for a in A.elements()
        }
        assert poisson_check(H, f)
        instances += 1
    announce(
        f"[PASS] criterion 8: MacWilliams identities exact on {transforms} "
        f"transforms; Poisson summation holds on {instances} seeded instances"
    )


def test_criterion_9_exactness_gate(announce):
    src = Path(__file__).resolve().parent.parent / "src" / "groupdual"
    offenders = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(
                node.value, (float, complex)
            ):
                offenders.append(f"{path.name}:{node.lineno} literal {node.value!r}")
            if isinstance(node, ast.Name) and node.id in ("float", "complex"):
                offenders.append(f"{path.name}:{node.lineno} name {node.id}")
            if isinstance(node, ast.Attribute) and node.attr in (
                "float",
                "complex",
                "sqrt",
                "cos",
                "sin",
                "exp",
                "pi",
            ):
                offenders.append(f"{path.name}:{node.lineno} attr {node.attr}")
    assert not offenders, "\n".join(offenders)

    # Exact division refuses to round: a genuine non-integral case errors.
    from groupdual.enumerators import HammingEnumerator, NonIntegralError

    with pytest.raises(NonIntegralError):
        mw_hamming_transform(HammingEnumerator(1, (1, 0)), 4, 3)
    announce(
        "[PASS] criterion 9: no floating-point constructs anywhere in the "
        "library; exact division never rounds"
    )

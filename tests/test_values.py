"""The value classes behave as frozen dataclasses did.

Each of the 15 classes is pinned on what equality, hashing, repr and
assignment read, on its `__post_init__` running once per construction, and
on which classes never compare equal.  A fresh interpreter pins what
importing the package loads.
"""

import os
import subprocess
import sys

import pytest

import groupdual
from groupdual import (
    AdditiveCode,
    Automorphism,
    Character,
    CompleteEnumerator,
    CycInt,
    Duality,
    GroupElement,
    GroupSpec,
    HammingEnumerator,
    Homomorphism,
    Limits,
    PowerGroup,
    Subgroup,
    code_from_generators,
    duality_dependence,
    make_group,
    subgroup_closure,
)
from groupdual.codes import DependenceReport
from groupdual.cyclotomic import CycPoly

M = ((1, 2), (0, 1))


def _instances():
    """(instance, fields that repr shows, fields that eq and hash read)."""
    A = make_group([2, 4])
    H = subgroup_closure(A, (A.element((0, 2)),))
    P = PowerGroup(A, 2)
    C = code_from_generators(A, 2, [P.spec.element((1, 1, 0, 2))])
    tau = Automorphism(A, A, M)
    report = duality_dependence(H)
    both = lambda *names: (names, names)
    return [
        (A, ("orders",), ("orders",)),
        (A.element((1, 2)), *both("parent", "coords")),
        (H, ("parent", "_packed", "_gens", "_basis"), ("parent", "_packed")),
        (Homomorphism(A, A, M), *both("source", "target", "matrix")),
        (tau, *both("source", "target", "matrix")),
        (Character(A, (1, 3)), *both("parent", "etuple")),
        (CycPoly((1, 2, 0)), *both("coeffs")),
        (CycInt(4, (1, 2)), *both("modulus", "coeffs")),
        (Duality(tau), *both("tau")),
        (P, *both("base", "n")),
        (C, *both("power", "subgroup")),
        (report, *both("subgroup", "left_classes", "right_classes", "characteristic")),
        (HammingEnumerator(2, (1, 0, 3)), *both("n", "coeffs")),
        (CompleteEnumerator(A, 1, (((1,) * 8, 1),)), *both("base", "n", "terms")),
        (Limits(), *both("enumeration_bound", "scan_bound")),
    ]


CASES = _instances()
IDS = [type(x).__name__ for x, _, _ in CASES]


def test_the_cases_cover_every_value_class():
    assert len({type(x) for x, _, _ in CASES}) == 15


@pytest.mark.parametrize("x, shown, compared", CASES, ids=IDS)
def test_repr_lists_the_shown_fields_in_order(x, shown, compared):
    args = ", ".join(f"{name}={getattr(x, name)!r}" for name in shown)
    assert repr(x) == f"{type(x).__qualname__}({args})"


@pytest.mark.parametrize("x, shown, compared", CASES, ids=IDS)
def test_hash_and_equality_read_the_compared_fields(x, shown, compared):
    values = tuple(getattr(x, name) for name in compared)
    # GroupSpec hashes its orders tuple itself, not a 1-tuple of it.
    assert hash(x) == hash(values[0] if type(x) is GroupSpec else values)
    assert x == x and not x != x
    assert x.__eq__(object()) is NotImplemented
    assert x != values


@pytest.mark.parametrize("x, shown, compared", CASES, ids=IDS)
def test_no_attribute_can_be_assigned_or_deleted(x, shown, compared):
    for name in {*shown, *compared, "spec", "rank", "not_a_field"}:
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        if name in shown:
            with pytest.raises(AttributeError):
                delattr(x, name)
            assert getattr(x, name) is not None or name in ("_gens", "_basis")


def test_spelled_out_values():
    A = make_group([2, 4])
    assert repr(A) == "GroupSpec(orders=(2, 4))"
    assert repr(GroupSpec(orders=(2, 4))) == "GroupSpec(orders=(2, 4))"
    assert hash(A.element((1, 2))) == hash((A, (1, 2)))
    assert A.element((1, 6)) == GroupElement(A, (1, 2))
    assert repr(A.element((3, 6))) == "GroupElement(parent=GroupSpec(orders=(2, 4)), coords=(1, 2))"
    assert repr(CycInt(4, (1, 2, 1))) == "CycInt(modulus=4, coeffs=(0, 2))"
    assert repr(CycPoly((1, 2, 0, 0))) == "CycPoly(coeffs=(1, 2))"
    assert repr(Limits()) == "Limits(enumeration_bound=4096, scan_bound=10000000)"
    assert Limits() == Limits(4096, 10**7) == Limits(scan_bound=10**7)
    assert Limits(enumeration_bound=5) != Limits()
    assert repr(HammingEnumerator(n=1, coeffs=(1, 1))) == "HammingEnumerator(n=1, coeffs=(1, 1))"
    tau = Automorphism(A, A, M)
    assert hash(Duality(tau)) == hash((tau,))
    assert str(Duality(tau)) == "Duality(tau=[[1, 2], [0, 1]])"


def test_power_group_leaves_spec_out_of_eq_hash_and_repr():
    A = make_group([2, 4])
    P = PowerGroup(A, 2)
    assert P.spec is make_group((2, 4, 2, 4))
    assert repr(P) == "PowerGroup(base=GroupSpec(orders=(2, 4)), n=2)"
    assert hash(P) == hash((A, 2))
    assert P == PowerGroup(GroupSpec((2, 4)), 2) and P != PowerGroup(A, 3)


def test_an_automorphism_never_equals_a_homomorphism():
    A = make_group([2, 4])
    tau, hom = Automorphism(A, A, M), Homomorphism(A, A, M)
    assert tau != hom and hom != tau
    assert not tau == hom and not hom == tau
    assert tau == Automorphism(A, A, M) and hom == Homomorphism(A, A, M)
    assert hash(tau) == hash(hom)
    assert len({tau, hom}) == 2


def test_custom_equality_of_groups_subgroups_and_codes():
    A, B = make_group([2, 4]), GroupSpec((2, 4))
    assert A is not B and A == B and hash(A) == hash(B)
    H = subgroup_closure(A, (A.element((0, 2)),))
    assert H == Subgroup(B, H._packed, _basis=(7,)) and hash(H) == hash((A, H._packed))
    assert H != Subgroup(A, (0,))
    P = PowerGroup(A, 1)
    C, D = AdditiveCode(P, H), AdditiveCode(PowerGroup(A, 1), Subgroup(A, H._packed))
    # Codes compare by power group and subgroup, not by identity.
    assert C is not D and C == D and hash(C) == hash(D) == hash((P, H))
    assert C != AdditiveCode(P, Subgroup(A, (0,)))
    assert C.__eq__(H) is NotImplemented


def test_subgroup_keeps_keyword_and_default_fields():
    A = make_group([2, 4])
    H = Subgroup(A, (0, 2))
    assert H._gens is None and H._basis is None
    assert Subgroup(parent=A, _packed=(0, 2), _gens=(2,), _basis=(2,))._gens == (2,)


POST_INIT = [
    (GroupSpec, lambda A: GroupSpec((2, 4))),
    (GroupElement, lambda A: GroupElement(A, (1, 1))),
    (Homomorphism, lambda A: Homomorphism(A, A, M)),
    (Automorphism, lambda A: Automorphism(A, A, M)),
    (Character, lambda A: Character(A, (1, 1))),
    (CycPoly, lambda A: CycPoly((1, 1))),
    (CycInt, lambda A: CycInt(3, (1, 1))),
    (PowerGroup, lambda A: PowerGroup(A, 2)),
    (AdditiveCode, lambda A: AdditiveCode(PowerGroup(A, 1), Subgroup(A, (0,)))),
    (HammingEnumerator, lambda A: HammingEnumerator(1, (1, 1))),
]


@pytest.mark.parametrize("cls, build", POST_INIT, ids=[c.__name__ for c, _ in POST_INIT])
def test_post_init_runs_once_per_construction(monkeypatch, cls, build):
    A = make_group([2, 4])
    calls = []
    original = cls.__dict__["__post_init__"]

    def counting(self):
        calls.append(type(self))
        original(self)

    monkeypatch.setattr(cls, "__post_init__", counting)
    x = build(A)
    assert calls == [cls]
    assert type(x) is cls


def test_an_automorphism_runs_the_homomorphism_checks_once(monkeypatch):
    A = make_group([2, 4])
    calls = []
    original = Homomorphism.__dict__["__post_init__"]
    monkeypatch.setattr(Homomorphism, "__post_init__", lambda self: calls.append(1) or original(self))
    Automorphism(A, A, M)
    assert calls == [1]
    with pytest.raises(ValueError, match="bijection"):
        Automorphism(A, A, ((1, 0), (0, 2)))


@pytest.mark.parametrize("bad", [2.5, 4.0, "3"])
def test_a_non_integer_order_is_refused(bad):
    # 4.0 == 4 and hash(4.0) == hash(4): an interned Z/4 must not answer it.
    Z4 = make_group([4])
    for orders in ([bad], [2, bad]):
        for _ in range(2):
            with pytest.raises(ValueError, match=f"cyclic order {bad!r} is not an integer"):
                make_group(orders)
        with pytest.raises(ValueError, match=repr(bad)):
            GroupSpec(tuple(orders))
    assert make_group([4]) is Z4
    assert all(type(d) is int for key in groupdual.groups._groups for d in key)


# Run with site off (-S), so that no .pth file can import a module first.
IMPORT_GUARD = """
import sys
sys.path.insert(0, sys.argv[1])
import groupdual, groupdual.cli
loaded = sorted({"dataclasses", "inspect", "argparse", "fractions", "typing"} & set(sys.modules))
print("loaded:", *loaded)
from groupdual import cli
print("help exit", cli.run(["--help"]))
print("unknown exit", cli.run(["dualities", "--group", "2,4", "--no-such-flag"]))
print("ratio", groupdual.symmetric_ratio(2, 2))
"""


def test_import_loads_no_dataclasses_argparse_fractions_or_typing():
    src = os.path.dirname(os.path.dirname(groupdual.__file__))
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", IMPORT_GUARD, src],
        capture_output=True, text=True, timeout=60,
    )
    lines = proc.stdout.splitlines()
    assert lines[0] == "loaded:"
    assert lines[1].startswith("usage: groupdual ")
    assert "positional arguments:" in proc.stdout
    assert lines[-3:] == ["help exit 0", "unknown exit 2", "ratio 2/3"]
    assert proc.stderr.startswith("usage: groupdual ")
    assert "unrecognized arguments: --no-such-flag" in proc.stderr

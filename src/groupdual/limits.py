"""Enumeration and scan limits for exhaustive computations."""

from __future__ import annotations

import os

from ._value import Value


class LimitExceededError(RuntimeError):
    """A group or ambient space is too large for exhaustive enumeration."""


class Limits(Value):
    """enumeration_bound is the largest |A| for which subgroup/automorphism
    enumeration is attempted.  scan_bound is the largest dual code
    |A^n| / |C| whose members are enumerated; the dual's generators are
    found without enumerating A^n."""

    def __init__(self, enumeration_bound: int = 4096, scan_bound: int = 10**7) -> None:
        self.__dict__.update(enumeration_bound=enumeration_bound, scan_bound=scan_bound)

    @staticmethod
    def from_env() -> "Limits":
        raw = os.environ.get("ADK_LIMIT")
        if raw is None:
            return Limits()
        try:
            bound = int(raw)
        except ValueError:
            raise ValueError(f"ADK_LIMIT must be an integer, got {raw!r}") from None
        if bound < 0:
            raise ValueError(f"ADK_LIMIT must be at least 0, got {bound}")
        return Limits(enumeration_bound=bound, scan_bound=bound)


def check_enumeration(cardinality: int, limits: Limits | None = None) -> None:
    lim = limits or Limits.from_env()
    if cardinality > lim.enumeration_bound:
        raise LimitExceededError(
            f"group of order {cardinality} exceeds enumeration bound "
            f"{lim.enumeration_bound}"
        )


def check_scan(order: int, limits: Limits | None = None) -> None:
    """Refuse a dual code of `order` members before they are enumerated."""
    lim = limits or Limits.from_env()
    if order > lim.scan_bound:
        raise LimitExceededError(
            f"dual code of order {order} exceeds scan bound {lim.scan_bound}"
        )

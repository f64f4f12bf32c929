"""Slot spaces for weight labels: functions from slots to ell-cores.

A slot (d, k, j) lives at level d (contributing with multiplicity ell**d),
under component k of an e-quotient, at tree node j.  A core function assigns
nonempty ell-cores to finitely many slots; its weighted size is the sum of
ell**d times the size of the assigned core.  count_core_functions counts
them by the truncated series product of partitions.series_mul/series_pow.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .errors import DomainError
from .partitions import (
    Partition,
    enumerate_partitions,
    is_e_core,
    series_mul,
    series_pow,
)

SlotIndex = tuple[int, int, int]


def _check_slot_space(h: int, w: int, ell: int) -> None:
    """The slot-space refusals, one check so that the two routes refuse
    alike (slots_at_level too); with ell < 2 the level loops never end."""
    if w < 0:
        raise DomainError(f"weight must be nonnegative, got {w}")
    if h < 1:
        raise DomainError(f"component count must be at least 1, got {h}")
    if ell < 2:
        raise DomainError(f"ell must be at least 2, got {ell}")


def slots_at_level(h: int, d: int, ell: int) -> tuple[SlotIndex, ...]:
    """The h * ell**d slots (d, k, j), ordered by (k, j)."""
    _check_slot_space(h, 0, ell)
    if d < 0:
        raise DomainError(f"level must be nonnegative, got {d}")
    return tuple(
        (d, k, j) for k in range(1, h + 1) for j in range(1, ell**d + 1)
    )


class CoreFunction(NamedTuple):
    """A finitely supported assignment of nonempty ell-cores to slots.

    A named tuple, so weight symbols compare and sort by the entries.
    """

    entries: tuple[tuple[SlotIndex, Partition], ...]

    def weighted_size(self, ell: int) -> int:
        return sum(ell ** s[0] * sum(core) for s, core in self.entries)


def validate_core_function(
    func: CoreFunction, h: int, w: int, ell: int
) -> None:
    """Check membership in the slot space for h components and weight w.

    Only the canonical form is a member: slots strictly increasing, so each
    is assigned once, and every assigned core nonempty.
    """
    prev: tuple = ()  # sorts before every slot
    for slot, core in func.entries:
        if slot <= prev:
            raise DomainError(f"slot {slot} is repeated or out of order")
        prev = slot
        d, k, j = slot
        if not 1 <= k <= h:
            raise DomainError(f"slot component {k} out of range 1..{h}")
        if not 1 <= j <= ell**d:
            raise DomainError(f"slot node {j} out of range at level {d}")
        if not is_e_core(core, ell):
            raise DomainError(f"{core} is not an {ell}-core")
        if not core:
            raise DomainError("empty cores are not stored; omit the slot")
    if func.weighted_size(ell) != w:
        raise DomainError(
            f"weighted size {func.weighted_size(ell)} does not equal {w}"
        )


@lru_cache(maxsize=None)
def ell_cores_of_size(s: int, ell: int) -> tuple[Partition, ...]:
    return tuple(mu for mu in enumerate_partitions(s) if is_e_core(mu, ell))


def _slot_assignments(slots: list[SlotIndex], idx: int, rem: int, ell: int):
    """Yield the entry tuples of the core functions of weighted size rem on
    slots[idx:], in slot order."""
    if rem == 0:
        yield ()
        return
    if idx == len(slots):
        return
    slot = slots[idx]
    unit = ell ** slot[0]
    yield from _slot_assignments(slots, idx + 1, rem, ell)
    for s in range(1, rem // unit + 1):
        for core in ell_cores_of_size(s, ell):
            for rest in _slot_assignments(slots, idx + 1, rem - unit * s, ell):
                yield ((slot, core),) + rest


@lru_cache(maxsize=None)
def enumerate_core_functions(
    h: int, w: int, ell: int
) -> tuple[CoreFunction, ...]:
    """All core functions of weighted size w on h components, sorted.

    Levels with ell**d > w cannot carry anything, so the slot list is finite.
    """
    _check_slot_space(h, w, ell)
    slots: list[SlotIndex] = []
    d = 0
    while ell**d <= w:
        slots.extend(slots_at_level(h, d, ell))
        d += 1
    return tuple(
        sorted(CoreFunction(entries) for entries in _slot_assignments(slots, 0, w, ell))
    )


@lru_cache(maxsize=None)
def count_core_functions(h: int, w: int, ell: int) -> int:
    """Size of the slot space, by a level-wise generating function product.

    This is an independent route from enumerate_core_functions; the two are
    compared in tests.
    """
    _check_slot_space(h, w, ell)
    poly = [1] + [0] * w
    unit = 1  # ell**d at level d, which has h * ell**d slots
    while unit <= w:
        slot_poly = [0] * (w + 1)
        for s in range(w // unit + 1):
            slot_poly[unit * s] = len(ell_cores_of_size(s, ell))
        poly = series_mul(poly, series_pow(slot_poly, h * unit, w), w)
        unit *= ell
    return poly[w]

"""Slot spaces for weight labels: functions from slots to ell-cores.

A slot (d, k, j) lives at level d (contributing with multiplicity ell**d),
under component k of an e-quotient, at tree node j.  A core function assigns
nonempty ell-cores to finitely many slots; its weighted size is the sum of
ell**d times the size of the assigned core.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import DomainError
from .partitions import Partition, enumerate_partitions, is_e_core

SlotIndex = tuple[int, int, int]


def slots_at_level(h: int, d: int, ell: int) -> tuple[SlotIndex, ...]:
    """The h * ell**d slots (d, k, j), ordered by (k, j)."""
    if h < 1:
        raise DomainError(f"component count must be at least 1, got {h}")
    if d < 0:
        raise DomainError(f"level must be nonnegative, got {d}")
    if ell < 2:
        raise DomainError(f"ell must be at least 2, got {ell}")
    return tuple(
        (d, k, j) for k in range(1, h + 1) for j in range(1, ell**d + 1)
    )


@dataclass(frozen=True)
class CoreFunction:
    """A finitely supported assignment of nonempty ell-cores to slots."""

    entries: tuple[tuple[SlotIndex, Partition], ...]

    def weighted_size(self, ell: int) -> int:
        return sum(ell ** s[0] * sum(core) for s, core in self.entries)


EMPTY_CORE_FUNCTION = CoreFunction(())


def core_function(entries) -> CoreFunction:
    """Canonicalize and validate a list of (slot, core) assignments."""
    canon = tuple(sorted(((tuple(s), tuple(core)) for s, core in entries)))
    seen: set[SlotIndex] = set()
    for slot, core in canon:
        d, k, j = slot
        if d < 0 or k < 1 or j < 1:
            raise DomainError(f"bad slot {slot}")
        if slot in seen:
            raise DomainError(f"slot {slot} assigned twice")
        seen.add(slot)
        if not core:
            raise DomainError("empty cores are not stored; omit the slot")
    return CoreFunction(canon)


def validate_core_function(
    func: CoreFunction, h: int, w: int, ell: int
) -> None:
    """Check membership in the slot space for h components and weight w."""
    for (d, k, j), core in func.entries:
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


@lru_cache(maxsize=None)
def enumerate_core_functions(
    h: int, w: int, ell: int
) -> tuple[CoreFunction, ...]:
    """All core functions of weighted size w on h components, sorted.

    Levels with ell**d > w cannot carry anything, so the slot list is finite.
    """
    if w < 0:
        raise DomainError(f"weight must be nonnegative, got {w}")
    if w == 0:
        return (EMPTY_CORE_FUNCTION,)
    slots: list[SlotIndex] = []
    d = 0
    while ell**d <= w:
        slots.extend(slots_at_level(h, d, ell))
        d += 1
    results: list[CoreFunction] = []
    acc: list[tuple[SlotIndex, Partition]] = []

    def rec(idx: int, rem: int) -> None:
        if rem == 0:
            results.append(CoreFunction(tuple(acc)))
            return
        if idx == len(slots):
            return
        slot = slots[idx]
        unit = ell ** slot[0]
        rec(idx + 1, rem)
        for s in range(1, rem // unit + 1):
            for core in ell_cores_of_size(s, ell):
                acc.append((slot, core))
                rec(idx + 1, rem - unit * s)
                acc.pop()

    rec(0, w)
    results.sort(key=lambda func: func.entries)
    return tuple(results)


def _poly_mul(a: list[int], b: list[int], cap: int) -> list[int]:
    out = [0] * (cap + 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            if i + j > cap:
                break
            out[i + j] += ai * bj
    return out


def _poly_pow(base: list[int], exp: int, cap: int) -> list[int]:
    result = [1] + [0] * cap
    while exp > 0:
        if exp & 1:
            result = _poly_mul(result, base, cap)
        base = _poly_mul(base, base, cap)
        exp >>= 1
    return result


@lru_cache(maxsize=None)
def count_core_functions(h: int, w: int, ell: int) -> int:
    """Size of the slot space, by a level-wise generating function product.

    This is an independent route from enumerate_core_functions; the two are
    compared in tests.
    """
    if w < 0:
        raise DomainError(f"weight must be nonnegative, got {w}")
    if h < 1:
        raise DomainError(f"component count must be at least 1, got {h}")
    poly = [1] + [0] * w
    d = 0
    while ell**d <= w:
        unit = ell**d
        slot_poly = [0] * (w + 1)
        slot_poly[0] = 1
        for s in range(1, w // unit + 1):
            slot_poly[unit * s] = len(ell_cores_of_size(s, ell))
        poly = _poly_mul(poly, _poly_pow(slot_poly, h * unit, w), w)
        d += 1
    return poly[w]

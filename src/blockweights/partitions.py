"""Partition combinatorics: cores, quotients, core towers, and counting.

Partitions are tuples of weakly decreasing positive integers; () is the empty
partition.  Cores and quotients are computed on beta-sets (first column hook
lengths); the bead count is always the smallest multiple of e that covers the
number of parts, so runner k-1 always feeds quotient component k and the
decomposition does not depend on presentation.

The closed-form counts are coefficients of power series products truncated
at a degree cap: series_mul and series_pow, the package's one such product,
serve count_with_core and weights.count_core_functions.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import DomainError

Partition = tuple[int, ...]


def as_partition(parts) -> Partition:
    """Validate an iterable of parts and return it as a canonical tuple."""
    mu = tuple(int(x) for x in parts)
    for a, b in zip(mu, mu[1:]):
        if a < b:
            raise DomainError(f"parts must be weakly decreasing, got {mu}")
    if mu and mu[-1] < 1:
        raise DomainError(f"parts must be positive, got {mu}")
    return mu


def transpose(mu: Partition) -> Partition:
    if not mu:
        return ()
    return tuple(
        sum(1 for part in mu if part >= col) for col in range(1, mu[0] + 1)
    )


def delta(mu: Partition) -> int:
    """Gcd of the parts; 0 for the empty partition (absorbing under gcd)."""
    g = 0
    for part in mu:
        g = math.gcd(g, part)
    return g


def beta_set(mu: Partition, beads: int) -> tuple[int, ...]:
    """First column hook lengths with the given bead count, descending."""
    if beads < len(mu):
        raise DomainError(f"{beads} beads cannot hold {len(mu)} parts")
    return tuple(
        (mu[i] if i < len(mu) else 0) + (beads - 1 - i) for i in range(beads)
    )


def partition_from_beta(beta: tuple[int, ...]) -> Partition:
    """Inverse of beta_set; accepts any set of distinct nonnegative integers."""
    b = sorted(beta, reverse=True)
    beads = len(b)
    for x, y in zip(b, b[1:]):
        if x == y:
            raise DomainError(f"beta numbers must be distinct, got {beta}")
    if b and b[-1] < 0:
        raise DomainError(f"beta numbers must be nonnegative, got {beta}")
    mu = [b[i] - (beads - 1 - i) for i in range(beads)]
    return tuple(part for part in mu if part > 0)


def _bead_count(mu: Partition, e: int) -> int:
    return e * ((len(mu) + e - 1) // e)


@lru_cache(maxsize=None)
def e_core(mu: Partition, e: int) -> Partition:
    """The e-core, by pushing abacus beads down their runners."""
    if e < 1:
        raise DomainError(f"e must be at least 1, got {e}")
    if e == 1:
        return ()
    beads = _bead_count(mu, e)
    counts = [0] * e
    for b in beta_set(mu, beads):
        counts[b % e] += 1
    pushed = [e * t + j for j in range(e) for t in range(counts[j])]
    return partition_from_beta(tuple(pushed))


@lru_cache(maxsize=None)
def e_quotient(mu: Partition, e: int) -> tuple[Partition, ...]:
    """The e-quotient; component k (1-based) collects runner k-1's beads."""
    if e < 1:
        raise DomainError(f"e must be at least 1, got {e}")
    beads = _bead_count(mu, e)
    runners: list[list[int]] = [[] for _ in range(e)]
    for b in beta_set(mu, beads):
        runners[b % e].append(b // e)
    return tuple(partition_from_beta(tuple(ts)) for ts in runners)


def is_e_core(mu: Partition, e: int) -> bool:
    return e_core(mu, e) == mu


def from_core_quotient(
    lam: Partition, quotient: tuple[Partition, ...], e: int
) -> Partition:
    """Rebuild the unique partition with the given e-core and e-quotient."""
    if e < 1:
        raise DomainError(f"e must be at least 1, got {e}")
    if len(quotient) != e:
        raise DomainError(f"quotient must have {e} components, got {len(quotient)}")
    if not is_e_core(lam, e):
        raise DomainError(f"{lam} is not an {e}-core")
    beads = _bead_count(lam, e)
    counts = [0] * e
    for b in beta_set(lam, beads):
        counts[b % e] += 1
    # Adding e beads adds one bead to every runner, so grow until each runner
    # can hold its component's parts.
    deficit = max(
        (len(comp) - counts[j] for j, comp in enumerate(quotient)), default=0
    )
    if deficit > 0:
        beads += e * deficit
        counts = [c + deficit for c in counts]
    positions: list[int] = []
    for j, comp in enumerate(quotient):
        for t in beta_set(comp, counts[j]):
            positions.append(e * t + j)
    return partition_from_beta(tuple(positions))


@lru_cache(maxsize=None)
def enumerate_partitions(m: int) -> tuple[Partition, ...]:
    """All partitions of m in descending lexicographic order."""
    if m < 0:
        raise DomainError(f"m must be nonnegative, got {m}")
    return tuple(_partitions_below(m, m, ()))


def _partitions_below(remaining: int, cap: int, prefix: Partition):
    """Yield prefix extended by each partition of remaining with parts at
    most cap, in descending lexicographic order."""
    if remaining == 0:
        yield prefix
        return
    for part in range(min(cap, remaining), 0, -1):
        yield from _partitions_below(remaining - part, part, prefix + (part,))


@lru_cache(maxsize=None)
def partition_count(m: int) -> int:
    """Number of partitions of m, by the standard coin style recurrence."""
    if m < 0:
        raise DomainError(f"m must be nonnegative, got {m}")
    table = [1] + [0] * m
    for part in range(1, m + 1):
        for total in range(part, m + 1):
            table[total] += table[total - part]
    return table[m]


def series_mul(a: list[int], b: list[int], cap: int) -> list[int]:
    """Coefficients 0..cap of the product of two power series."""
    out = [0] * (cap + 1)
    for i, ai in enumerate(a[: cap + 1]):
        if ai == 0:
            continue
        for j, bj in enumerate(b[: cap + 1 - i]):
            out[i + j] += ai * bj
    return out


def series_pow(base: list[int], exp: int, cap: int) -> list[int]:
    """Coefficients 0..cap of base**exp, by square and multiply."""
    result = [1] + [0] * cap
    while exp > 0:
        if exp & 1:
            result = series_mul(result, base, cap)
        base = series_mul(base, base, cap)
        exp >>= 1
    return result


@lru_cache(maxsize=None)
def enumerate_with_core(m: int, e: int, lam: Partition) -> tuple[Partition, ...]:
    """All partitions of m with e-core lam, in descending lexicographic order."""
    return tuple(mu for mu in enumerate_partitions(m) if e_core(mu, e) == lam)


def count_with_core(m: int, e: int, lam: Partition) -> int:
    """Number of partitions of m with e-core lam.

    Counted through the core-quotient correspondence; agreement with the
    filtered enumeration is pinned by tests.
    """
    if e < 1:
        raise DomainError(f"e must be at least 1, got {e}")
    if m < 0:
        raise DomainError(f"m must be nonnegative, got {m}")
    if not is_e_core(lam, e):
        return 0
    core_size = sum(lam)
    if m < core_size or (m - core_size) % e != 0:
        return 0
    # e-quotients of total size w: the e-fold power of the partition series.
    w = (m - core_size) // e
    return series_pow([partition_count(k) for k in range(w + 1)], e, w)[w]


@lru_cache(maxsize=None)
def distinct_cores(m: int, e: int) -> tuple[Partition, ...]:
    """The distinct e-cores of partitions of m, descending lexicographic."""
    return tuple(
        sorted({e_core(mu, e) for mu in enumerate_partitions(m)}, reverse=True)
    )


@lru_cache(maxsize=None)
def core_tower(nu: Partition, ell: int) -> tuple[tuple[Partition, ...], ...]:
    """Iterated core-quotient tower of nu.

    Level d is the tuple of ell**d cores of the depth-d remainders; node j of
    level d+1 sits under node (j - 1) // ell + 1 of level d (path digits, most
    significant first).  Trailing all-empty levels are dropped, so the empty
    partition has an empty tower.
    """
    if ell < 2:
        raise DomainError(f"ell must be at least 2, got {ell}")
    levels: list[tuple[Partition, ...]] = []
    current: list[Partition] = [nu]
    while any(current):
        levels.append(tuple(e_core(x, ell) for x in current))
        nxt: list[Partition] = []
        for x in current:
            nxt.extend(e_quotient(x, ell))
        current = nxt
    return tuple(levels)


def tower_to_partition(
    levels: tuple[tuple[Partition, ...], ...], ell: int
) -> Partition:
    """Inverse of core_tower; accepts any finite assignment of ell-cores."""
    if ell < 2:
        raise DomainError(f"ell must be at least 2, got {ell}")
    for d, level in enumerate(levels):
        if len(level) != ell**d:
            raise DomainError(f"level {d} must have {ell**d} entries")
        for core in level:
            if not is_e_core(core, ell):
                raise DomainError(f"{core} is not an {ell}-core")
    if not levels:
        return ()
    remainders = list(levels[-1])
    for d in range(len(levels) - 2, -1, -1):
        remainders = [
            from_core_quotient(
                levels[d][j], tuple(remainders[j * ell : (j + 1) * ell]), ell
            )
            for j in range(ell**d)
        ]
    return remainders[0]

"""Brute force matrix group oracle for desk scale cross checks.

Enumerates GL/SL/GU/SU over tiny fields as explicit matrices, partitions
them into conjugacy classes, and counts classes of elements whose order is
prime to ell.  Modular representation theory predicts that this count equals
the number of irreducible ell-Brauer characters, which the engine computes
symbolically; cross_check compares both sides on one instance.

GL is enumerated as the matrices of nonzero determinant, in lexicographic
order; GU column by column as orthonormal frames; SL and SU keep the
determinant one elements.  Neither the group nor its classes depend on ell,
so class_profile computes each group's order and class representative
orders once per process and every ell of that group reads them.

Field sizes are capped at p and p^2 for p <= 7 with fixed quadratic moduli,
so results cannot drift with the choice of an irreducible polynomial.  Group
enumeration is capped by ORACLE_CAP elements of the ambient GL/GU.
cross_check refuses requests beyond these scopes, and SL/SU instances that
symbols.sl_refusal does not admit, before it runs the engine, so they fail
fast.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .arith import InstanceParams, make_params
from .errors import InvariantViolationError, UnsupportedModeError
from .symbols import sl_refusal
from .verify import run_instance

ORACLE_CAP = 300_000
_MAX_N = 3

# x^2 + c1*x + c0, irreducible over the prime field.
_MODULI = {4: (2, 1, 1), 9: (3, 0, 1), 25: (5, 0, 3), 49: (7, 0, 1)}

_PRIMES = (2, 3, 5, 7)


class TinyField:
    """Table driven arithmetic for F_q, q in {2,3,5,7,4,9,25,49}.

    Elements are integers 0..q-1; for q = p^2 the value a + b*p encodes
    a + b*x with x a fixed root of the recorded quadratic modulus.
    """

    def __init__(self, q: int):
        if q in _PRIMES:
            p = q
            mul = [(a * b) % q for a in range(q) for b in range(q)]
        elif q in _MODULI:
            p, c1, c0 = _MODULI[q]
            mul = []
            for a in range(q):
                a1, b1 = a % p, a // p
                for b in range(q):
                    a2, b2 = b % p, b // p
                    hi = b1 * b2
                    lo = (a1 * a2 - hi * c0) % p
                    mid = (a1 * b2 + b1 * a2 - hi * c1) % p
                    mul.append(lo + mid * p)
        else:
            raise UnsupportedModeError(f"no tiny field of size {q}")
        self.q = q
        self.p = p
        self.mul = mul
        self.add = [
            (a % p + b % p) % p + ((a // p + b // p) % p) * p
            for a in range(q)
            for b in range(q)
        ]
        self.neg = [(-a % p) + ((-(a // p)) % p) * p for a in range(q)]
        inv = [0] * q
        for a in range(1, q):
            inv[a] = next(b for b in range(1, q) if mul[a * q + b] == 1)
        self.inv = inv
        self.frob = [self.power(a, p) for a in range(q)]
        self._spot_check()

    def power(self, a: int, k: int) -> int:
        out = 1
        base = a
        while k:
            if k & 1:
                out = self.mul[out * self.q + base]
            base = self.mul[base * self.q + base]
            k >>= 1
        return out

    def _spot_check(self) -> None:
        q, mul, add = self.q, self.mul, self.add
        sample = range(q) if q <= 9 else list(range(9)) + [q - 1]
        for a in sample:
            for b in sample:
                if mul[a * q + b] != mul[b * q + a] or add[a * q + b] != add[b * q + a]:
                    raise InvariantViolationError("field tables not commutative")
                for c in sample:
                    ab_c = mul[mul[a * q + b] * q + c]
                    a_bc = mul[a * q + mul[b * q + c]]
                    dist = mul[a * q + add[b * q + c]]
                    dist2 = add[mul[a * q + b] * q + mul[a * q + c]]
                    if ab_c != a_bc or dist != dist2:
                        raise InvariantViolationError("field tables not a ring")
        for a in range(1, q):
            if mul[a * q + self.inv[a]] != 1:
                raise InvariantViolationError("field inverse table wrong")
        for a in range(q):
            for b in range(q):
                if self.frob[mul[a * q + b]] != mul[self.frob[a] * q + self.frob[b]]:
                    raise InvariantViolationError("frobenius not multiplicative")
                if self.frob[add[a * q + b]] != add[self.frob[a] * q + self.frob[b]]:
                    raise InvariantViolationError("frobenius not additive")


@lru_cache(maxsize=None)
def tiny_field(q: int) -> TinyField:
    return TinyField(q)


# Matrices are flat tuples of length n*n, row major.


def mat_identity(n: int) -> tuple[int, ...]:
    return tuple(1 if i == j else 0 for i in range(n) for j in range(n))


def mat_mul(F: TinyField, a, b, n: int) -> tuple[int, ...]:
    q, mul, add = F.q, F.mul, F.add
    out = []
    for i in range(n):
        row = a[i * n : i * n + n]
        for j in range(n):
            acc = 0
            for k in range(n):
                acc = add[acc * q + mul[row[k] * q + b[k * n + j]]]
            out.append(acc)
    return tuple(out)


def mat_det(F: TinyField, a, n: int) -> int:
    q, mul, add, neg = F.q, F.mul, F.add, F.neg
    if n == 1:
        return a[0]
    if n == 2:
        return add[mul[a[0] * q + a[3]] * q + neg[mul[a[1] * q + a[2]]]]
    if n == 3:
        total = 0
        for j, sign in ((0, 1), (1, -1), (2, 1)):
            cols = [c for c in range(3) if c != j]
            minor = add[
                mul[a[3 + cols[0]] * q + a[6 + cols[1]]] * q
                + neg[mul[a[3 + cols[1]] * q + a[6 + cols[0]]]]
            ]
            term = mul[a[j] * q + minor]
            total = add[total * q + (term if sign == 1 else neg[term])]
        return total
    raise UnsupportedModeError(f"determinant for n={n} not supported")


def group_order(kind: str, n: int, q: int) -> int:
    if kind in ("GL", "SL"):
        order = 1
        for i in range(n):
            order *= q**n - q**i
        return order // (q - 1) if kind == "SL" else order
    if kind in ("GU", "SU"):
        order = q ** (n * (n - 1) // 2)
        for i in range(1, n + 1):
            order *= q**i - (-1) ** i
        return order // (q + 1) if kind == "SU" else order
    raise UnsupportedModeError(f"unknown group kind {kind!r}")


def _enumerate_gl(F: TinyField, n: int) -> list[tuple[int, ...]]:
    """Every invertible n x n matrix, in lexicographic order."""
    return [
        a
        for a in itertools.product(range(F.q), repeat=n * n)
        if mat_det(F, a, n) != 0
    ]


def _herm(F: TinyField, u, v, n: int) -> int:
    q, add, mul, frob = F.q, F.add, F.mul, F.frob
    acc = 0
    for i in range(n):
        acc = add[acc * q + mul[frob[u[i]] * q + v[i]]]
    return acc


def _enumerate_gu(F: TinyField, n: int) -> list[tuple[int, ...]]:
    """Every unitary n x n matrix, as its orthonormal frames of columns; each
    depth takes the unit vectors orthogonal to the columns chosen so far."""
    vectors = itertools.product(range(F.q), repeat=n)
    unit = [v for v in vectors if _herm(F, v, v, n) == 1]
    out: list[tuple[int, ...]] = []
    cols: list[tuple[int, ...]] = []

    def extend(candidates) -> None:
        if len(cols) == n:
            out.append(tuple(cols[j][i] for i in range(n) for j in range(n)))
            return
        for v in candidates:
            cols.append(v)
            extend([u for u in candidates if _herm(F, v, u, n) == 0])
            cols.pop()

    extend(unit)
    return out


def _field_in_scope(kind: str, n: int, q: int) -> TinyField:
    """The field of the group's matrices; refuses a group the oracle does
    not enumerate: an unknown kind, n out of range, an ambient GL/GU beyond
    ORACLE_CAP, or a field without a table."""
    if n < 1 or n > _MAX_N:
        raise UnsupportedModeError(f"oracle supports 1 <= n <= {_MAX_N}, got {n}")
    if kind not in ("GL", "SL", "GU", "SU"):
        raise UnsupportedModeError(f"unknown group kind {kind!r}")
    ambient = "GL" if kind in ("GL", "SL") else "GU"
    if group_order(ambient, n, q) > ORACLE_CAP:
        raise UnsupportedModeError(
            f"{ambient}_{n}({q}) exceeds the oracle cap of {ORACLE_CAP}"
        )
    return tiny_field(q if ambient == "GL" else q * q)


def enumerate_matrix_group(kind: str, n: int, q: int) -> tuple[TinyField, list]:
    """Enumerate the group as flat matrices; refuses beyond the caps."""
    F = _field_in_scope(kind, n, q)
    if kind in ("GL", "SL"):
        elements = _enumerate_gl(F, n)
    else:
        elements = _enumerate_gu(F, n)
    if kind in ("SL", "SU"):
        elements = [a for a in elements if mat_det(F, a, n) == 1]
    if len(elements) != group_order(kind, n, q):
        raise InvariantViolationError(
            f"enumerated {len(elements)} elements of {kind}_{n}({q}), "
            f"expected {group_order(kind, n, q)}"
        )
    return F, elements


def _closure(F: TinyField, n: int, gens) -> set:
    ident = mat_identity(n)
    seen = {ident}
    frontier = [ident]
    while frontier:
        fresh = []
        for x in frontier:
            for g in gens:
                y = mat_mul(F, x, g, n)
                if y not in seen:
                    seen.add(y)
                    fresh.append(y)
        frontier = fresh
    return seen

def generating_set(F: TinyField, n: int, elements) -> list:
    """Small deterministic generating set found greedily."""
    gens: list = []
    closure = {mat_identity(n)}
    for x in elements:
        if len(closure) == len(elements):
            break
        if x not in closure:
            gens.append(x)
            closure = _closure(F, n, gens)
    if len(closure) != len(elements):
        raise InvariantViolationError("generating set closure mismatch")
    return gens


def power_inverse(F: TinyField, n: int, g) -> tuple[int, ...]:
    """The inverse of g as its last power before the identity, g**(k-1) for
    g of order k."""
    ident = mat_identity(n)
    last, power = ident, g
    while power != ident:
        last, power = power, mat_mul(F, power, g, n)
    return last


def conjugacy_class_reps(F: TinyField, n: int, elements, gens) -> list:
    """One representative per conjugacy class, in enumeration order."""
    gen_pairs = [(g, power_inverse(F, n, g)) for g in gens]
    unseen = set(elements)
    reps = []
    for x in elements:
        if x not in unseen:
            continue
        reps.append(x)
        unseen.discard(x)
        frontier = [x]
        while frontier:
            fresh = []
            for y in frontier:
                for g, gi in gen_pairs:
                    z = mat_mul(F, mat_mul(F, g, y, n), gi, n)
                    if z in unseen:
                        unseen.discard(z)
                        fresh.append(z)
            frontier = fresh
    return reps


def element_order(F: TinyField, n: int, x) -> int:
    ident = mat_identity(n)
    y = x
    k = 1
    while y != ident:
        y = mat_mul(F, y, x, n)
        k += 1
    return k


@lru_cache(maxsize=None)
def class_profile(kind: str, n: int, q: int) -> tuple[int, tuple[int, ...]]:
    """(group order, element orders of the conjugacy class representatives),
    once per group: neither depends on ell, so every ell of one group reads
    the same profile."""
    F, elements = enumerate_matrix_group(kind, n, q)
    gens = generating_set(F, n, elements)
    reps = conjugacy_class_reps(F, n, elements, gens)
    return len(elements), tuple(element_order(F, n, r) for r in reps)


def _engine_count(kind: str, params: InstanceParams) -> int:
    """The engine's Brauer character count: a total of run_instance."""
    totals = run_instance(params).totals
    return totals["total_symbols" if kind in ("GL", "GU") else "sl_total_ibr"]


def cross_check(kind: str, n: int, q: int, ell: int) -> dict:
    """Compare the symbolic Brauer character count with the matrix oracle.
    Refuses what the oracle or the SL counts do not cover before it runs
    the engine or builds a group."""
    _field_in_scope(kind, n, q)
    eps = 1 if kind in ("GL", "SL") else -1
    params = make_params(n, q, eps, ell)
    if kind in ("SL", "SU"):
        refusal = sl_refusal(params)
        if refusal is not None:
            raise UnsupportedModeError(refusal)
    engine = _engine_count(kind, params)
    order, orders = class_profile(kind, n, q)
    regular = sum(1 for k in orders if k % ell != 0)
    return {
        "group": f"{kind}_{n}({q})",
        "ell": ell,
        "order": order,
        "classes": len(orders),
        "ell_regular": regular,
        "engine_count": engine,
        "pass": engine == regular,
    }

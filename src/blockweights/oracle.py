"""Brute force matrix group oracle for desk scale cross checks.

Enumerates GL/SL/GU/SU over tiny fields as explicit matrices, partitions
them into conjugacy classes, and counts classes of elements whose order is
prime to ell.  Modular representation theory predicts that this count equals
the number of irreducible ell-Brauer characters, which the engine computes
symbolically; cross_check compares both sides on one instance.

GL is enumerated as the matrices of nonzero determinant, in lexicographic
order; GU column by column as orthonormal frames; SL and SU keep the
determinant one elements.  The frame search lists once, for each unit
vector v, the unit vectors u orthogonal to it, by solving <v, u> = 0 for
one coordinate of u; a deeper column intersects these lists, so no
Hermitian product is taken per pair.  Neither the group nor its classes
depend on ell, so class_profile computes each group's order and class
representative orders once per process and every ell of that group reads
them.

The representatives are the first element of each class in enumeration
order, whatever the generating set; its length sets the cost of the class
search, one conjugation per element per generator, and a strided greedy
scan (generating_set) keeps it at two or three.  The closure and the
classes are searched over element indices, not matrices.  ElementIndex
keeps one index: each matrix's row codes (rows as base-q integers), one
dict from them back to the index, and the index of each element's
transpose.  Right multiplication by a generator g maps each row code
through a table of q^n entries, T[v] = code(v g), and the product is found
by its codes in the dict.  A left product g w is the transpose of w^T g^T:
the rows of w^T, read through the transpose list, go through
S[v] = code(g v), and the transpose list maps the result back.  The tables
of g^-1 are the inverse permutations of those of g, so no inverse matrix
is computed.  mat_mul remains for element_order.

Field sizes are capped at p and p^2 for p <= 7 with fixed quadratic moduli,
so results cannot drift with the choice of an irreducible polynomial.  Group
enumeration is capped by ORACLE_CAP elements of the ambient GL/GU.
cross_check refuses requests beyond these scopes, and SL/SU instances that
symbols.sl_refusal does not admit, before it runs the engine, so they fail
fast.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

from .arith import InstanceParams, make_params
from .errors import InvariantViolationError, UnsupportedModeError
from .symbols import sl_refusal
from .verify import run_instance

ORACLE_CAP = 300_000
_MAX_N = 3
_GOLDEN = (1 + 5**0.5) / 2

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
        a0, a1, a2, a3, a4, a5, a6, a7, a8 = a
        m0 = add[mul[a4 * q + a8] * q + neg[mul[a5 * q + a7]]]
        m1 = add[mul[a3 * q + a8] * q + neg[mul[a5 * q + a6]]]
        m2 = add[mul[a3 * q + a7] * q + neg[mul[a4 * q + a6]]]
        first = add[mul[a0 * q + m0] * q + neg[mul[a1 * q + m1]]]
        return add[first * q + mul[a2 * q + m2]]
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


def _enumerate_gl(F: TinyField, n: int, special: bool) -> list[tuple[int, ...]]:
    """Every invertible n x n matrix, or with special every matrix of
    determinant one, in lexicographic order; one determinant per matrix."""
    cells = itertools.product(range(F.q), repeat=n * n)
    if special:
        return [a for a in cells if mat_det(F, a, n) == 1]
    return [a for a in cells if mat_det(F, a, n) != 0]


def _herm(F: TinyField, u_bar, v) -> int:
    """The Hermitian form of u and v, from u_bar, the entrywise frob of u."""
    q, add, mul = F.q, F.add, F.mul
    acc = 0
    for a, b in zip(u_bar, v):
        acc = add[acc * q + mul[a * q + b]]
    return acc


def _enumerate_gu(F: TinyField, n: int) -> list[tuple[int, ...]]:
    """Every unitary n x n matrix, as its orthonormal frames of columns; each
    depth keeps those candidates of the depth above that _orthogonal_units
    lists as orthogonal to the column just chosen, in unit vector order."""
    frob = F.frob
    vectors = itertools.product(range(F.q), repeat=n)
    unit = [v for v in vectors if _herm(F, [frob[x] for x in v], v) == 1]
    orthogonal = _orthogonal_units(F, n, unit)
    out: list[tuple[int, ...]] = []
    cols: list[tuple[int, ...]] = []

    def extend(candidates) -> None:
        if len(cols) == n - 1:
            # The last column: each candidate completes a frame, whose
            # rows are read across the columns.
            out.extend(
                tuple(itertools.chain.from_iterable(zip(*cols, unit[i])))
                for i in candidates
            )
            return
        for i in candidates:
            cols.append(unit[i])
            extend(sorted(orthogonal[i].intersection(candidates)))
            cols.pop()

    extend(range(len(unit)))
    return out


def _orthogonal_units(F: TinyField, n: int, unit) -> list[set[int]]:
    """For each unit vector v, the positions in unit of the unit vectors u
    with <v, u> = 0, found with no Hermitian product per pair.  With j the
    last coordinate where v is nonzero, <v, u> = 0 solves for
    u_j = -sum_{k != j} frob(v_k) u_k / frob(v_j).  The unit vectors are
    indexed by their coordinates other than j, so each v costs one sum per
    index key (at most q^(n-1) keys), not one per unit vector."""
    q, mul, add, frob = F.q, F.mul, F.add, F.frob
    # index[j][u without u_j][u_j] is the position of u.
    index: list[dict] = [{} for _ in range(n)]
    for pos, u in enumerate(unit):
        for j in range(n):
            index[j].setdefault(u[:j] + u[j + 1 :], {})[u[j]] = pos
    out = []
    for v in unit:
        j = max(k for k in range(n) if v[k])
        scale = F.neg[F.inv[frob[v[j]]]]
        coeffs = [mul[scale * q + frob[x]] for x in v[:j] + v[j + 1 :]]
        hits = set()
        for key, by_pivot in index[j].items():
            t = 0
            for c, x in zip(coeffs, key):
                t = add[t * q + mul[c * q + x]]
            if t in by_pivot:
                hits.add(by_pivot[t])
        out.append(hits)
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
        elements = _enumerate_gl(F, n, kind == "SL")
    else:
        elements = _enumerate_gu(F, n)
        if kind == "SU":
            elements = [a for a in elements if mat_det(F, a, n) == 1]
    if len(elements) != group_order(kind, n, q):
        raise InvariantViolationError(
            f"enumerated {len(elements)} elements of {kind}_{n}({q}), "
            f"expected {group_order(kind, n, q)}"
        )
    return F, elements


class ElementIndex:
    """The elements of one enumerated matrix group by their list index.

    Each matrix is read once as its row codes, where a code is a vector of
    F_q^n read as a base-q integer, first entry most significant, and one
    dict maps the codes back to indices.  transpose holds the index of each
    element's transpose: its rows are the element's columns, and GL, SL, GU
    and SU are closed under transposition, so a transpose missing from the
    list raises here.  Multiplying by a fixed matrix g is then a lookup per
    row in a table over F_q^n (row_table; column_table on the rows of the
    transpose), and the tables of g^-1 are the inverse permutations of
    those of g.  name labels the group in errors.
    """

    def __init__(self, F: TinyField, n: int, elements, name: str):
        self.F = F
        self.n = n
        self.elements = elements
        self.name = name
        vectors = itertools.product(range(F.q), repeat=n)
        code = {v: c for c, v in enumerate(vectors)}
        row_codes = [[code[a[i : i + n]] for a in elements] for i in range(0, n * n, n)]
        self.rows = list(zip(*row_codes))
        self.by_rows = {r: i for i, r in enumerate(self.rows)}
        col_codes = [[code[a[j::n]] for a in elements] for j in range(n)]
        try:
            self.transpose = [self.by_rows[c] for c in zip(*col_codes)]
        except KeyError as err:
            raise self.missing(err.args[0], by_rows=True) from None

    def row_table(self, g) -> list[int]:
        """T with T[v] = code(v g) for every row vector v, in code order:
        the rows of x g are T at the rows of x."""
        n = self.n
        return _vector_table(self.F, n, [g[j::n] for j in range(n)])

    def column_table(self, g) -> list[int]:
        """S with S[v] = code(g v) for every column vector v, in code order:
        the columns of g x are S at the columns of x."""
        n = self.n
        return _vector_table(self.F, n, [g[i : i + n] for i in range(0, n * n, n)])

    def missing(self, codes, by_rows: bool) -> InvariantViolationError:
        """The error for a product whose row (or column) codes are not
        those of an element: the element list is not the group."""
        q, n = self.F.q, self.n
        digits = [[c // q ** (n - 1 - k) % q for k in range(n)] for c in codes]
        if not by_rows:
            digits = [list(col) for col in zip(*digits)]
        matrix = tuple(d for row in digits for d in row)
        return InvariantViolationError(
            f"{self.name}: the product {matrix} is not among the "
            f"{len(self.elements)} elements given"
        )


def _vector_table(F: TinyField, n: int, lines) -> list[int]:
    """The code of (<v, line> for line in lines) for every v in F_q^n, in
    code order; each dot product table grows by one coordinate at a time."""
    q, mul, add = F.q, F.mul, F.add
    table = [0] * q**n
    for line in lines:
        dots = [0]
        for b in line:
            products = [mul[a * q + b] for a in range(q)]
            dots = [add[d * q + m] for d in dots for m in products]
        table = [c * q + d for c, d in zip(table, dots)]
    return table


def _inverse_table(table: list[int]) -> list[int]:
    inverse = [0] * len(table)
    for v, w in enumerate(table):
        inverse[w] = v
    return inverse


def generating_set(index: ElementIndex) -> list:
    """Small deterministic generating set found greedily: each element not
    yet in the closure joins it.  Elements are scanned at the indices
    k s mod |G|, k = 1, ..., |G|, with s the first integer from |G|/phi
    (phi the golden ratio) prime to |G|: consecutive picks lie far apart,
    so the sparse matrices at the start of the list do not each add a
    generator.  The closure grows by the old closure times the new
    generator, then by each new element times every generator."""
    rows, by_rows, elements = index.rows, index.by_rows, index.elements
    q, n, size = index.F.q, index.n, len(index.rows)
    stride = max(1, round(size / _GOLDEN))
    while math.gcd(stride, size) > 1:
        stride += 1
    inside = bytearray(size)
    gens: list = []
    tables: list[list[int]] = []
    # Every KeyError below is a product missing from by_rows.  The rows of
    # the identity are the unit vectors, of codes q^(n-1), ..., q, 1.
    try:
        members = [by_rows[tuple(q ** (n - 1 - i) for i in range(n))]]
        inside[members[0]] = 1
        for k in range(1, size + 1):
            if len(members) == size:
                break
            x = k * stride % size
            if inside[x]:
                continue
            gens.append(elements[x])
            tables.append(index.row_table(elements[x]))
            frontier, step = members, tables[-1:]
            while frontier:
                fresh = []
                for y in frontier:
                    for table in step:
                        z = by_rows[tuple(map(table.__getitem__, rows[y]))]
                        if not inside[z]:
                            inside[z] = 1
                            fresh.append(z)
                members.extend(fresh)
                frontier, step = fresh, tables
    except KeyError as err:
        raise index.missing(err.args[0], by_rows=True) from None
    if len(members) != size:
        raise InvariantViolationError(f"{index.name}: generating set closure mismatch")
    return gens


def conjugacy_class_reps(index: ElementIndex, gens) -> list:
    """One representative per conjugacy class, in enumeration order: a
    breadth-first search over indices by z = g y g^-1, with w = y g^-1 read
    from the rows of y and g w = (w^T g^T)^T from the rows of w^T, through
    index.transpose."""
    rows, by_rows, t = index.rows, index.by_rows, index.transpose
    pairs = [(index.column_table(g), _inverse_table(index.row_table(g))) for g in gens]
    seen = bytearray(len(rows))
    reps = []
    for x in range(len(rows)):
        if seen[x]:
            continue
        reps.append(index.elements[x])
        seen[x] = 1
        frontier = [x]
        while frontier:
            fresh = []
            for y in frontier:
                for left, right in pairs:
                    try:
                        w = by_rows[tuple(map(right.__getitem__, rows[y]))]
                    except KeyError as err:
                        raise index.missing(err.args[0], by_rows=True) from None
                    try:
                        z = t[by_rows[tuple(map(left.__getitem__, rows[t[w]]))]]
                    except KeyError as err:
                        raise index.missing(err.args[0], by_rows=False) from None
                    if not seen[z]:
                        seen[z] = 1
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
    index = ElementIndex(F, n, elements, f"{kind}_{n}({q})")
    gens = generating_set(index)
    reps = conjugacy_class_reps(index, gens)
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

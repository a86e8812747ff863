"""Exact arithmetic for finite base rings and matrix algebras.

Rings are objects that own the arithmetic; elements are plain hashable data
(ints for Zmod, coefficient tuples for GF, nested tuples of rows for
matrices).  No floats are used anywhere: every operation is exact.

The three ring kinds:

    Zmod(m)            integers modulo m
    GF(p, f)           the field F_{p^d}, f a monic irreducible of degree d
    MatrixAlgebra(A,n) n-by-n matrices over a base ring A

GF arithmetic is table-driven: each field builds log, antilog, Zech and
negation tables once, at construction, in O(q) time and memory for
q = p^d, after which every field operation is a lookup.

Matrix algebras are flat: their base is Zmod or GF, and M(n, M(k, A)) is
written as M(nk, A) with a block family.  Determinants and inverses cost
O(n^3) base operations, by exact elimination: over Z/m, unimodular 2x2
row steps built from the extended gcd of two entries triangularise the
matrix (one loop covers prime powers and mixed moduli, with no CRT
split); over GF, Gauss-Jordan with a nonzero pivot.
"""

from __future__ import annotations

import itertools
import math
import operator


class SforgeError(Exception):
    """Base class for all errors raised by this package."""


class NotInvertible(SforgeError):
    """An element required to be a unit is not one."""


class NotQuasiInvertible(SforgeError):
    """No two-sided quasi-inverse exists at the requested scale."""


def _is_prime(m):
    if m < 2:
        return False
    for p in range(2, int(math.isqrt(m)) + 1):
        if m % p == 0:
            return False
    return True


def _prime_factors(m):
    out = []
    p = 2
    while p * p <= m:
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out.append(m)
    return out


class Zmod:
    """The ring of integers modulo m; elements are canonical ints in range(m)."""

    kind = "Zmod"

    def __init__(self, m):
        if m < 1:
            raise ValueError("modulus must be a positive integer")
        self.m = m
        self.zero = 0
        self.one = 1 % m
        self.size = m

    def element(self, v):
        return int(v) % self.m

    def add(self, a, b):
        return (a + b) % self.m

    def sub(self, a, b):
        return (a - b) % self.m

    def neg(self, a):
        return -a % self.m

    def mul(self, a, b):
        return (a * b) % self.m

    def elements(self):
        return iter(range(self.m))

    def units(self):
        return [a for a in range(self.m) if math.gcd(a, self.m) == 1]

    def is_unit(self, a):
        return math.gcd(a, self.m) == 1

    def inv(self, a):
        if not self.is_unit(a):
            raise NotInvertible("%d is not a unit modulo %d" % (a, self.m))
        return pow(a, -1, self.m)

    def scalar_mul(self, s, a):
        return (s * a) % self.m

    def residue_fields(self):
        """Pairs (field, project) covering the maximal ideals; CRT-combinable."""
        return [(Zmod(p), (lambda x, p=p: x % p)) for p in _prime_factors(self.m)]

    def combine_residues(self, values):
        """An element congruent to values[t] modulo the t-th residue prime."""
        primes = _prime_factors(self.m)
        if not primes:
            return 0
        x, mod = 0, 1
        for p, v in zip(primes, values):
            # CRT step: x' == x (mod mod), x' == v (mod p)
            t = ((v - x) * pow(mod, -1, p)) % p
            x, mod = x + mod * t, mod * p
        return x % self.m

    def to_json(self):
        return {"kind": "Zmod", "m": self.m}

    def element_to_json(self, a):
        return a

    def element_from_json(self, obj):
        return self.element(_json_int(obj, "a Z/%d element" % self.m))

    def __eq__(self, other):
        return isinstance(other, Zmod) and other.m == self.m

    def __hash__(self):
        return hash(("Zmod", self.m))

    def __repr__(self):
        return "Zmod(%d)" % self.m


def _poly_trim(cs):
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _poly_mod(cs, f, p):
    """Remainder of cs modulo the monic polynomial f, coefficients mod p."""
    cs = [c % p for c in cs]
    d = len(f) - 1
    for k in range(len(cs) - 1, d - 1, -1):
        c = cs[k]
        if c:
            for t in range(d + 1):
                cs[k - d + t] = (cs[k - d + t] - c * f[t]) % p
    del cs[d:]
    while len(cs) < d:
        cs.append(0)
    return cs


def _poly_divmod(a, b, p):
    a = [c % p for c in a]
    b = [c % p for c in b]
    _poly_trim(b)
    inv_lead = pow(b[-1], -1, p)
    q = [0] * max(1, len(a) - len(b) + 1)
    r = list(a)
    _poly_trim(r)
    while len(r) >= len(b):
        c = (r[-1] * inv_lead) % p
        k = len(r) - len(b)
        q[k] = c
        for t, bc in enumerate(b):
            r[k + t] = (r[k + t] - c * bc) % p
        _poly_trim(r)
    return q, r


def _poly_mulmod(a, b, f, p):
    """a * b modulo the monic f, coefficients mod p, for a reduced modulo f
    (d coefficients) and b nonempty: Horner's rule in b, O(d) per
    coefficient of b."""
    out = list(a) if b[-1] == 1 else [b[-1] * x % p for x in a]
    for y in reversed(b[:-1]):
        # out * t, reduced by t^d == -(f_0 + ... + f_{d-1} t^{d-1}); then + y * a
        top = out[-1]
        out = [0] + out[:-1]
        if top:
            out = [(x - top * c) % p for x, c in zip(out, f)]
        if y:
            out = [(x + y * z) % p for x, z in zip(out, a)]
    return out


def _poly_powmod(a, e, f, p):
    """a^e modulo the monic f, coefficients mod p, by repeated squaring."""
    a = _poly_mod(a, f, p)
    out = _poly_mod([1], f, p)
    while e:
        if e & 1:
            out = _poly_mulmod(out, a, f, p)
        a = _poly_mulmod(a, a, f, p)
        e >>= 1
    return out


class GF:
    """The finite field F_{p^d} as F_p[t] modulo a monic irreducible f.

    Elements are coefficient tuples of length d, lowest degree first.
    Arithmetic is table-driven: construction fixes a primitive element g
    and tabulates its powers (antilogarithms), the logarithm of every
    nonzero element, Zech's logarithms Z(k) = log(1 + g^k), and negation.
    Then mul, inv, add, sub and neg are O(1) lookups, with
    g^i + g^j = g^(i + Z(j - i)).  The tables take O(q) time and memory
    for q = p^d, built once per field (Lidl & Niederreiter, Finite Fields,
    1997).
    """

    kind = "GF"

    def __init__(self, p, f):
        if not _is_prime(p):
            raise ValueError("GF characteristic must be prime")
        f = [c % p for c in f]
        if len(f) < 2 or f[-1] != 1:
            raise ValueError("GF modulus must be monic of degree >= 1")
        self.p = p
        self.f = tuple(f)
        self.deg = len(f) - 1
        if not self._irreducible():
            raise ValueError("GF modulus must be irreducible")
        self.size = p ** self.deg
        self.zero = (0,) * self.deg
        self.one = (1,) + (0,) * (self.deg - 1)
        self._build_tables()

    def _irreducible(self):
        d = len(self.f) - 1
        if d == 1:
            return True
        for k in range(1, d // 2 + 1):
            for tail in itertools.product(range(self.p), repeat=k):
                g = list(tail) + [1]
                _, r = _poly_divmod(list(self.f), g, self.p)
                if not r:
                    return False
        return True

    def _primitive(self):
        """A generator of the multiplicative group, as a trimmed coefficient list.

        Candidates are taken in order of degree, so multiplying by the one
        found costs O(d) per coefficient it has; g is primitive when
        g^((q-1)/r) != 1 for every prime r dividing q - 1.
        """
        p, d, f = self.p, self.deg, list(self.f)
        order = self.size - 1
        one = list(self.one)
        primes = _prime_factors(order)
        candidates = (
            _poly_trim([(k // p ** e) % p for e in range(d)])
            for k in range(1, self.size)
        )
        return next(
            g for g in candidates
            if all(_poly_powmod(g, order // r, f, p) != one for r in primes)
        )

    def _build_tables(self):
        p, f = self.p, list(self.f)
        order = self.size - 1
        g = self._primitive()
        exp = []
        cur = list(self.one)
        for _ in range(order):
            exp.append(tuple(cur))
            cur = _poly_mulmod(cur, g, f, p)
        log = {a: k for k, a in enumerate(exp)}
        log[self.zero] = None  # zero has no logarithm
        # -1 is g^((q-1)/2), the one element of order 2; in characteristic 2, 1
        half = order // 2 if p > 2 else 0
        self._neg = {a: exp[(k + half) % order] for k, a in enumerate(exp)}
        self._neg[self.zero] = self.zero
        self._zech = [log[((a[0] + 1) % p,) + a[1:]] for a in exp]
        self._log = log
        self._exp = exp + exp  # log a + log b < 2(q - 1) needs no reduction

    def element(self, v):
        if isinstance(v, int):
            return (v % self.p,) + (0,) * (self.deg - 1)
        cs = _poly_mod(list(v), list(self.f), self.p)
        return tuple(cs)

    def add(self, a, b):
        log = self._log
        la, lb = log[a], log[b]
        if la is None:
            return b
        if lb is None:
            return a
        z = self._zech[lb - la]  # a negative index reads Z modulo q - 1
        return self.zero if z is None else self._exp[la + z]

    def sub(self, a, b):
        # a + (-b) with add's body written out, not a call to add, so that
        # perfbench's count of GF.add calls stays a count of additions
        log = self._log
        nb = self._neg[b]
        la, lb = log[a], log[nb]
        if la is None:
            return nb
        if lb is None:
            return a
        z = self._zech[lb - la]
        return self.zero if z is None else self._exp[la + z]

    def neg(self, a):
        return self._neg[a]

    def mul(self, a, b):
        log = self._log
        la, lb = log[a], log[b]
        if la is None or lb is None:
            return self.zero
        return self._exp[la + lb]

    def elements(self):
        return itertools.product(range(self.p), repeat=self.deg)

    def units(self):
        return [a for a in self.elements() if a != self.zero]

    def is_unit(self, a):
        return a != self.zero

    def inv(self, a):
        la = self._log[a]
        if la is None:
            raise NotInvertible("zero is not invertible in GF(%d^%d)" % (self.p, self.deg))
        return self._exp[self.size - 1 - la]

    def scalar_mul(self, s, a):
        return self.mul(s, a)

    def residue_fields(self):
        return [(self, lambda x: x)]

    def combine_residues(self, values):
        return values[0]

    def to_json(self):
        return {"kind": "GF", "p": self.p, "f": list(self.f)}

    def element_to_json(self, a):
        return list(a)

    def element_from_json(self, obj):
        """An element from a JSON integer or a list of JSON integers
        (coefficients, lowest degree first)."""
        if is_json_int(obj) or (
            isinstance(obj, list) and all(is_json_int(c) for c in obj)
        ):
            return self.element(obj)
        raise ValueError(
            "a GF element must be an integer or a list of integers, got %r" % (obj,)
        )

    def __eq__(self, other):
        return isinstance(other, GF) and (other.p, other.f) == (self.p, self.f)

    def __hash__(self):
        return hash(("GF", self.p, self.f))

    def __repr__(self):
        return "GF(%d^%d)" % (self.p, self.deg)


def _xgcd(a, b):
    """(g, s, t) with g == gcd(a, b) == s*a + t*b, for integers a, b >= 0."""
    s0, t0, s1, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return a, s0, t0


def _zmod_triangularise(rows, n, m, need_units):
    """Clear the first n columns of rows below the diagonal over Z/m, in place.

    rows holds integer representatives in range(m).  A unit pivot, when
    column k has one, is swapped up and clears each row below it with one
    row update.  Otherwise each entry b below the pivot a is cleared by the
    2x2 step [[s, t], [-b/g, a/g]] with g = gcd(a, b) = s*a + t*b, which
    has determinant 1 and leaves g on the diagonal; this covers Z/p^k and
    mixed moduli alike.  The determinant of the leading n x n block is
    therefore sign times the product of the diagonal; sign is returned.
    With need_units, raises NotInvertible as soon as a diagonal entry is
    not a unit modulo m.
    """
    sign = 1
    for k in range(n):
        r = next((r for r in range(k, n) if math.gcd(rows[r][k], m) == 1), None)
        if r is not None:
            if r != k:
                rows[k], rows[r] = rows[r], rows[k]
                sign = -sign
            rk = rows[k]
            a_inv = pow(rk[k], -1, m)
            for i in range(k + 1, n):
                f = rows[i][k] * a_inv % m
                if f:
                    rows[i] = [(y - f * x) % m for x, y in zip(rk, rows[i])]
            continue
        rk = rows[k]
        a = rk[k]
        for i in range(k + 1, n):
            ri = rows[i]
            b = ri[k]
            if not b:
                continue
            g, s, t = _xgcd(a, b)
            p, q = a // g, b // g
            rk, rows[i] = (
                [(s * x + t * y) % m for x, y in zip(rk, ri)],
                [(p * y - q * x) % m for x, y in zip(rk, ri)],
            )
            a = rk[k]
        rows[k] = rk
        if need_units and math.gcd(a, m) != 1:
            raise NotInvertible("matrix determinant is not a unit")
    return sign


def _field_pivot(F, rows, k, n):
    """Swap a row with a nonzero entry in column k up to row k.

    Returns -1 for a swap, 1 for none, and 0 when the column is zero from
    row k down.
    """
    for r in range(k, n):
        if rows[r][k] != F.zero:
            if r == k:
                return 1
            rows[k], rows[r] = rows[r], rows[k]
            return -1
    return 0


def _sub_multiple(F, target, source, f, start):
    """target[c] -= f * source[c] for every column c >= start, in place."""
    zero = F.zero
    for c in range(start, len(source)):
        x = source[c]
        if x != zero:
            target[c] = F.sub(target[c], F.mul(f, x))


class MatrixAlgebra:
    """Square n-by-n matrices over a base ring; elements are tuples of row tuples."""

    kind = "Mat"

    def __init__(self, base, n):
        if n < 1:
            raise ValueError("matrix size must be positive")
        if isinstance(base, MatrixAlgebra):
            raise ValueError(
                "matrix rings are flat: write M(n, M(k, A)) as M(nk, A) with a "
                "block family"
            )
        self.base = base
        self.n = n
        self.zero = tuple(tuple(base.zero for _ in range(n)) for _ in range(n))
        self.one = tuple(
            tuple(base.one if i == j else base.zero for j in range(n)) for i in range(n)
        )
        self.size = base.size ** (n * n)
        self._mod = base.m if isinstance(base, Zmod) else None

    def element(self, rows):
        base = self.base
        rows = tuple(tuple(base.element(x) for x in row) for row in rows)
        if len(rows) != self.n or any(len(r) != self.n for r in rows):
            raise ValueError("expected a %d x %d matrix" % (self.n, self.n))
        return rows

    def unit_matrix(self, r, c, value=None):
        """The matrix with `value` (default 1) at position (r, c), zero elsewhere."""
        base = self.base
        v = base.one if value is None else value
        return tuple(
            tuple(v if (i, j) == (r, c) else base.zero for j in range(self.n))
            for i in range(self.n)
        )

    def add(self, a, b):
        m = self._mod
        if m is not None:
            return tuple(
                tuple((x + y) % m for x, y in zip(ra, rb)) for ra, rb in zip(a, b)
            )
        base = self.base
        return tuple(
            tuple(base.add(x, y) for x, y in zip(ra, rb)) for ra, rb in zip(a, b)
        )

    def sub(self, a, b):
        m = self._mod
        if m is not None:
            return tuple(
                tuple((x - y) % m for x, y in zip(ra, rb)) for ra, rb in zip(a, b)
            )
        base = self.base
        return tuple(
            tuple(base.sub(x, y) for x, y in zip(ra, rb)) for ra, rb in zip(a, b)
        )

    def neg(self, a):
        m = self._mod
        if m is not None:
            return tuple(tuple(-x % m for x in row) for row in a)
        base = self.base
        return tuple(tuple(base.neg(x) for x in row) for row in a)

    def mul(self, a, b):
        cols = tuple(zip(*b))
        m = self._mod
        if m is not None:
            return tuple(
                tuple(sum(map(operator.mul, row, col)) % m for col in cols) for row in a
            )
        base = self.base
        zero = base.zero
        add, mul = base.add, base.mul
        out = []
        for row in a:
            # each row's nonzero entries are found once, not once per column
            nonzero = [(k, x) for k, x in enumerate(row) if x != zero]
            orow = []
            for col in cols:
                acc = zero
                for k, x in nonzero:
                    y = col[k]
                    if y != zero:
                        acc = add(acc, mul(x, y))
                orow.append(acc)
            out.append(tuple(orow))
        return tuple(out)

    def add_column_multiples(self, cols, cells, values, scale=None):
        """Right-multiply by a letter's 1 + a, on a list of columns, in place.

        cells and values are the letter's cells (k, c) and its block values:
        for each nonzero value v, column c += column k * v.  No k may also
        be a c, so every update reads columns the others leave unchanged.
        With a scale s this is the homotope step acc -> s*acc*a + acc + a:
        column c += column k * (s v), then v is added at (k, c).  Each
        update builds a new column list, so the columns may start as tuples.
        """
        m = self._mod
        if m is not None:
            if scale is None:
                for (k, c), v in zip(cells, values):
                    if v:
                        cols[c] = [(y + x * v) % m for x, y in zip(cols[k], cols[c])]
                return
            for (k, c), v in zip(cells, values):
                if v:
                    sv = scale * v % m
                    col = [(y + x * sv) % m for x, y in zip(cols[k], cols[c])]
                    col[k] = (col[k] + v) % m
                    cols[c] = col
            return
        base = self.base
        zero = base.zero
        add, mul = base.add, base.mul
        for (k, c), v in zip(cells, values):
            if v == zero:
                continue
            sv = v if scale is None else base.scalar_mul(scale, v)
            col = [
                y if x == zero else add(y, mul(x, sv))
                for x, y in zip(cols[k], cols[c])
            ]
            if scale is not None:
                col[k] = add(col[k], v)
            cols[c] = col

    def add_row_multiples(self, rows, cells, values):
        """Left-multiply by a letter's 1 + a, on a list of row lists, in place.

        For each cell (r, c) with a nonzero value v: row r += v * row c.
        No r may also be a c.
        """
        m = self._mod
        if m is not None:
            for (r, c), v in zip(cells, values):
                if v:
                    rows[r] = [(x + v * y) % m for x, y in zip(rows[r], rows[c])]
            return
        base = self.base
        zero = base.zero
        for (r, c), v in zip(cells, values):
            if v != zero:
                rows[r] = [
                    x if y == zero else base.add(x, base.mul(v, y))
                    for x, y in zip(rows[r], rows[c])
                ]

    def elements(self):
        base_all = list(self.base.elements())
        for flat in itertools.product(base_all, repeat=self.n * self.n):
            yield tuple(
                flat[r * self.n:(r + 1) * self.n] for r in range(self.n)
            )

    def scalar_mul(self, s, a):
        m = self._mod
        if m is not None:
            return tuple(tuple((s * x) % m for x in row) for row in a)
        base = self.base
        return tuple(tuple(base.scalar_mul(s, x) for x in row) for row in a)

    def det(self, a):
        """The determinant, by elimination: O(n^3).

        Over Z/m, unimodular gcd row steps on integer representatives
        triangularise it, and the determinant is the signed product of the
        diagonal.  Over a field, Gauss elimination with a nonzero pivot.
        """
        rows = [list(r) for r in a]
        n = self.n
        m = self._mod
        if m is not None:
            d = _zmod_triangularise(rows, n, m, need_units=False)
            for k in range(n):
                d = d * rows[k][k] % m
            return d % m
        F = self.base
        d = F.one
        for k in range(n):
            sign = _field_pivot(F, rows, k, n)
            if not sign:
                return F.zero
            rk = rows[k]
            d = F.mul(d, rk[k] if sign > 0 else F.neg(rk[k]))
            pivot_inv = F.inv(rk[k])
            for i in range(k + 1, n):
                if rows[i][k] != F.zero:
                    _sub_multiple(F, rows[i], rk, F.mul(rows[i][k], pivot_inv), k)
        return d

    def is_unit(self, a):
        return self.base.is_unit(self.det(a))

    def inv(self, a):
        """The inverse, by elimination on [a | 1]: O(n^3).

        Over Z/m the gcd row steps of det triangularise [a | 1]; the
        inverse exists exactly when every diagonal entry is a unit, and
        NotInvertible is raised at the first that is not.  Scaling each row
        by its diagonal inverse and back-substituting leaves the inverse on
        the right.  Over a field, Gauss-Jordan with a nonzero pivot.
        """
        n = self.n
        rows = [list(r) + list(e) for r, e in zip(a, self.one)]
        m = self._mod
        if m is not None:
            _zmod_triangularise(rows, n, m, need_units=True)
            for k in reversed(range(n)):
                d_inv = pow(rows[k][k], -1, m)
                rk = rows[k] = [x * d_inv % m for x in rows[k]]
                for i in range(k):
                    f = rows[i][k]
                    if f:
                        rows[i] = [(y - f * x) % m for x, y in zip(rk, rows[i])]
            return tuple(tuple(r[n:]) for r in rows)
        F = self.base
        for k in range(n):
            if not _field_pivot(F, rows, k, n):
                raise NotInvertible("matrix determinant is not a unit")
            pivot_inv = F.inv(rows[k][k])
            rk = rows[k] = [F.mul(pivot_inv, x) if x != F.zero else x for x in rows[k]]
            for i in range(n):
                if i != k and rows[i][k] != F.zero:
                    _sub_multiple(F, rows[i], rk, rows[i][k], k)
        return tuple(tuple(r[n:]) for r in rows)

    def to_json(self):
        return {"base": self.base.to_json(), "kind": "Mat", "size": self.n}

    def element_to_json(self, a):
        base = self.base
        return [[base.element_to_json(x) for x in row] for row in a]

    def element_from_json(self, obj):
        base = self.base
        return self.element([[base.element_from_json(x) for x in row] for row in obj])

    def __eq__(self, other):
        return (
            isinstance(other, MatrixAlgebra)
            and other.n == self.n
            and other.base == self.base
        )

    def __hash__(self):
        return hash(("Mat", self.n, self.base))

    def __repr__(self):
        return "MatrixAlgebra(%r, %d)" % (self.base, self.n)


def is_json_int(value):
    """Is value a JSON integer?  true, false and "4" are not, though
    Python's bool is a subclass of int."""
    return isinstance(value, int) and not isinstance(value, bool)


def _json_int(value, what):
    if not is_json_int(value):
        raise ValueError("%s must be an integer, got %r" % (what, value))
    return value


def ring_from_json(desc):
    """Build a ring from its JSON descriptor."""
    if not isinstance(desc, dict) or "kind" not in desc:
        raise ValueError("ring descriptor must be an object with a 'kind' field")
    kind = desc["kind"]
    if kind == "Zmod":
        return Zmod(_json_int(desc["m"], "'m'"))
    if kind == "GF":
        f = desc["f"]
        if not isinstance(f, list):
            raise ValueError("'f' must be a list of integers, got %r" % (f,))
        f = [_json_int(c, "each entry of 'f'") for c in f]
        return GF(_json_int(desc["p"], "'p'"), f)
    if kind == "Mat":
        size = _json_int(desc["size"], "'size'")
        return MatrixAlgebra(ring_from_json(desc["base"]), size)
    raise ValueError("unknown ring kind %r" % (kind,))


class Localization:
    """Result of inverting s in a finite commutative ring K.

    ring:  the quotient K' = K/I where I is the stabilized s-power annihilator
    psi:   the projection K -> K'
    lift:  a section K' -> K with psi(lift(x)) == x
    annihilator: I as a tuple of elements of K
    warning: set when the quotient collapses to the zero ring
    """

    def __init__(self, ring, psi, lift, annihilator, warning=None):
        self.ring = ring
        self.psi = psi
        self.lift = lift
        self.annihilator = annihilator
        self.warning = warning


def localize_finite(K, s):
    """Invert s in finite commutative K by killing its s-power torsion.

    I = { k : s^N k = 0 } for stabilized N; returns K/I with the projection.
    The projection sends s to a unit, and every map out of K inverting s
    factors through it.
    """
    if isinstance(K, Zmod):
        m = K.m
        # stabilize g_N = gcd(s^N, m) via g_{N+1} = gcd(g_N * s, m)
        g = math.gcd(s % m, m)
        while True:
            nxt = math.gcd(g * (s % m), m)
            if nxt == g:
                break
            g = nxt
        d = m // g
        K2 = Zmod(d)
        annihilator = tuple(k for k in range(m) if k % d == 0)
        warning = None
        if d == 1:
            warning = "scale is nilpotent: localization is the zero ring"
        return Localization(K2, lambda x: x % d, lambda x: x, annihilator, warning)
    if isinstance(K, GF):
        if s == K.zero:
            K2 = Zmod(1)
            return Localization(
                K2,
                lambda x: 0,
                lambda x: K.zero,
                tuple(K.elements()),
                "scale is zero: localization is the zero ring",
            )
        return Localization(K, lambda x: x, lambda x: x, (K.zero,), None)
    raise SforgeError("localization implemented for Zmod and GF scalars only")


def quasi_invert(R, a, s):
    """The two-sided quasi-inverse of a at central scale s.

    Solves s*a*b + a + b = 0 = s*b*a + b + a.  Exists iff 1 + s*a is a unit;
    then b = -(1 + s*a)^{-1} * a.
    """
    u = R.add(R.one, R.scalar_mul(s, a))
    if not R.is_unit(u):
        raise NotQuasiInvertible("1 + s*a is not a unit")
    b = R.neg(R.mul(R.inv(u), a))
    return b


def is_quasi_invertible(R, a, s):
    return R.is_unit(R.add(R.one, R.scalar_mul(s, a)))


def random_element(ring, rng):
    """A uniformly random element of a finite ring."""
    if isinstance(ring, Zmod):
        return rng.randrange(ring.m)
    if isinstance(ring, GF):
        return tuple(rng.randrange(ring.p) for _ in range(ring.deg))
    if isinstance(ring, MatrixAlgebra):
        return tuple(
            tuple(random_element(ring.base, rng) for _ in range(ring.n))
            for _ in range(ring.n)
        )
    raise ValueError("cannot sample from %r" % (ring,))
